//! FNV-1a checksums for byte-exact determinism probes.
//!
//! Every determinism gate in the repo (the `probe` scenarios, the golden
//! integration tests, the CI byte-diff checks) fingerprints traces and model
//! buffers with the same 64-bit FNV-1a hash. This module is the single
//! definition; the constants follow Fowler–Noll–Vo exactly, so goldens are
//! portable across toolchains.

/// 64-bit FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of an `f32` slice (model buffers).
pub fn fnv1a_f32(xs: &[f32]) -> u64 {
    fnv1a(xs.iter().flat_map(|v| v.to_le_bytes()))
}

/// FNV-1a over the little-endian bytes of an `f64` slice (predictions).
pub fn fnv1a_f64(xs: &[f64]) -> u64 {
    fnv1a(xs.iter().flat_map(|v| v.to_le_bytes()))
}

/// FNV-1a over the little-endian bytes of a `u32` slice (index vectors).
pub fn fnv1a_u32(xs: &[u32]) -> u64 {
    fnv1a(xs.iter().flat_map(|v| v.to_le_bytes()))
}

/// FNV-1a over the little-endian bytes of a `u16` slice (bf16 payloads).
pub fn fnv1a_u16(xs: &[u16]) -> u64 {
    fnv1a(xs.iter().flat_map(|v| v.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Reference values from the FNV specification / IETF draft.
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn typed_helpers_agree_with_the_byte_stream() {
        let xs = [1.0f32, -2.5, 3.25];
        assert_eq!(
            fnv1a_f32(&xs),
            fnv1a(xs.iter().flat_map(|v| v.to_le_bytes()))
        );
        let us = [7u32, 0, u32::MAX];
        assert_eq!(
            fnv1a_u32(&us),
            fnv1a(us.iter().flat_map(|v| v.to_le_bytes()))
        );
        assert_eq!(fnv1a_u16(&[0x1234]), fnv1a([0x34u8, 0x12]));
        assert_ne!(fnv1a_f32(&[0.0]), fnv1a_f64(&[0.0]));
    }
}
