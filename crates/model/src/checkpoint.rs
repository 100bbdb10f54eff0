//! Binary model checkpointing.
//!
//! Format (little-endian):
//!
//! ```text
//! magic  "ASGD"            4 bytes
//! version u32              4 bytes
//! [v4 only] precision u32  (0 = f32, 1 = bf16)
//! num_features u64 | hidden u64 | num_classes u64
//! params  × param_len      (W₁ ‖ b₁ ‖ W₂ ‖ b₂, the `Mlp::as_flat` layout,
//!                           `W₂` class-major; f32-le in f32 checkpoints,
//!                           bf16-le in bf16 ones)
//! ```
//!
//! Version 3 has no precision field and is always f32 ([`encode`]).
//! Version 4 adds the precision tag and a bf16 payload option
//! ([`encode_with`]); decoding widens bf16 exactly, so a v4/bf16 round-trip
//! equals one narrowing of the source model (the rounding contract's single
//! round point per store). Versions 1 and 2 were the same two formats with
//! `W₂` stored `hidden × num_classes`: they decode to
//! [`CheckpointError::BadVersion`], never to a model with its output layer
//! read in the wrong order.

use crate::mlp::{Mlp, MlpConfig};
use asgd_tensor::{bf16, Precision};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"ASGD";
const VERSION: u32 = 3;
const VERSION_PRECISION: u32 = 4;

/// Checkpoint decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Payload shorter than the header claims.
    Truncated,
    /// A dimension of zero: no such model exists, and the other dimensions
    /// of one would be bounded by nothing.
    EmptyDimension,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
            CheckpointError::EmptyDimension => write!(f, "checkpoint with an empty dimension"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes a model to bytes (the version-3 f32 layout).
pub fn encode(model: &Mlp) -> Bytes {
    encode_with(model, Precision::F32)
}

/// Serializes a model at the requested storage precision. [`Precision::F32`]
/// emits [`encode`]'s version-3 layout byte-for-byte; [`Precision::Bf16`]
/// emits version 4 with a half-size payload (one round-to-nearest-even
/// narrowing per weight).
pub fn encode_with(model: &Mlp, precision: Precision) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 8 + 24 + precision.bytes() * model.param_len());
    buf.put_slice(MAGIC);
    match precision {
        Precision::F32 => buf.put_u32_le(VERSION),
        Precision::Bf16 => {
            buf.put_u32_le(VERSION_PRECISION);
            buf.put_u32_le(1);
        }
    }
    let c = model.config();
    buf.put_u64_le(c.num_features as u64);
    buf.put_u64_le(c.hidden as u64);
    buf.put_u64_le(c.num_classes as u64);
    for &v in model.as_flat() {
        match precision {
            Precision::F32 => buf.put_f32_le(v),
            Precision::Bf16 => buf.put_slice(&bf16::narrow(v).to_le_bytes()),
        }
    }
    buf.freeze()
}

/// Payload bytes a header's dimensions claim (`param_len` elements of
/// `elem` bytes); `None` when the count does not fit in 64 bits.
fn payload_bytes(features: u64, hidden: u64, classes: u64, elem: u64) -> Option<u64> {
    features
        .checked_mul(hidden)?
        .checked_add(hidden)?
        .checked_add(hidden.checked_mul(classes)?)?
        .checked_add(classes)?
        .checked_mul(elem)
}

/// Deserializes a model. Malformed input of any kind is an error, never a
/// panic or an allocation sized by the header alone.
pub fn decode(mut data: Bytes) -> Result<Mlp, CheckpointError> {
    if data.remaining() < 8 + 24 {
        return Err(CheckpointError::Truncated);
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = data.get_u32_le();
    let precision = match version {
        VERSION => Precision::F32,
        VERSION_PRECISION => {
            if data.remaining() < 4 {
                return Err(CheckpointError::Truncated);
            }
            match data.get_u32_le() {
                0 => Precision::F32,
                1 => Precision::Bf16,
                _ => return Err(CheckpointError::BadVersion(version)),
            }
        }
        other => return Err(CheckpointError::BadVersion(other)),
    };
    if data.remaining() < 24 {
        return Err(CheckpointError::Truncated);
    }
    // The dimensions are untrusted: size the payload in checked arithmetic
    // and hold it against what is actually there before anything is
    // allocated for it (`MlpConfig::param_len` would overflow first).
    let (features, hidden, classes) = (data.get_u64_le(), data.get_u64_le(), data.get_u64_le());
    let payload = payload_bytes(features, hidden, classes, precision.bytes() as u64);
    if payload.is_none_or(|p| p > data.remaining() as u64) {
        return Err(CheckpointError::Truncated);
    }
    // With every dimension at least 1 the parameter count just checked
    // bounds each of them; a zero `hidden` passes that check with any
    // `num_features` at all, and the first `Workspace` built for such a
    // model sizes a table by it.
    if features == 0 || hidden == 0 || classes == 0 {
        return Err(CheckpointError::EmptyDimension);
    }
    let config = MlpConfig {
        num_features: features as usize,
        hidden: hidden as usize,
        num_classes: classes as usize,
    };
    let n = 0..config.param_len();
    let flat = match precision {
        Precision::F32 => n.map(|_| data.get_f32_le()).collect(),
        Precision::Bf16 => n
            .map(|_| bf16::widen(u16::from_le_bytes([data.get_u8(), data.get_u8()])))
            .collect(),
    };
    Ok(Mlp::from_flat(&config, flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config() -> MlpConfig {
        MlpConfig {
            num_features: 12,
            hidden: 5,
            num_classes: 7,
        }
    }

    #[test]
    fn roundtrip_preserves_model_exactly() {
        let model = Mlp::init(&config(), 123);
        let bytes = encode(&model);
        let back = decode(bytes).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn encode_with_f32_matches_encode_exactly() {
        let model = Mlp::init(&config(), 99);
        assert_eq!(encode(&model), encode_with(&model, Precision::F32));
    }

    #[test]
    fn bf16_checkpoint_is_one_rounding_and_half_the_payload() {
        let model = Mlp::init(&config(), 123);
        let f32_bytes = encode(&model);
        let bf16_bytes = encode_with(&model, Precision::Bf16);
        let header_f32 = 4 + 4 + 24;
        let header_bf16 = 4 + 4 + 4 + 24;
        let n = config().param_len();
        assert_eq!(f32_bytes.len(), header_f32 + 4 * n);
        assert_eq!(bf16_bytes.len(), header_bf16 + 2 * n);
        let back = decode(bf16_bytes).unwrap();
        assert_eq!(back, model.quantized(Precision::Bf16));
        // Round-trip of an already-quantized model is exact.
        let again = decode(encode_with(&back, Precision::Bf16)).unwrap();
        assert_eq!(again, back);
    }

    #[test]
    fn rejects_unknown_precision_tag() {
        let model = Mlp::init(&config(), 1);
        let mut raw = encode_with(&model, Precision::Bf16).to_vec();
        raw[8] = 7; // precision field, little-endian low byte
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(CheckpointError::BadVersion(VERSION_PRECISION))
        ));
    }

    /// Versions 1 (f32) and 2 (bf16) stored `W₂` hidden-major. A file of
    /// either — a whole, well-formed one — is refused by its version and
    /// never read as class-major.
    #[test]
    fn hidden_major_checkpoints_are_a_bad_version() {
        let model = Mlp::init(&config(), 3);
        for (precision, old) in [(Precision::F32, 1u32), (Precision::Bf16, 2)] {
            let mut raw = encode_with(&model, precision).to_vec();
            raw[4..8].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                decode(Bytes::from(raw)),
                Err(CheckpointError::BadVersion(old)),
                "{precision:?}"
            );
        }
    }

    #[test]
    fn rejects_truncated_bf16_payload() {
        let model = Mlp::init(&config(), 1);
        let raw = encode_with(&model, Precision::Bf16);
        let cut = raw.slice(0..raw.len() - 1);
        assert_eq!(decode(cut), Err(CheckpointError::Truncated));
    }

    /// A 64-byte input whose header claims dimensions that overflow
    /// `param_len` (or merely dwarf the input) is truncated, not a panic.
    #[test]
    fn hostile_dimensions_are_truncated_not_a_panic() {
        for (version, dims) in [
            (VERSION, [1u64 << 40, 1 << 40, 1]),
            (VERSION, [1, 1 << 40, 1 << 40]),
            (VERSION, [u64::MAX, 1, 1]),
            (VERSION, [1, 1, u64::MAX]),
            (VERSION_PRECISION, [1 << 31, 1 << 31, 1 << 31]),
            (VERSION, [1 << 20, 1 << 20, 0]),
        ] {
            let mut raw = MAGIC.to_vec();
            raw.extend(version.to_le_bytes());
            if version == VERSION_PRECISION {
                raw.extend(1u32.to_le_bytes());
            }
            raw.extend(dims.iter().flat_map(|d| d.to_le_bytes()));
            raw.resize(64, 0);
            assert_eq!(
                decode(Bytes::from(raw)),
                Err(CheckpointError::Truncated),
                "{dims:?}"
            );
        }
    }

    #[test]
    fn every_proper_prefix_is_an_error() {
        let model = Mlp::init(&config(), 1);
        for precision in [Precision::F32, Precision::Bf16] {
            let raw = encode_with(&model, precision);
            for cut in 0..raw.len() {
                assert!(
                    decode(raw.slice(0..cut)).is_err(),
                    "{precision:?} cut {cut}"
                );
            }
            assert!(decode(raw).is_ok());
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let model = Mlp::init(&config(), 1);
        let mut raw = encode(&model).to_vec();
        raw[0] = b'X';
        assert_eq!(decode(Bytes::from(raw)), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let model = Mlp::init(&config(), 1);
        let mut raw = encode(&model).to_vec();
        raw[4] = 99;
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(CheckpointError::BadVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let model = Mlp::init(&config(), 1);
        let raw = encode(&model);
        let cut = raw.slice(0..raw.len() - 5);
        assert_eq!(decode(cut), Err(CheckpointError::Truncated));
        assert_eq!(
            decode(Bytes::from_static(b"AS")),
            Err(CheckpointError::Truncated)
        );
    }
    /// Found by `overwritten_checkpoints_decode_or_fail_cleanly`: with
    /// `hidden == 0` the payload is `num_classes` elements whatever
    /// `num_features` says, so a 300-byte input decoded to a model claiming
    /// 2⁶⁰ features.
    #[test]
    fn a_zero_dimension_is_an_error_not_an_unbounded_model() {
        for dims in [[1u64 << 60, 0, 7], [0, 5, 7], [12, 5, 0]] {
            let mut raw = MAGIC.to_vec();
            raw.extend(VERSION.to_le_bytes());
            raw.extend(dims.iter().flat_map(|d| d.to_le_bytes()));
            raw.resize(300, 0); // room for every payload these claim
            assert_eq!(
                decode(Bytes::from(raw)),
                Err(CheckpointError::EmptyDimension),
                "{dims:?}"
            );
        }
    }

    /// What "never an allocation larger than the input justifies" means for
    /// a decoder's *result*: nothing a caller later sizes by the decoded
    /// model — its parameters, a workspace's per-feature table — can exceed
    /// the bytes that were actually supplied.
    fn assert_decodes_cleanly(raw: Vec<u8>) -> Result<(), TestCaseError> {
        let len = raw.len();
        if let Ok(model) = decode(Bytes::from(raw)) {
            let c = model.config();
            for dim in [c.num_features, c.hidden, c.num_classes] {
                prop_assert!((1..=len).contains(&dim), "dimension {dim} from {len} bytes");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A valid encoding of either version with 1–8 bytes overwritten
        /// decodes or is an error, never a panic.
        #[test]
        fn overwritten_checkpoints_decode_or_fail_cleanly(
            bf16 in 0u8..2,
            hits in proptest::collection::vec(
                // Boundary bytes as often as arbitrary ones.
                (0usize..1 << 20, prop_oneof![Just(0u8), Just(255u8), 0u8..=255]),
                1..=8,
            ),
        ) {
            let precision = [Precision::F32, Precision::Bf16][bf16 as usize];
            let mut raw = encode_with(&Mlp::init(&config(), 5), precision).to_vec();
            for (at, byte) in hits {
                // Half the hits land in the header, where the structure is.
                let span = if at % 2 == 0 { 36 } else { raw.len() };
                raw[(at / 2) % span] = byte;
            }
            assert_decodes_cleanly(raw)?;
        }

        /// Random bytes — bare, or behind a valid magic and version so the
        /// header fields are what is random — decode or are an error.
        #[test]
        fn random_bytes_decode_or_fail_cleanly(
            version in 0u32..6,
            mut raw in proptest::collection::vec(0u8..=255, 0..=4096),
        ) {
            if version > 0 && raw.len() >= 8 {
                raw[..4].copy_from_slice(MAGIC);
                raw[4..8].copy_from_slice(&version.to_le_bytes());
            }
            assert_decodes_cleanly(raw)?;
        }
    }
}
