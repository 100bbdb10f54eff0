//! bf16 storage tier: conversion kernels and the precision/flat-buffer types.
//!
//! bfloat16 here is a *storage* format, never an arithmetic one. Every
//! computation widens to f32, accumulates in f32, and narrows back exactly
//! once per store — the mixed-precision analogue of the reduction contract
//! in [`crate::kernels`]:
//!
//! 1. **Widening is exact.** `widen(b)` places the 16 stored bits in the
//!    upper half of an f32 (`(b as u32) << 16` bit-cast); no rounding can
//!    occur, so the order of widens never matters.
//! 2. **Accumulation is f32.** All sums, scales and momentum math run on
//!    the widened f32 values under the same rule-1/rule-2 ordering as the
//!    f32 kernels.
//! 3. **Exactly one round point per store.** `narrow(x)` rounds to
//!    nearest-even once, at the final store. No intermediate value is ever
//!    narrowed and re-widened inside a single logical operation.
//!
//! Both conversions are pure integer manipulations plus (for `narrow`) a
//! single `f32::to_bits` — no FMA, no multi-op float expression the
//! optimizer could contract — so debug and release builds, and the AVX2
//! and portable paths, produce byte-identical results. The SIMD clones
//! ([`widen_slice`]/[`narrow_slice`] leaf functions) perform the identical
//! per-element bit manipulation and are therefore bit-equal to the scalar
//! twins by construction; `tests` and the proptests in this module pin
//! that equality on the edge cases (subnormals, NaN payloads, ties).

/// Storage precision of model/merge flat buffers.
///
/// Selected per run via config (`RunConfig::precision`,
/// `ServeConfig::precision`) or the `ASGD_PRECISION` environment variable;
/// defaults to [`Precision::F32`] so every pre-existing golden stays valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-precision f32 storage (the original code path, bit-for-bit).
    #[default]
    F32,
    /// bfloat16 storage with f32 accumulation; halves flat-buffer bytes.
    Bf16,
}

impl Precision {
    /// Bytes per stored element.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 => 2,
        }
    }

    /// Reads `ASGD_PRECISION` (see the [`std::str::FromStr`] impl for the
    /// vocabulary); `default` when the variable is unset.
    ///
    /// # Panics
    /// Panics when the variable is set to anything else — `fp16` must not
    /// silently run the default tier.
    pub fn from_env_or(default: Precision) -> Precision {
        match std::env::var_os("ASGD_PRECISION") {
            Some(v) => v
                .to_string_lossy()
                .parse()
                .unwrap_or_else(|e| panic!("{e}")),
            None => default,
        }
    }

    /// Short lowercase name (`"f32"` / `"bf16"`), for artifact labels.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
        }
    }
}

/// The text of `ASGD_PRECISION`: `f32` or `bf16`, case-insensitive,
/// surrounding whitespace ignored. The error names the variable and the text.
impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, String> {
        [Precision::F32, Precision::Bf16]
            .into_iter()
            .find(|p| text.trim().eq_ignore_ascii_case(p.name()))
            .ok_or_else(|| {
                format!(
                    "ASGD_PRECISION={text:?} is not a valid value for ASGD_PRECISION (f32 or bf16)"
                )
            })
    }
}

/// A flat model/merge buffer in one of the two storage precisions.
///
/// `Default` is an empty f32 vector so `std::mem::take` works on it; an
/// empty buffer adopts the writer's precision on first fill.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatVec {
    /// f32 storage.
    F32(Vec<f32>),
    /// bf16 storage (raw bit patterns, upper 16 bits of the f32).
    Bf16(Vec<u16>),
}

impl Default for FlatVec {
    fn default() -> Self {
        FlatVec::F32(Vec::new())
    }
}

impl FlatVec {
    /// An empty buffer of the given precision (capacity 0, like `Vec::new`).
    pub fn empty(precision: Precision) -> Self {
        match precision {
            Precision::F32 => FlatVec::F32(Vec::new()),
            Precision::Bf16 => FlatVec::Bf16(Vec::new()),
        }
    }

    /// A buffer of `len` zeros at the given precision (both encodings of
    /// zero are all-zero bits, so the allocation comes back untouched).
    pub fn zeros(precision: Precision, len: usize) -> Self {
        match precision {
            Precision::F32 => FlatVec::F32(vec![0.0; len]),
            Precision::Bf16 => FlatVec::Bf16(vec![0; len]),
        }
    }

    /// The buffer as a borrowed [`FlatRef`].
    pub fn view(&self) -> FlatRef<'_> {
        match self {
            FlatVec::F32(v) => FlatRef::F32(v),
            FlatVec::Bf16(v) => FlatRef::Bf16(v),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            FlatVec::F32(v) => v.len(),
            FlatVec::Bf16(v) => v.len(),
        }
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap capacity in elements (pointer-stability checks).
    pub fn capacity(&self) -> usize {
        match self {
            FlatVec::F32(v) => v.capacity(),
            FlatVec::Bf16(v) => v.capacity(),
        }
    }

    /// Stored bytes (`len * precision.bytes()`).
    pub fn byte_len(&self) -> usize {
        self.len() * self.precision().bytes()
    }

    /// The storage precision of this buffer.
    pub fn precision(&self) -> Precision {
        match self {
            FlatVec::F32(_) => Precision::F32,
            FlatVec::Bf16(_) => Precision::Bf16,
        }
    }

    /// Data pointer as an address, for pointer-stability assertions.
    pub fn as_ptr_addr(&self) -> usize {
        match self {
            FlatVec::F32(v) => v.as_ptr() as usize,
            FlatVec::Bf16(v) => v.as_ptr() as usize,
        }
    }

    /// Element at `i`, widened to f32 (exact for both precisions).
    pub fn get_f32(&self, i: usize) -> f32 {
        match self {
            FlatVec::F32(v) => v[i],
            FlatVec::Bf16(v) => widen(v[i]),
        }
    }

    /// Widens the whole buffer into `out` (resized to match). For f32
    /// buffers this is a plain copy.
    pub fn widen_into(&self, out: &mut Vec<f32>) {
        out.clear();
        match self {
            FlatVec::F32(v) => out.extend_from_slice(v),
            FlatVec::Bf16(v) => {
                out.resize(v.len(), 0.0);
                widen_slice(v, out);
            }
        }
    }
}

/// A borrowed flat buffer in one of the two storage precisions: a
/// [`FlatVec`]'s contents, or an f32 model's own parameters read where they
/// live. What a model import, a blend and an LSH rebuild read, so one path
/// serves both precisions without the f32 side being copied first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlatRef<'a> {
    /// f32 storage.
    F32(&'a [f32]),
    /// bf16 storage (raw bit patterns).
    Bf16(&'a [u16]),
}

impl FlatRef<'_> {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            FlatRef::F32(v) => v.len(),
            FlatRef::Bf16(v) => v.len(),
        }
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> From<&'a FlatVec> for FlatRef<'a> {
    fn from(v: &'a FlatVec) -> Self {
        v.view()
    }
}

// ---------------------------------------------------------------------------
// Scalar conversions — the executable spec for both SIMD paths.
// ---------------------------------------------------------------------------

/// Widens a stored bf16 bit pattern to f32. Exact: the 16 bits become the
/// upper half of the f32, the mantissa tail is zero.
#[inline(always)]
pub fn widen(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Narrows an f32 to bf16 with round-to-nearest-even; NaNs are quieted
/// (quiet bit forced) so a payload can never be truncated to an infinity
/// bit pattern. This is the *only* rounding operation of the bf16 tier.
#[inline(always)]
pub fn narrow(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Keep the sign and the top payload bits, force the quiet bit.
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round to nearest even: add 0x7FFF plus the parity of the result LSB.
    let lsb = (bits >> 16) & 1;
    ((bits.wrapping_add(0x7FFF + lsb)) >> 16) as u16
}

// ---------------------------------------------------------------------------
// Vectorized slice conversions: AVX2 leaf functions with portable twins,
// following the kernels.rs multiversioning pattern and dispatched by its one
// detection function (the leaves need only AVX2; asking the kernels' AVX2+FMA
// question keeps one site for `force_portable` to govern). These leaves are
// intrinsics bodies — different code from the scalar loops, not recompilations
// of them. Both paths run the identical per-element integer manipulation, so
// they are bit-equal.
// ---------------------------------------------------------------------------

/// `out[i] = widen(src[i])`. Panics if lengths differ.
pub fn widen_slice(src: &[u16], out: &mut [f32]) {
    assert_eq!(src.len(), out.len(), "widen_slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::kernels::avx2_fma_available() {
        // SAFETY: AVX2 support was just verified; lengths match.
        unsafe { widen_slice_avx2(src, out) };
        return;
    }
    widen_slice_portable(src, out);
}

/// `out[i] = narrow(src[i])`. Panics if lengths differ.
pub fn narrow_slice(src: &[f32], out: &mut [u16]) {
    assert_eq!(src.len(), out.len(), "narrow_slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::kernels::avx2_fma_available() {
        // SAFETY: AVX2 support was just verified; lengths match.
        unsafe { narrow_slice_avx2(src, out) };
        return;
    }
    narrow_slice_portable(src, out);
}

#[inline(always)]
fn widen_slice_portable(src: &[u16], out: &mut [f32]) {
    for (o, &b) in out.iter_mut().zip(src) {
        *o = widen(b);
    }
}

#[inline(always)]
fn narrow_slice_portable(src: &[f32], out: &mut [u16]) {
    for (o, &x) in out.iter_mut().zip(src) {
        *o = narrow(x);
    }
}

/// Widens eight stored bf16 lanes to f32 — the vector twin of [`widen`]
/// (zero-extend, shift into the high halves). Register-only, like the three
/// helpers after it: a safe function that the AVX2 leaves below may call,
/// and nothing without the feature can.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn widen_lanes_avx2(half: std::arch::x86_64::__m128i) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(half), 16))
}

/// Narrows eight f32 lanes to eight bf16 values held in 32-bit lanes
/// (each `< 2^16`) — the vector twin of [`narrow`]: the same
/// RNE-with-NaN-quieting formula on eight lanes of integer math
/// (`(bits + 0x7FFF + lsb) >> 16`, NaN lanes replaced by
/// `(bits >> 16) | quiet`). Callers pack to u16 themselves so the 16-wide
/// loops can pack two results with a single `packus`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn narrow_lanes32_avx2(v: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let bits = _mm256_castps_si256(v);
    // RNE: bits + 0x7FFF + ((bits >> 16) & 1).
    let lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16), _mm256_set1_epi32(1));
    let bias = _mm256_add_epi32(_mm256_set1_epi32(0x7FFF), lsb);
    let rounded = _mm256_srli_epi32(_mm256_add_epi32(bits, bias), 16);
    // NaN lanes (v != v): (bits >> 16) | quiet.
    let nan_mask = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
    let quieted = _mm256_or_si256(_mm256_srli_epi32(bits, 16), _mm256_set1_epi32(0x0040));
    _mm256_blendv_epi8(rounded, quieted, nan_mask)
}

/// Packs eight narrowed lanes ([`narrow_lanes32_avx2`]) into eight u16s in
/// the low 128 bits.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn narrow_lanes_avx2(v: std::arch::x86_64::__m256) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let packed = _mm256_packus_epi32(narrow_lanes32_avx2(v), _mm256_setzero_si256());
    _mm256_castsi256_si128(_mm256_permute4x64_epi64::<0b00_00_10_00>(packed))
}

/// Packs two [`narrow_lanes32_avx2`] results (16 values in order `lo`,
/// `hi`) into sixteen u16s. `packus` interleaves 128-bit halves, so one
/// lane-crossing permute restores element order.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn pack16_avx2(
    lo: std::arch::x86_64::__m256i,
    hi: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packus_epi32(lo, hi))
}

/// AVX2 clone of [`widen_slice_portable`]. Pure integer ops — bit-equal to
/// the scalar path on every input.
///
/// # Safety
/// Caller must have verified AVX2 support and `src.len() == out.len()`: the
/// loops guard every access at `i` by `i + width <= n`, one slice's length.
#[cfg(target_arch = "x86_64")]
#[inline(never)] // keep the feature boundary opaque, as in kernels.rs
#[target_feature(enable = "avx2")]
unsafe fn widen_slice_avx2(src: &[u16], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let mut i = 0;
    // 16-wide main loop: one full 32-byte load feeds two independent
    // widen/store chains (better ILP than half-register loads).
    while i + 16 <= n {
        let h = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
        let lo = _mm256_castsi256_si128(h);
        let hi = _mm256_extracti128_si256::<1>(h);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), widen_lanes_avx2(lo));
        _mm256_storeu_ps(out.as_mut_ptr().add(i + 8), widen_lanes_avx2(hi));
        i += 16;
    }
    while i + 8 <= n {
        let half = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), widen_lanes_avx2(half));
        i += 8;
    }
    widen_slice_portable(&src[i..], &mut out[i..]);
}

/// AVX2 clone of [`narrow_slice_portable`].
///
/// # Safety
/// As [`widen_slice_avx2`]: AVX2 verified, `src.len() == out.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
unsafe fn narrow_slice_avx2(src: &[f32], out: &mut [u16]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let mut i = 0;
    // 16-wide main loop: two 8-lane narrows share one `packus` + permute
    // and one full 32-byte store (the 8-wide epilogue wastes half of both).
    while i + 16 <= n {
        let lo = narrow_lanes32_avx2(_mm256_loadu_ps(src.as_ptr().add(i)));
        let hi = narrow_lanes32_avx2(_mm256_loadu_ps(src.as_ptr().add(i + 8)));
        _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, pack16_avx2(lo, hi));
        i += 16;
    }
    while i + 8 <= n {
        let v = _mm256_loadu_ps(src.as_ptr().add(i));
        _mm_storeu_si128(
            out.as_mut_ptr().add(i) as *mut __m128i,
            narrow_lanes_avx2(v),
        );
        i += 8;
    }
    narrow_slice_portable(&src[i..], &mut out[i..]);
}

// ---------------------------------------------------------------------------
// The element trait the collective algorithms are generic over.
// ---------------------------------------------------------------------------

/// A storage element the all-reduce algorithms can run on: f32 (the
/// original path, bit-for-bit) or bf16 bits (`u16`, widening to f32 per
/// the rounding contract above: widen → one f32 op → narrow, one round
/// point per stored result). The element ops are single multiplies and
/// adds — never an FMA-contractable pair — so every build and every
/// vector width computes the same bits.
pub trait ReduceElem:
    crate::kernels::Widen + Copy + Send + Sync + std::fmt::Debug + PartialEq + 'static
{
    /// Bytes per stored element — drives every byte/time accounting line.
    const BYTES: usize;
    /// The stored zero (all-zero bits in both encodings).
    const ZERO: Self;
    /// `out[i] = round(src[i])`: f32 values into this storage type — a copy
    /// for f32, the one round point of [`narrow_slice`] for bf16.
    fn narrow_slice(src: &[f32], out: &mut [Self]);
    /// `round(x)`: one f32 value into this storage type — the element of
    /// [`narrow_slice`](Self::narrow_slice).
    fn round(x: f32) -> Self;
    /// `round(self + other)`, operands in this order: a collective's add.
    fn plus(self, other: Self) -> Self;
    /// `round(self * a)`: a merge weight's pre-scale.
    fn times(self, a: f32) -> Self;
    /// `Σ widen(x)²` in f64 ([`crate::kernels::sum_sq_lanes`]).
    fn sum_sq(xs: &[Self]) -> f64;
    /// `flat`'s elements, if it stores this type.
    fn slice(flat: &FlatVec) -> Option<&[Self]>;
    /// `flat`'s elements, mutably, if it stores this type.
    fn slice_mut(flat: &mut FlatVec) -> Option<&mut [Self]>;
}

impl ReduceElem for f32 {
    const BYTES: usize = 4;
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn narrow_slice(src: &[f32], out: &mut [f32]) {
        out.copy_from_slice(src);
    }
    #[inline(always)]
    fn round(x: f32) -> f32 {
        x
    }
    #[inline(always)]
    fn plus(self, other: f32) -> f32 {
        self + other
    }
    #[inline(always)]
    fn times(self, a: f32) -> f32 {
        self * a
    }
    fn sum_sq(xs: &[f32]) -> f64 {
        crate::kernels::sum_sq_lanes(xs)
    }
    fn slice(flat: &FlatVec) -> Option<&[f32]> {
        match flat {
            FlatVec::F32(v) => Some(v),
            FlatVec::Bf16(_) => None,
        }
    }
    fn slice_mut(flat: &mut FlatVec) -> Option<&mut [f32]> {
        match flat {
            FlatVec::F32(v) => Some(v),
            FlatVec::Bf16(_) => None,
        }
    }
}

/// `u16` carries bf16 bit patterns (as in [`FlatVec::Bf16`]).
impl ReduceElem for u16 {
    const BYTES: usize = 2;
    const ZERO: u16 = 0;
    #[inline(always)]
    fn narrow_slice(src: &[f32], out: &mut [u16]) {
        narrow_slice(src, out);
    }
    #[inline(always)]
    fn round(x: f32) -> u16 {
        narrow(x)
    }
    #[inline(always)]
    fn plus(self, other: u16) -> u16 {
        narrow(widen(self) + widen(other))
    }
    #[inline(always)]
    fn times(self, a: f32) -> u16 {
        narrow(widen(self) * a)
    }
    fn sum_sq(xs: &[u16]) -> f64 {
        crate::kernels::sum_sq_lanes(xs)
    }
    fn slice(flat: &FlatVec) -> Option<&[u16]> {
        match flat {
            FlatVec::Bf16(v) => Some(v),
            FlatVec::F32(_) => None,
        }
    }
    fn slice_mut(flat: &mut FlatVec) -> Option<&mut [u16]> {
        match flat {
            FlatVec::Bf16(v) => Some(v),
            FlatVec::F32(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference narrow via f64 rounding-free reconstruction: compare each
    /// candidate against the exact value and pick nearest, ties to even.
    fn narrow_spec(x: f32) -> u16 {
        if x.is_nan() {
            return ((x.to_bits() >> 16) as u16) | 0x0040;
        }
        let lo = (x.to_bits() >> 16) as u16;
        let hi = lo.wrapping_add(1);
        let (wl, wh) = (widen(lo), widen(hi));
        if wl == x {
            return lo;
        }
        // When `hi` lands on the infinity bit pattern, RNE compares against
        // the *unbounded* next value 2^128 (exact in f64), not f64 infinity.
        let wh64 = if wh.is_infinite() {
            (2.0f64).powi(128).copysign(wh as f64)
        } else {
            wh as f64
        };
        let (dl, dh) = ((x as f64 - wl as f64).abs(), (wh64 - x as f64).abs());
        if dl < dh || (dl == dh && lo & 1 == 0) {
            lo
        } else {
            hi
        }
    }

    #[test]
    fn widen_is_exact_shift() {
        for b in [0u16, 1, 0x3F80, 0x7F80, 0x8000, 0xFF80, 0xABCD] {
            assert_eq!(widen(b).to_bits(), (b as u32) << 16);
        }
        assert_eq!(widen(0x3F80), 1.0);
        assert_eq!(widen(0xBF80), -1.0);
        assert!(widen(0x7F80).is_infinite());
    }

    #[test]
    fn narrow_matches_spec_on_edges() {
        let edges: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0,     // subnormal
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x0000_8000), // subnormal tie point
            f32::from_bits(0x3F80_8000), // tie between 1.0 and next bf16
            f32::from_bits(0x3F81_8000), // tie, odd lower candidate
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling NaN, small payload
            f32::from_bits(0xFFC0_1234), // quiet NaN with payload
            3.402e38,                    // near-overflow rounding
        ];
        for x in edges {
            assert_eq!(
                narrow(x),
                narrow_spec(x),
                "narrow({:?} = {:#010x})",
                x,
                x.to_bits()
            );
        }
    }

    #[test]
    fn narrow_never_turns_nan_into_inf() {
        for payload in [1u32, 0x7FFF, 0x8000, 0x3FFFFF] {
            let x = f32::from_bits(0x7F80_0000 | payload);
            let b = widen(narrow(x));
            assert!(b.is_nan(), "payload {payload:#x} collapsed to {b}");
        }
    }

    #[test]
    fn simd_matches_portable_on_edge_values() {
        // Dense sweep over all u16 bit patterns (widen), plus targeted f32
        // edge patterns (narrow): ties, subnormals, NaN payloads, ±inf.
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let mut wide = vec![0.0f32; all.len()];
        let mut wide_p = vec![0.0f32; all.len()];
        widen_slice(&all, &mut wide);
        widen_slice_portable(&all, &mut wide_p);
        for i in 0..all.len() {
            assert_eq!(
                wide[i].to_bits(),
                wide_p[i].to_bits(),
                "widen {:#06x}",
                all[i]
            );
        }

        let mut narrows: Vec<f32> = Vec::new();
        for hi in 0..=u16::MAX {
            narrows.push(f32::from_bits((hi as u32) << 16 | 0x8000)); // tie
            narrows.push(f32::from_bits((hi as u32) << 16 | 0x7FFF)); // below tie
        }
        let mut got = vec![0u16; narrows.len()];
        let mut want = vec![0u16; narrows.len()];
        narrow_slice(&narrows, &mut got);
        narrow_slice_portable(&narrows, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn flatvec_default_is_takeable_empty_f32() {
        let mut v = FlatVec::Bf16(vec![1, 2, 3]);
        let taken = std::mem::take(&mut v);
        assert_eq!(taken.len(), 3);
        assert_eq!(v, FlatVec::F32(Vec::new()));
        assert_eq!(v.byte_len(), 0);
    }

    #[test]
    fn precision_env_parse() {
        // The parser on strings (env mutation would race other tests).
        assert_eq!(Precision::default(), Precision::F32);
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::Bf16.bytes(), 2);
        assert_eq!(Precision::Bf16.name(), "bf16");
        assert_eq!("f32".parse(), Ok(Precision::F32));
        assert_eq!(" BF16 ".parse(), Ok(Precision::Bf16));
        for bad in ["fp16", "", "bf16x", "16"] {
            let e = bad.parse::<Precision>().unwrap_err();
            assert!(
                e.contains("ASGD_PRECISION") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
        }
    }

    proptest! {
        /// Round-trip idempotence: one narrow is a fixed point — narrowing
        /// an already-narrowed value changes nothing.
        #[test]
        fn narrow_widen_roundtrip_is_idempotent(bits in 0u32..=u32::MAX) {
            let x = f32::from_bits(bits);
            let b = narrow(x);
            prop_assert_eq!(narrow(widen(b)), b);
        }

        /// The integer formula matches the comparison-based spec on random
        /// bit patterns (covers every exponent/mantissa class proptest
        /// finds, including subnormals and NaNs).
        #[test]
        fn narrow_matches_spec(bits in 0u32..=u32::MAX) {
            let x = f32::from_bits(bits);
            prop_assert_eq!(narrow(x), narrow_spec(x));
        }

        /// SIMD and portable slice paths agree bit-for-bit on arbitrary
        /// slices (length crosses the 8-lane boundary and the remainder).
        #[test]
        fn slice_paths_bit_equal(raw in proptest::collection::vec(0u32..=u32::MAX, 0..=63)) {
            let xs: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
            let mut a = vec![0u16; xs.len()];
            let mut b = vec![0u16; xs.len()];
            narrow_slice(&xs, &mut a);
            narrow_slice_portable(&xs, &mut b);
            prop_assert_eq!(&a, &b);
            let mut wa = vec![0.0f32; xs.len()];
            let mut wb = vec![0.0f32; xs.len()];
            widen_slice(&a, &mut wa);
            widen_slice_portable(&b, &mut wb);
            let ba: Vec<u32> = wa.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u32> = wb.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(ba, bb);
        }
    }
}
