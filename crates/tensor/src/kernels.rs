//! SIMD-lane blocked micro-kernels and the deterministic reduction contract.
//!
//! Every dense/sparse matmul in this workspace is built from the blocked
//! micro-kernels in this module, written in stable Rust. The wide-output
//! kernels pack `B` into contiguous `NB`-float column panels (a bit-for-bit
//! copy, [`with_b_panel`]) and reduce them in `MR × NR` register tiles.
//!
//! # One tile family
//!
//! The row-streaming products — `gemm`, `gemm_bias{,_relu}`, `gemm_tn`,
//! `gemm_nn_gather`, the packed top-k — share one family of functions,
//! `tile` / `tail` / `rows_panel` / `group_panel`, generic over *how
//! an `M`-row group fetches its `M` scalars of `A` for reduction step `kk`*
//! (`AGroup::step`): rows of a row-major `A` (`Rows`) or columns of a
//! `k×m` `A` (`Cols`, `gemm_tn`). Nothing else differs between `A·B` and
//! `Aᵀ·B`, so nothing else is written twice. The accessor is a monomorphized
//! trait, resolved at compile time.
//!
//! What a finished tile becomes is the family's one other parameter, a
//! `Finish`: **Store** writes `C` through the epilogue (every GEMM,
//! `chunk_panel`), **Select** offers the logits `s + bias[j]` to per-row
//! top-k lists (`topk_rows_packed`). Both finish the same tile loop; on
//! AVX2 hosts both finish it in registers (`store_avx2`, `select_avx2`).
//!
//! # One ISA dispatch, and the FMA-spelling rule
//!
//! On `x86_64` every hot inner loop has a **leaf function** compiled with
//! `#[target_feature(enable = "avx2,fma")]` (stable function
//! multiversioning), taken when [`avx2_fma_available`] says so — the one
//! function in the workspace that asks the CPU, shared with [`crate::bf16`]
//! and `asgd-sparse`, and the one [`force_portable`] turns off. A leaf is
//! one of two things:
//!
//! * an **intrinsics body** (`tile_avx2`, `tail_avx2`, `nt_chunk_avx2`,
//!   `transpose_block_avx2`, the bf16 conversions): different code from its
//!   portable twin — named `__m256` accumulators the register allocator
//!   keeps in ymm registers, ~2× the autovectorized loop, or register
//!   shuffles no scalar loop spells — which is why those stay written out;
//! * a **one-line call** of a shared `#[inline(always)]` body
//!   (`panel_strided_body`, `asgd-sparse`'s `spmm_row_body`)
//!   that takes its fused multiply-add as a parameter. The portable path
//!   passes [`fused`]; the leaf passes [`f32::mul_add`]. No loop is written
//!   twice for ISA reasons.
//!
//! `mul_add` may only ever be instantiated *inside* a leaf: it lowers to
//! `llvm.fma`, and when that intrinsic ends up in a function *without* the
//! `fma` feature, (Thin)LTO's vector legalization **splits it into a
//! separate multiply and add**, silently double-rounding. An
//! `#[inline(always)]` body has no code of its own — it exists only inlined
//! into its caller, so the instance that names `mul_add` exists only inside
//! the `#[target_feature]` leaf and gets hardware FMA codegen, while the
//! instance on the portable path calls [`fused`], whose libm `fmaf` is
//! opaque to the optimizer and cannot be split. The leaves themselves are
//! `#[inline(never)]`: LLVM must not blend them into feature-less callers.
//! Both paths perform the *identical* per-element IEEE-754 operation
//! sequence, so the numeric contract below holds on every host and every
//! dispatch path (`ops::tests::avx2_leaves_and_portable_twins_agree_bit_for_bit`
//! and its siblings in `asgd-sparse` / `asgd-model` compare them in-process).
//!
//! # The lane-width-8 reduction contract
//!
//! Results are a **pure function of the inputs**: no kernel's output depends
//! on `ASGD_THREADS`, on how the worker pool partitions rows, or on which
//! micro-kernel path (full tile vs remainder) computed an element. Two rules
//! pin the floating-point association order:
//!
//! 1. **Row-streaming kernels** (`gemm` NN, `gemm_tn`, CSR `spmm`): the
//!    SIMD lanes span the *output row* (`j`), which is not a reduction axis,
//!    so each output element accumulates its `k` (or CSR-nonzero) terms one
//!    at a time, in ascending order, each term applied as a **fused
//!    multiply-add** (`acc = fma(a, b, acc)`, a single rounding per term).
//!    The portable path computes this with [`fused`] — correctly rounded on
//!    every platform, by libm call where hardware FMA is absent — and the
//!    AVX2 path with `_mm256_fmadd_ps` / `vfmadd`; both produce the same bits.
//!    Blocking and packing change where operands live, never the
//!    association — K blocking included: a reduction longer than [`KC`]
//!    stops after each block with its partial sums stored as `f32` (an
//!    exact round trip) and the next block resumes them ([`gemm_chunk`]).
//! 2. **Dot-product kernels** (`gemm_nt` and [`dot_lanes`]): the reduction
//!    axis itself is vectorized, with separate multiply and add per term.
//!    Term `t` (0-based) is accumulated into lane `t % LANES`; the tail
//!    (`k % LANES` terms) lands in lanes `0..k % LANES`. The 8 lanes are
//!    then reduced by the fixed binary tree
//!    `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))` — see [`lane_tree`]. The
//!    AVX2 tile folds eight such dots at once: an 8 × 8 register transpose,
//!    then the same tree as vertical adds (`nt_tile_avx2`).
//!
//! Both rules differ from the naive serial mul-then-add summation the
//! pre-blocking kernels used (each is a different but equally deterministic
//! association), which is why golden artifacts were regenerated when this
//! layer landed.
//!
//! # The unified epilogue
//!
//! All GEMM variants share one epilogue, applied **once per element after
//! the full reduction** (see [`Epilogue::apply`]):
//!
//! ```text
//! AlphaBeta: out = alpha·s            (beta == 0: c_in is ignored, may be garbage)
//!            out = alpha·s + beta·c_in  (otherwise; beta == 1 is not special-cased —
//!                                        1.0·c_in == c_in bit-for-bit)
//! Bias:      out = s + bias[j]
//! BiasRelu:  out = max(s + bias[j], 0) (computed as `if v < 0.0 { 0.0 } else { v }`,
//!                                        so -0.0 and NaN pass through unchanged)
//! ```
//!
//! This replaces the pre-scaling epilogues the scalar kernels used (`gemm`/
//! `gemm_tn` scaled the output chunk by `beta` up front and accumulated
//! `alpha`-scaled terms; `gemm_nt` evaluated `beta * c` per element) — one
//! documented rule instead of three ad-hoc ones.
//!
//! # One `exp`
//!
//! The softmax ([`crate::numerics::softmax_rows_inplace`]) computes
//! [`exp_f32`], defined here — glibc's `expf` algorithm, transcribed — and
//! not the platform's `f32::exp`; its AVX2 leaf runs the same steps eight
//! lanes wide ([`exp_avx2`]). On a glibc host all three are bit-equal on
//! every `f32`, which an exhaustive (ignored, `ci.sh`-run) test checks.

// Micro-kernels take their whole addressing context (matrix pointers, leading
// dimensions, chunk offsets) as scalars — more than clippy's argument budget.
#![allow(clippy::too_many_arguments)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    /// Per-thread scratch for packed `B` panels ([`with_b_panel`]). Grows to
    /// `k × NB` floats (plus [`PANEL_ALIGN`] of slack) on first use and is
    /// then reused — the training hot path stays allocation-free after
    /// warmup.
    static PANEL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Byte alignment of every packed panel: one cache line. The allocator only
/// promises 16, and *which* 16 a thread's scratch lands on depends on the
/// malloc arena it was handed — a lottery every short-lived thread (a serving
/// worker lives for one `serve` call) draws again. The panel kernels' 32-byte
/// loads split a cache line at every other step when the base is 16 or 48
/// mod 64; measured on the packed top-k path that is 6–13 % of its time,
/// differing from thread to thread and run to run (EXPERIMENTS.md). Starting
/// the panel on a line takes the draw out.
const PANEL_ALIGN: usize = 64;

/// Empties `buf`, reserves `len` floats behind the first [`PANEL_ALIGN`]
/// boundary of its storage and pads up to that boundary. Returns the pad
/// length: the panel is `buf[pad..]` once `len` floats have been appended,
/// which the reservation guarantees happens without moving the storage.
#[inline(always)]
fn pad_to_panel_align(buf: &mut Vec<f32>, len: usize) -> usize {
    buf.clear();
    buf.reserve(len + PANEL_ALIGN / 4);
    let pad = (buf.as_ptr() as usize).wrapping_neg() % PANEL_ALIGN / 4;
    buf.resize(pad, 0.0);
    pad
}

/// The rows of `B` a row-streaming product reduces over, in reduction order.
#[derive(Clone, Copy)]
pub(crate) enum BRows<'a> {
    /// Rows `0..k` — the plain products.
    All(usize),
    /// Rows `idx[0], idx[1], …` — the gathered products of the sampled
    /// softmax.
    Gathered(&'a [u32]),
    /// Rows `0..k` of a `B` stored transposed: `b` holds `Bᵀ`, `n` rows of
    /// `stride` elements, and row `kk` of `B` is column `kk` of it — the
    /// class-major `W₂` of the dense forward and the serving top-k.
    Transposed { k: usize, stride: usize },
}

impl<'a> BRows<'a> {
    /// The reduction length.
    fn len(self) -> usize {
        match self {
            BRows::All(k) | BRows::Transposed { k, .. } => k,
            BRows::Gathered(idx) => idx.len(),
        }
    }

    /// Reduction steps `k0..k1` of these rows of the `n`-wide `b`: the rows
    /// and the `b` they index — `b`'s rows `k0..k1` as all of a slice, the
    /// same `b` under `idx[k0..k1]`, or `Bᵀ` from its column `k0` on.
    fn block<'b>(self, b: &'b [f32], n: usize, k0: usize, k1: usize) -> (&'b [f32], BRows<'a>) {
        match self {
            BRows::All(_) => (&b[k0 * n..k1 * n], BRows::All(k1 - k0)),
            BRows::Gathered(idx) => (b, BRows::Gathered(&idx[k0..k1])),
            BRows::Transposed { stride, .. } => {
                (&b[k0..], BRows::Transposed { k: k1 - k0, stride })
            }
        }
    }
}

/// Runs `f` on the `w`-wide panel of `rows` of `B` at column `j0`, packed
/// contiguously: panel row `kk` lives at `kk * w` and holds columns
/// `j0..j0 + w` of the `kk`-th row of `rows`. When the panel spans all of an
/// ungathered `B` (`w == n`, which implies `j0 == 0`), `B` itself is already
/// in packed layout and is passed through without copying; gathered rows
/// are never contiguous in `B`, so their panel is always materialized, and
/// a transposed `B` is packed by [`transpose_block`] (its `w` rows, columns
/// `0..k`, into the panel's `k` rows).
///
/// Packing copies element bits verbatim, so it cannot affect the reduction
/// contract, and running any panel kernel on a gathered panel is
/// bit-identical to running it on a fully materialized gather of `B`. It
/// exists purely for locality: the strided panel rows of a wide `B`
/// (consecutive `kk` rows sit `n × 4` bytes apart, which defeats the
/// hardware prefetcher) are gathered once per *chunk* and then streamed
/// sequentially by every `MR`-row group, instead of paying the strided walk
/// once per row group.
#[inline(always)]
fn with_b_panel<R>(
    b: &[f32],
    n: usize,
    rows: BRows,
    j0: usize,
    w: usize,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    if matches!(rows, BRows::All(_)) && w == n {
        return f(b);
    }
    PANEL_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let pad = pad_to_panel_align(&mut buf, rows.len() * w);
        let mut pack = |row: usize| buf.extend_from_slice(&b[row * n + j0..row * n + j0 + w]);
        match rows {
            BRows::All(k) => (0..k).for_each(&mut pack),
            BRows::Gathered(idx) => idx.iter().for_each(|&row| pack(row as usize)),
            BRows::Transposed { k, stride } => {
                buf.resize(pad + k * w, 0.0);
                transpose_block(&b[j0 * stride..], w, stride, &mut buf[pad..]);
            }
        }
        f(&buf[pad..])
    })
}

/// SIMD lane width of the kernel contract: accumulator tiles are
/// `[f32; LANES]` wide and dot-product reductions run `LANES` partial sums.
pub const LANES: usize = 8;

/// Rows per block in the row-streaming kernels: `MR` output rows share one
/// pass over the streamed `B` panel, cutting `B` traffic `MR`-fold.
pub const MR: usize = 4;

/// Column-panel width (in `f32` elements) of the row-streaming kernels: the
/// `MR × NB` accumulator panel lives on the stack (hot in L1) while `B` is
/// streamed through it in contiguous `NB`-float runs. A multiple of
/// [`LANES`]; the `w = min(NB, n - j0)` tail handles any output width.
pub const NB: usize = 256;

/// Columns (`B` rows) per rule-2 register tile of the `gemm_nt` dot kernel:
/// one 8-lane accumulator each, folded together by one 8 × 8 transpose
/// ([`nt_tile_avx2`]).
const NT_JB: usize = LANES;

/// Largest `k` the streaming top-k kernel ([`crate::ops::gemm_bias_topk`])
/// accepts: the per-row selection list lives on the stack.
pub const TOPK_STREAM_MAX: usize = 32;

/// The shared GEMM epilogue — see the module docs for the exact formulas.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// `out = alpha·s + beta·c_in` (`beta == 0` ignores `c_in` entirely).
    AlphaBeta {
        /// Scale of the reduction result.
        alpha: f32,
        /// Scale of the prior output value.
        beta: f32,
    },
    /// `out = s + bias[j]` — fused bias add (forward logits).
    Bias(&'a [f32]),
    /// `out = relu(s + bias[j])` — fused bias + activation (forward hidden).
    BiasRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// Applies the epilogue to one element: `s` is the finished reduction,
    /// `c_in` the prior value of the output element, `j` its column.
    #[inline(always)]
    pub fn apply(&self, j: usize, s: f32, c_in: f32) -> f32 {
        match *self {
            Epilogue::AlphaBeta { alpha, beta } => {
                if beta == 0.0 {
                    alpha * s
                } else {
                    alpha * s + beta * c_in
                }
            }
            Epilogue::Bias(bias) => s + bias[j],
            Epilogue::BiasRelu(bias) => {
                let v = s + bias[j];
                if v < 0.0 {
                    0.0
                } else {
                    v
                }
            }
        }
    }
}

/// The fixed lane-reduction tree of the contract:
/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`.
#[inline(always)]
pub fn lane_tree(acc: [f32; LANES]) -> f32 {
    let s04 = acc[0] + acc[4];
    let s15 = acc[1] + acc[5];
    let s26 = acc[2] + acc[6];
    let s37 = acc[3] + acc[7];
    (s04 + s26) + (s15 + s37)
}

/// Lane-tree dot product: term `t` goes to lane `t % LANES`, the tail to
/// lanes `0..len % LANES`, then [`lane_tree`] folds the lanes.
///
/// # Panics
/// Panics when lengths differ.
#[inline(always)]
pub fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_lanes length mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (av, bv) in ac.by_ref().zip(bc.by_ref()) {
        for l in 0..LANES {
            acc[l] += av[l] * bv[l];
        }
    }
    for (l, (&av, &bv)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        acc[l] += av * bv;
    }
    lane_tree(acc)
}

/// `Σ x²` over `xs` (f32, or bf16 widened exactly), widened to `f64`, in
/// `LANES` independent partial sums — element `t` into lane `t % LANES`,
/// the tail into lanes `0..len % LANES` — folded in [`lane_tree`]'s fixed
/// order. A pure function of `xs`, like every reduction here; it differs
/// from the serial chain only in association (relative error far below
/// `1e-12` for the model sizes this workspace trains), and runs `LANES`
/// adds in flight instead of one. Each square is exact in `f64` (24
/// significand bits squared fit in 53), so only the adds round.
pub fn sum_sq_lanes<E: Widen>(xs: &[E]) -> f64 {
    let mut acc = SqLanes::default();
    acc.add(xs);
    acc.sum()
}

/// [`sum_sq_lanes`] of one sequence fed in runs: the lane position carries
/// from run to run, so element `t` of the whole sequence lands in lane
/// `t % LANES` wherever the runs are cut, and [`SqLanes::sum`] is bit for
/// bit `sum_sq_lanes` of the runs laid end to end. Runs may mix f32 and
/// bf16 elements — a model read partly from a bf16 base and partly from
/// f32 rows of its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct SqLanes {
    acc: [f64; LANES],
    /// Elements added so far, modulo `LANES`: the lane of the next one.
    at: usize,
}

impl SqLanes {
    /// Adds the next run of the sequence.
    #[inline(always)]
    pub fn add<E: Widen>(&mut self, xs: &[E]) {
        // Up to the next lane-0 boundary one by one, then whole lane rows.
        let head = ((LANES - self.at) % LANES).min(xs.len());
        let (head, body) = xs.split_at(head);
        for &x in head {
            let x = f64::from(x.widen());
            self.acc[self.at] += x * x;
            self.at += 1;
        }
        self.at %= LANES;
        let mut chunks = body.chunks_exact(LANES);
        for c in chunks.by_ref() {
            for (a, &x) in self.acc.iter_mut().zip(c) {
                let x = f64::from(x.widen());
                *a += x * x;
            }
        }
        for (a, &x) in self.acc.iter_mut().zip(chunks.remainder()) {
            let x = f64::from(x.widen());
            *a += x * x;
        }
        self.at = (self.at + chunks.remainder().len()) % LANES;
    }

    /// The lanes folded in [`lane_tree`]'s order.
    pub fn sum(&self) -> f64 {
        let acc = &self.acc;
        ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
    }
}

/// `dst[l] += s * src[l]`, unrolled in `LANES`-wide blocks. Element-wise
/// (one multiply + one add per element, independent across elements), so it
/// is bit-identical to the scalar loop it replaces.
///
/// # Panics
/// Panics when lengths differ.
#[inline(always)]
pub fn axpy_lanes(s: f32, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "axpy_lanes length mismatch");
    let mut sc = src.chunks_exact(LANES);
    let mut dc = dst.chunks_exact_mut(LANES);
    for (sv, dv) in sc.by_ref().zip(dc.by_ref()) {
        for l in 0..LANES {
            dv[l] += s * sv[l];
        }
    }
    for (&sv, dv) in sc.remainder().iter().zip(dc.into_remainder()) {
        *dv += s * sv;
    }
}

/// Columns per register tile of the row-streaming kernels: an `MR × NR`
/// accumulator block (`MR` rows × two 8-lane vectors) fits the 16 SIMD
/// registers of AVX2 with room for the `B` loads and the `A` broadcast, so
/// the k-loop runs with **zero** accumulator memory traffic.
pub(crate) const NR: usize = 16;

/// Set by [`force_portable`]: [`avx2_fma_available`] answers "no".
static PORTABLE_ONLY: AtomicBool = AtomicBool::new(false);

/// In-process override of the AVX2+FMA detection: while `on`, every kernel
/// dispatch in the workspace — this module, [`crate::bf16`], `asgd-sparse` —
/// takes its portable path. Test-only, like
/// [`crate::parallel::override_threads`] — lets one process run the
/// `#[target_feature]` leaves and the portable paths on the same inputs and
/// compare bits, on the one host CI has.
#[doc(hidden)]
pub fn force_portable(on: bool) {
    PORTABLE_ONLY.store(on, Ordering::Relaxed);
}

/// The workspace's one ISA question: may this call take an AVX2+FMA leaf?
/// Every dispatch site (here, in [`crate::bf16`] and in `asgd-sparse`) asks
/// this function and nothing else, so [`force_portable`] reaches all of
/// them. The runtime check is cached by std (atomic loads after the first
/// call); always `false` off `x86_64`, where no leaf exists.
#[inline(always)]
pub fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !PORTABLE_ONLY.load(Ordering::Relaxed)
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The contract's fused multiply-add, guaranteed correctly rounded on every
/// host and in every build profile: `fused(a, b, acc) = fma(a, b, acc)`
/// with a single rounding.
///
/// Portable (non-`#[target_feature]`) code must use this instead of
/// [`f32::mul_add`]: `mul_add` lowers to `llvm.fma`, and when the enclosing
/// function lacks hardware-FMA target features, LLVM's x86 vector
/// legalization (observed under ThinLTO) *splits* the vectorized intrinsic
/// into a separate multiply and add — silently double-rounding. Routing
/// through libm's `fmaf`, an extern call the optimizer cannot look through,
/// pins the single-rounding result. On targets where FMA is baseline
/// (aarch64) or statically enabled, `mul_add` compiles to the hardware
/// instruction and is used directly.
#[inline(always)]
pub fn fused(a: f32, b: f32, acc: f32) -> f32 {
    #[cfg(any(target_arch = "aarch64", target_feature = "fma"))]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(any(target_arch = "aarch64", target_feature = "fma")))]
    {
        extern "C" {
            fn fmaf(a: f32, b: f32, c: f32) -> f32;
        }
        // SAFETY: libm's `fmaf` is a pure function, total over all f32s.
        unsafe { fmaf(a, b, acc) }
    }
}

/// [`fused`] one width up: `fma(a, b, acc)` in `f64` with a single
/// rounding, on every host and in every build profile, by the same rule
/// (libm's `fma`, an opaque call, where the build has no static FMA). The
/// fused reduction step of [`exp_f32`].
#[inline(always)]
fn fused_f64(a: f64, b: f64, acc: f64) -> f64 {
    #[cfg(any(target_arch = "aarch64", target_feature = "fma"))]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(any(target_arch = "aarch64", target_feature = "fma")))]
    {
        extern "C" {
            fn fma(a: f64, b: f64, c: f64) -> f64;
        }
        // SAFETY: libm's `fma` is a pure function, total over all f64s.
        unsafe { fma(a, b, acc) }
    }
}

/// `N / ln 2` with `N = 32` table entries: `x·N/ln 2 = k + r`.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5·2⁵²`: adding it rounds `x·N/ln 2` to an integer `k`, which lands in
/// the low mantissa bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for `2^(r/N)`, highest power first.
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `T[i] = bits(2^(i/32)) − (i << 47)`: adding `k << 47` back restores
/// `2^(k/32)`'s bits, exponent included.
#[rustfmt::skip]
const EXP_TABLE: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `(bits >> 20) & 0x7ff` at or above this (`|x| ≥ 88`, ±∞, NaN): the
/// special-case path of [`exp_f32`].
const EXP_SPECIAL_TOP: u32 = 0x42b;

/// `eˣ` in `f32`, the workspace's one definition of it: glibc's `expf`
/// algorithm, transcribed. `x·32/ln 2 = k + r` in `f64` (`k` rounded to an
/// integer by [`EXP_SHIFT`], `r = fma(32/ln 2, x, −k)` — glibc's FMA build
/// fuses that step, and [`fused_f64`] pins it), then
/// `eˣ = 2^(k/32) · 2^(r/32)`: the first factor from a 32-entry table, the
/// second from a cubic in `r`, rounded once to `f32` at the end. `|x| ≥ 88`,
/// ±∞ and NaN take glibc's special cases: `e^-∞ = 0`, `NaN → x + x`
/// (quieted, payload kept), overflow past `0x1.62e42ep6` to `+∞`, underflow
/// below `-0x1.9fe368p6` to `+0`; the rest of that band runs the common
/// path.
///
/// It equals a glibc host's `f32::exp` on every one of the 2³² inputs
/// (`exp_f32_is_the_host_expf_on_every_input`, ignored by default, run in
/// release by `ci.sh`), so the softmax — whose vector leaf runs the same
/// steps four `f64` lanes at a time — does not depend on the platform libm.
#[inline]
pub(crate) fn exp_f32(x: f32) -> f32 {
    let bits = x.to_bits();
    let top = (bits >> 20) & 0x7ff;
    if top >= EXP_SPECIAL_TOP {
        if bits == f32::NEG_INFINITY.to_bits() {
            return 0.0;
        }
        if top >= 0x7f8 {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY;
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0;
        }
    }
    let xd = f64::from(x);
    let kd = EXP_INV_LN2_N * xd + EXP_SHIFT;
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = fused_f64(EXP_INV_LN2_N, xd, -kd);
    let s = f64::from_bits(EXP_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0] * r + EXP_C[1];
    let y = EXP_C[2] * r + 1.0;
    ((z * (r * r) + y) * s) as f32
}

/// The common path of [`exp_f32`] on four `f64` lanes, rounded to four
/// `f32`s: the scalar steps one vector instruction each, the fused `r`
/// included (`fmsub`), the table entry a gather on `k & 31`.
///
/// # Safety
/// Caller must have verified AVX2+FMA support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_half_avx2(xd: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    let inv = _mm256_set1_pd(EXP_INV_LN2_N);
    let shift = _mm256_set1_pd(EXP_SHIFT);
    let kd = _mm256_add_pd(_mm256_mul_pd(inv, xd), shift);
    let ki = _mm256_castpd_si256(kd);
    let r = _mm256_fmsub_pd(inv, xd, _mm256_sub_pd(kd, shift));
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    // SAFETY: every index is in 0..32, the table's length.
    let t = _mm256_i64gather_epi64::<8>(EXP_TABLE.as_ptr().cast(), idx);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let (c0, c1, c2) = (
        _mm256_set1_pd(EXP_C[0]),
        _mm256_set1_pd(EXP_C[1]),
        _mm256_set1_pd(EXP_C[2]),
    );
    let z = _mm256_add_pd(_mm256_mul_pd(c0, r), c1);
    let y = _mm256_add_pd(_mm256_mul_pd(c2, r), _mm256_set1_pd(1.0));
    let y = _mm256_add_pd(_mm256_mul_pd(z, _mm256_mul_pd(r, r)), y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// [`exp_f32`] on eight lanes: the same steps in two halves of four `f64`
/// lanes ([`exp_half_avx2`]). Lanes on the special-case path (`|x| ≥ 88`, ±∞,
/// NaN) are recomputed by [`exp_f32`] itself, so every lane is its bits.
///
/// # Safety
/// Caller must have verified AVX2+FMA support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn exp_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let lo = exp_half_avx2(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
    let hi = exp_half_avx2(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
    let e = _mm256_set_m128(hi, lo);
    let top = _mm256_and_si256(
        _mm256_srli_epi32::<20>(_mm256_castps_si256(x)),
        _mm256_set1_epi32(0x7ff),
    );
    let special = _mm256_cmpgt_epi32(top, _mm256_set1_epi32(EXP_SPECIAL_TOP as i32 - 1));
    let special = _mm256_movemask_ps(_mm256_castsi256_ps(special));
    if special == 0 {
        return e;
    }
    let (mut xs, mut es) = ([0.0f32; LANES], [0.0f32; LANES]);
    _mm256_storeu_ps(xs.as_mut_ptr(), x);
    _mm256_storeu_ps(es.as_mut_ptr(), e);
    for l in (0..LANES).filter(|l| special >> l & 1 == 1) {
        es[l] = exp_f32(xs[l]);
    }
    _mm256_loadu_ps(es.as_ptr())
}

/// How an `M`-row group of output reads its `A` operand: `step(kk)[r]` is
/// the scalar that multiplies panel row `kk` into output row `r`. This is
/// the only thing `A·B` and `Aᵀ·B` differ in, so the register-tile family
/// below ([`tile`], [`tail`], [`rows_panel`], [`group_panel`]) is written
/// once over it. The two implementations are monomorphized into the tile
/// loops: the layout is resolved at compile time, never by a stride read
/// and multiplied per element (which measured 5–14 % slower, EXPERIMENTS.md).
pub(crate) trait AGroup<const M: usize>: Copy {
    /// The group's `M` scalars of reduction step `kk` — by reference, so
    /// each load stays where the tile loop uses it (a broadcast straight
    /// from memory in the AVX2 tile; copied out first, two of the four
    /// became a load plus a register broadcast, 3–5 % on the `k`-long
    /// backward product — EXPERIMENTS.md, "One numeric path").
    fn step(&self, kk: usize) -> [&f32; M];
}

/// `M` rows of a row-major `A` — `gemm`, `gemm_bias*`, `gemm_nn_gather` and
/// the top-k kernels: `step(kk)[r] = rows[r][kk]`.
#[derive(Clone, Copy)]
struct Rows<'a, const M: usize>([&'a [f32]; M]);

impl<const M: usize> AGroup<M> for Rows<'_, M> {
    #[inline(always)]
    fn step(&self, kk: usize) -> [&f32; M] {
        std::array::from_fn(|r| &self.0[r][kk])
    }
}

/// `M` adjacent columns of a `k×m` `A` — `gemm_tn`, whose output rows are
/// `A`'s columns: `step(kk)[r] = A[kk][first + r]`, one contiguous `M`-float
/// read per step.
#[derive(Clone, Copy)]
struct Cols<'a> {
    a: &'a [f32],
    m: usize,
    first: usize,
}

impl<const M: usize> AGroup<M> for Cols<'_> {
    #[inline(always)]
    fn step(&self, kk: usize) -> [&f32; M] {
        let at = kk * self.m + self.first;
        let a_k = &self.a[at..at + M];
        std::array::from_fn(|r| &a_k[r])
    }
}

/// The whole `A` operand of a row-streaming product: hands
/// [`group_panel`] the [`AGroup`] of each row group it is given.
pub(crate) trait AOperand: Copy {
    /// The accessor of output rows `first..first + M` from reduction step
    /// `k0` on: its `step(kk)` is the product's step `k0 + kk` (`k0 > 0` in
    /// the later blocks of a K-blocked product, [`gemm_chunk`]).
    fn group<const M: usize>(self, first: usize, k0: usize) -> impl AGroup<M>;
}

/// A row-major `m×k` `A`: output row `i` reads `A`'s row `i`.
#[derive(Clone, Copy)]
pub(crate) struct RowMajorA<'a> {
    pub a: &'a [f32],
    pub k: usize,
}

impl AOperand for RowMajorA<'_> {
    #[inline(always)]
    fn group<const M: usize>(self, first: usize, k0: usize) -> impl AGroup<M> {
        Rows(std::array::from_fn(|r| {
            &self.a[(first + r) * self.k..][k0..self.k]
        }))
    }
}

/// A `k×m` `A` read transposed: output row `i` reads `A`'s column `i`.
#[derive(Clone, Copy)]
pub(crate) struct TransposedA<'a> {
    pub a: &'a [f32],
    pub m: usize,
}

impl AOperand for TransposedA<'_> {
    #[inline(always)]
    fn group<const M: usize>(self, first: usize, k0: usize) -> impl AGroup<M> {
        Cols {
            a: &self.a[k0 * self.m..],
            m: self.m,
            first,
        }
    }
}

/// What a register block does with its finished sums — the one thing the
/// GEMM products and the packed top-k differ in once the reduction is done.
/// Column `l` of the block is output column (class) `col + l` in both.
enum Finish<'a> {
    /// Writes `C` through the epilogue: `out` holds the group's rows at
    /// stride `n`.
    Store {
        out: &'a mut [f32],
        n: usize,
        ep: Epilogue<'a>,
    },
    /// Offers each row's logits `s + bias[j]` — [`Epilogue::Bias`], as the
    /// materializing `gemm_bias` writes them — to that row's [`TopList`]
    /// (`lists[r]` for row `r`), in ascending column order. Writes nothing.
    Select {
        bias: &'a [f32],
        lists: &'a mut [TopList],
    },
}

/// The raw partial sums a K-blocked product ([`gemm_chunk`]) carries from
/// one reduction block to the next, for one row group and one packed panel:
/// `sums` holds the group's rows of the panel at stride `w`, the panel's
/// width (panel column `jt` at `sums[r * w + jt]`). A register block starts
/// from them in every block after the first (`resume`; from zero otherwise)
/// and in every block but the `last` stores its sums back into them instead
/// of finishing them. A stored `f32` reloads exactly, so each element's
/// ascending-`k` chain of fused multiply-adds runs on across the blocks as
/// if unbroken (contract rule 1), and its [`Finish`] — the epilogue, reading
/// the prior `C` — runs once, after the last term.
struct Carry<'a> {
    sums: &'a mut [f32],
    w: usize,
    resume: bool,
    last: bool,
}

impl Carry<'_> {
    /// The carry of an unblocked reduction: start from zero, finish at the
    /// end.
    fn whole() -> Carry<'static> {
        Carry {
            sums: &mut [],
            w: 0,
            resume: false,
            last: true,
        }
    }

    /// The carry of `rows` rows from row `first` of this one's (none when
    /// the scratch was not sized for it: an unblocked reduction, which
    /// neither resumes nor stores).
    #[inline(always)]
    fn rows(&mut self, first: usize, rows: usize) -> Carry<'_> {
        let w = self.w;
        Carry {
            sums: self
                .sums
                .get_mut(first * w..(first + rows) * w)
                .unwrap_or_default(),
            w,
            resume: self.resume,
            last: self.last,
        }
    }

    /// The accumulators a register block of `cols` columns at panel column
    /// `jt` starts from.
    #[inline(always)]
    fn start<const M: usize>(&self, jt: usize, cols: usize) -> [[f32; NR]; M] {
        let mut acc = [[0.0f32; NR]; M];
        if self.resume {
            for (r, accr) in acc.iter_mut().enumerate() {
                accr[..cols].copy_from_slice(&self.sums[r * self.w + jt..][..cols]);
            }
        }
        acc
    }

    /// Stores a register block's raw sums for the next K block.
    #[inline(always)]
    fn store<const M: usize>(&mut self, acc: &[[f32; NR]; M], jt: usize, cols: usize) {
        for (r, accr) in acc.iter().enumerate() {
            self.sums[r * self.w + jt..][..cols].copy_from_slice(&accr[..cols]);
        }
    }
}

/// Writes a finished accumulator block through the epilogue, once per
/// element: `out[r][col0 + l] = ep(acc[r][l])` for `l < cols`. `out` holds
/// the group's `M` output rows at stride `n`. The store half of [`finish`]:
/// the portable tile's and every `w % NR` tail's. The AVX2 tile applies the
/// same per-element operations as vector instructions ([`store_avx2`]).
#[inline(always)]
fn store_tile<const M: usize>(
    acc: &[[f32; NR]; M],
    cols: usize,
    n: usize,
    col0: usize,
    out: &mut [f32],
    ep: Epilogue,
) {
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut out[r * n + col0..r * n + col0 + cols];
        for (l, cv) in crow.iter_mut().enumerate() {
            *cv = ep.apply(col0 + l, accr[l], *cv);
        }
    }
}

/// The scalar finisher of a register block, element by element: `acc[r][l]`
/// for `l < cols` is the finished sum of row `r`, column `col + l`. Used by
/// the portable tile and by every `w % NR` tail; the AVX2 tile finishes in
/// registers instead ([`tile_avx2`]), with the same per-element operations.
#[inline(always)]
fn finish<const M: usize>(acc: &[[f32; NR]; M], cols: usize, col: usize, fin: &mut Finish) {
    match fin {
        Finish::Store { out, n, ep } => store_tile(acc, cols, *n, col, out, *ep),
        Finish::Select { bias, lists } => {
            let ep = Epilogue::Bias(bias);
            for (accr, list) in acc.iter().zip(lists.iter_mut()) {
                let mut logits = [0.0f32; NR];
                for (l, v) in logits[..cols].iter_mut().enumerate() {
                    *v = ep.apply(col + l, accr[l], 0.0);
                }
                list.offer_run(&logits[..cols], col as u32);
            }
        }
    }
}

/// One `M × NR` register tile over a *packed* `B` panel
/// (`bp[kk * w + l] = B[kk][j0 + l]`): `acc[r][l] += a.step(kk)[r] ·
/// bp[kk][jt + l]`, `kk` ascending (rule 1 of the contract), from the
/// `carry` (zero unless a K block resumes), then `fin` applied to the
/// finished accumulators (tile column `l` is output column `col + l`) — or,
/// before a K-blocked product's last block, the raw sums stored to the
/// carry. On AVX2 hosts the whole tile, finisher included, runs in the
/// intrinsics clone ([`tile_avx2`]); both paths perform the identical
/// per-element IEEE-754 operation sequence.
#[inline(always)]
fn tile<const M: usize, A: AGroup<M>>(
    a: A,
    bp: &[f32],
    w: usize,
    jt: usize,
    col: usize,
    carry: &mut Carry,
    fin: &mut Finish,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: AVX2+FMA support was just verified; `rows_panel` only
        // calls with `jt + NR <= w` and `bp` whole `w`-float panel rows.
        // The carry's two flags become the leaf's constants, so the
        // unblocked instance (every top-k tile, every GEMM up to `KC`
        // steps) never reads the carry.
        unsafe {
            match (carry.resume, carry.last) {
                (false, true) => tile_avx2::<M, A, false, true>(a, bp, w, jt, col, carry, fin),
                (false, false) => tile_avx2::<M, A, false, false>(a, bp, w, jt, col, carry, fin),
                (true, false) => tile_avx2::<M, A, true, false>(a, bp, w, jt, col, carry, fin),
                (true, true) => tile_avx2::<M, A, true, true>(a, bp, w, jt, col, carry, fin),
            }
        };
        return;
    }
    let mut acc = carry.start::<M>(jt, NR);
    for (kk, brow) in bp.chunks_exact(w).enumerate() {
        let bv: &[f32; NR] = brow[jt..jt + NR].try_into().unwrap();
        for (accr, a_rk) in acc.iter_mut().zip(a.step(kk)) {
            for l in 0..NR {
                accr[l] = fused(*a_rk, bv[l], accr[l]);
            }
        }
    }
    if carry.last {
        finish(&acc, NR, col, fin);
    } else {
        carry.store(&acc, jt, NR);
    }
}

/// AVX2+FMA intrinsics body of [`tile`] — different code from the portable
/// body, not a recompilation of it, which is why it stays: the `M × NR`
/// accumulator block is `2·M` named `__m256` values, which the register
/// allocator keeps in ymm registers across the whole k-loop (the
/// autovectorized portable body round-trips the accumulator array through
/// the stack every iteration — measured ~2x slower). Per element and per
/// step this is exactly `acc = fma(a, b, acc)` in IEEE-754 single precision
/// — the same correctly-rounded fused operation [`fused`] performs in the
/// portable body, so both paths produce identical bits.
///
/// The finished accumulators never leave the registers through a scalar
/// loop: [`store_avx2`] applies the epilogue as vector operations and
/// writes `C` with vector stores, [`select_avx2`] adds the bias and drops
/// every row none of whose 16 lanes can enter its [`TopList`] on one vector
/// compare. Past the first few tiles of a wide logit row almost every row
/// is dropped there. A K block's carry is loaded (`RESUME`) and stored
/// (not `LAST`) with vector moves as well. The two are constants, not
/// reads of `carry`: as runtime flags they cost the top-k ~3 % at hidden
/// 8 — a 16-lane tile there is eight steps long — and a constant pair lets
/// the unblocked instance drop the `carry` argument altogether.
///
/// # Safety
/// Caller must have verified AVX2+FMA support and `jt + NR <= w` with `bp`
/// a whole number of `w`-float panel rows.
#[cfg(target_arch = "x86_64")]
#[inline(never)] // inlining past the feature boundary under LTO splits the FMAs
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_avx2<const M: usize, A: AGroup<M>, const RESUME: bool, const LAST: bool>(
    a: A,
    bp: &[f32],
    w: usize,
    jt: usize,
    col: usize,
    carry: &mut Carry,
    fin: &mut Finish,
) {
    use std::arch::x86_64::*;
    let mut acc0 = [_mm256_setzero_ps(); M];
    let mut acc1 = [_mm256_setzero_ps(); M];
    let mut sums = |r: usize| carry.sums[r * w + jt..][..NR].as_mut_ptr();
    if RESUME {
        for r in 0..M {
            acc0[r] = _mm256_loadu_ps(sums(r));
            acc1[r] = _mm256_loadu_ps(sums(r).add(LANES));
        }
    }
    for (kk, brow) in bp.chunks_exact(w).enumerate() {
        let b0 = _mm256_loadu_ps(brow.as_ptr().add(jt));
        let b1 = _mm256_loadu_ps(brow.as_ptr().add(jt + LANES));
        let a_k = a.step(kk);
        for r in 0..M {
            let av = _mm256_set1_ps(*a_k[r]);
            acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
            acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
        }
    }
    if !LAST {
        for r in 0..M {
            _mm256_storeu_ps(sums(r), acc0[r]);
            _mm256_storeu_ps(sums(r).add(LANES), acc1[r]);
        }
        return;
    }
    match fin {
        Finish::Store { out, n, ep } => store_avx2(&acc0, &acc1, out, *n, col, ep),
        Finish::Select { bias, lists } => select_avx2(&acc0, &acc1, bias, col, lists),
    }
}

/// The store finisher of [`tile_avx2`]: [`Epilogue::apply`] on the
/// finished `M × NR` sums (`acc0[r]`, `acc1[r]`: row `r`, columns
/// `col..col + LANES` and `col + LANES..col + NR`), lane for lane, then two
/// vector stores per row into `out` (the group's rows at stride `n`). One
/// vector instruction per scalar operation, so each lane sees the scalar
/// sequence exactly:
///
/// * `Bias`: one `add`;
/// * `BiasRelu`: `add`, then `cmp_lt` against zero and a blend of `+0.0`
///   into the lanes it marks — NaN and `-0.0` compare false (ordered,
///   non-signalling `<`) and pass unchanged, as `if v < 0.0 { 0.0 }` lets
///   them (a `max` would not: it turns both into `+0.0`);
/// * `AlphaBeta`: a `mul` when `β = 0` (the prior `C` unread), otherwise
///   `mul`, `mul`, `add` — separate instructions, never contracted into an
///   FMA (Rust sets no contraction flag), as the scalar `α·s + β·c` is not.
///
/// The epilogue is matched once per tile, its operands read once (`ep` by
/// reference: a by-value copy of the enum went through the stack and
/// stalled store forwarding at every use).
///
/// # Safety
/// Caller must have verified AVX2+FMA support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn store_avx2<const M: usize>(
    acc0: &[std::arch::x86_64::__m256; M],
    acc1: &[std::arch::x86_64::__m256; M],
    out: &mut [f32],
    n: usize,
    col: usize,
    ep: &Epilogue,
) {
    use std::arch::x86_64::*;
    let row = |out: &mut [f32], r: usize| out[r * n + col..][..NR].as_mut_ptr();
    match *ep {
        Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) => {
            let relu = matches!(ep, Epilogue::BiasRelu(_));
            let b = &bias[col..col + NR];
            let (b0, b1) = (
                _mm256_loadu_ps(b.as_ptr()),
                _mm256_loadu_ps(b.as_ptr().add(LANES)),
            );
            let zero = _mm256_setzero_ps();
            for r in 0..M {
                let mut v0 = _mm256_add_ps(acc0[r], b0);
                let mut v1 = _mm256_add_ps(acc1[r], b1);
                if relu {
                    v0 = _mm256_blendv_ps(v0, zero, _mm256_cmp_ps::<_CMP_LT_OQ>(v0, zero));
                    v1 = _mm256_blendv_ps(v1, zero, _mm256_cmp_ps::<_CMP_LT_OQ>(v1, zero));
                }
                let c = row(out, r);
                _mm256_storeu_ps(c, v0);
                _mm256_storeu_ps(c.add(LANES), v1);
            }
        }
        Epilogue::AlphaBeta { alpha, beta } => {
            let (alpha, beta_v) = (_mm256_set1_ps(alpha), _mm256_set1_ps(beta));
            for r in 0..M {
                let c = row(out, r);
                let mut v0 = _mm256_mul_ps(alpha, acc0[r]);
                let mut v1 = _mm256_mul_ps(alpha, acc1[r]);
                if beta != 0.0 {
                    v0 = _mm256_add_ps(v0, _mm256_mul_ps(beta_v, _mm256_loadu_ps(c)));
                    v1 = _mm256_add_ps(v1, _mm256_mul_ps(beta_v, _mm256_loadu_ps(c.add(LANES))));
                }
                _mm256_storeu_ps(c, v0);
                _mm256_storeu_ps(c.add(LANES), v1);
            }
        }
    }
}

/// The select finisher of [`tile_avx2`]: adds the bias to the finished
/// `M × NR` sums and offers row `r`'s 16 logits (columns `col..col + NR`)
/// to `lists[r]` — only when one of them is `>` the list's
/// [`TopList::threshold`] (`_CMP_GT_OQ`: false on NaN either side, as in
/// [`TopList::offer`]'s early-out, which this is, taken 16 lanes wide; a
/// list not yet full takes every lane). A passing row is stored to the
/// stack and offered lane by lane, in ascending column order.
///
/// # Safety
/// Caller must have verified AVX2+FMA support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn select_avx2<const M: usize>(
    acc0: &[std::arch::x86_64::__m256; M],
    acc1: &[std::arch::x86_64::__m256; M],
    bias: &[f32],
    col: usize,
    lists: &mut [TopList],
) {
    use std::arch::x86_64::*;
    let b = &bias[col..col + NR];
    let (b0, b1) = (
        _mm256_loadu_ps(b.as_ptr()),
        _mm256_loadu_ps(b.as_ptr().add(LANES)),
    );
    for (r, list) in lists.iter_mut().enumerate() {
        let v0 = _mm256_add_ps(acc0[r], b0);
        let v1 = _mm256_add_ps(acc1[r], b1);
        if let Some(kth) = list.threshold() {
            let kth = _mm256_set1_ps(kth);
            let above = _mm256_or_ps(
                _mm256_cmp_ps::<_CMP_GT_OQ>(v0, kth),
                _mm256_cmp_ps::<_CMP_GT_OQ>(v1, kth),
            );
            if _mm256_movemask_ps(above) == 0 {
                continue;
            }
        }
        let mut logits = [0.0f32; NR];
        _mm256_storeu_ps(logits.as_mut_ptr(), v0);
        _mm256_storeu_ps(logits.as_mut_ptr().add(LANES), v1);
        for (l, &v) in logits.iter().enumerate() {
            list.offer(v, (col + l) as u32);
        }
    }
}

/// The `w % NR` remainder columns of a packed panel, accumulated with the
/// same ascending-`kk` per-element order as [`tile`] (variable-width, so
/// the accumulator may live on the stack — at most `NR - 1` columns), from
/// and to the `carry` as the tile does, and finished element by element
/// ([`finish`]).
#[inline(always)]
fn tail<const M: usize, A: AGroup<M>>(
    a: A,
    bp: &[f32],
    w: usize,
    jt: usize,
    col: usize,
    carry: &mut Carry,
    fin: &mut Finish,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: AVX2+FMA support was just verified.
        unsafe { tail_avx2(a, bp, w, jt, col, carry, fin) };
        return;
    }
    let rem = w - jt;
    let mut acc = carry.start::<M>(jt, rem);
    for (kk, brow) in bp.chunks_exact(w).enumerate() {
        let bv = &brow[jt..w];
        for (accr, a_rk) in acc.iter_mut().zip(a.step(kk)) {
            for (av, &b) in accr[..rem].iter_mut().zip(bv) {
                *av = fused(*a_rk, b, *av);
            }
        }
    }
    if carry.last {
        finish(&acc, rem, col, fin);
    } else {
        carry.store(&acc, jt, rem);
    }
}

/// AVX2+FMA intrinsics body of [`tail`]: the remainder in register tiles of
/// up to `LANES` columns — one `__m256` accumulator per row, the per-lane
/// `fma` chain of [`tile_avx2`], the last tile's `B` lanes past `w` masked
/// off the load — each stored to an array and finished, or carried, like
/// the portable tail. A product whose output is narrower than `NR` columns
/// (the class-major `∇W₂`, `hidden` wide) is all tail: the variable-width
/// loop this replaces ran it ~4× slower at hidden 8 and 12 (EXPERIMENTS.md,
/// "One copy of `W₂`").
///
/// # Safety
/// Caller must have verified AVX2+FMA support.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn tail_avx2<const M: usize, A: AGroup<M>>(
    a: A,
    bp: &[f32],
    w: usize,
    mut jt: usize,
    mut col: usize,
    carry: &mut Carry,
    fin: &mut Finish,
) {
    use std::arch::x86_64::*;
    while jt < w {
        let cols = (w - jt).min(LANES);
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(cols as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let start = carry.start::<M>(jt, cols);
        let mut acc: [__m256; M] = std::array::from_fn(|r| _mm256_loadu_ps(start[r].as_ptr()));
        for (kk, brow) in bp.chunks_exact(w).enumerate() {
            // Lanes `cols..` are masked off: never read, and their sums
            // never leave the register.
            let b = _mm256_maskload_ps(brow.as_ptr().add(jt), mask);
            let a_k = a.step(kk);
            for r in 0..M {
                acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(*a_k[r]), b, acc[r]);
            }
        }
        let mut sums = [[0.0f32; NR]; M];
        for r in 0..M {
            _mm256_storeu_ps(sums[r].as_mut_ptr(), acc[r]);
        }
        if carry.last {
            finish(&sums, cols, col, fin);
        } else {
            carry.store(&sums, jt, cols);
        }
        jt += cols;
        col += cols;
    }
}

/// `M` rows × one packed panel (columns `j0..j0 + w`): [`tile`] register
/// tiles across the panel plus one [`tail`], each finished by `fin` as soon
/// as its reduction is done — left to right, so a [`Finish::Select`] list
/// sees its candidates in ascending column order.
#[inline(always)]
fn rows_panel<const M: usize, A: AGroup<M>>(
    a: A,
    bp: &[f32],
    j0: usize,
    w: usize,
    carry: &mut Carry,
    fin: &mut Finish,
) {
    let w_tiled = w - w % NR;
    let mut jt = 0;
    while jt < w_tiled {
        tile(a, bp, w, jt, j0 + jt, carry, fin);
        jt += NR;
    }
    if jt < w {
        tail(a, bp, w, jt, j0 + jt, carry, fin);
    }
}

/// [`rows_panel`] for the group of `rows` (1..=`MR`) output rows starting
/// at row `first` of the product, reducing from step `k0` (the panel's
/// first row), monomorphized per group height.
#[inline(always)]
fn group_panel(
    a: impl AOperand,
    first: usize,
    rows: usize,
    k0: usize,
    bp: &[f32],
    j0: usize,
    w: usize,
    carry: &mut Carry,
    fin: &mut Finish,
) {
    match rows {
        1 => rows_panel(a.group::<1>(first, k0), bp, j0, w, carry, fin),
        2 => rows_panel(a.group::<2>(first, k0), bp, j0, w, carry, fin),
        3 => rows_panel(a.group::<3>(first, k0), bp, j0, w, carry, fin),
        _ => rows_panel(a.group::<MR>(first, k0), bp, j0, w, carry, fin),
    }
}

/// Every row of a chunk × one packed panel, stored through the epilogue:
/// [`group_panel`] over the chunk's `MR`-row groups, the last of which may
/// hold 1–3 rows. `out` holds the chunk's full output rows at stride `n`;
/// its first row is output row `first_row` of the product. The panel's
/// rows are reduction steps `k0..` and `carry` holds the chunk's partial
/// sums over it.
#[inline(always)]
fn chunk_panel(
    a: impl AOperand,
    bp: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    first_row: usize,
    k0: usize,
    out: &mut [f32],
    ep: Epilogue,
    carry: &mut Carry,
) {
    let rows = out.len() / n;
    let mut i = 0;
    while i < rows {
        let g = (rows - i).min(MR);
        let out = &mut out[i * n..(i + g) * n];
        let fin = &mut Finish::Store { out, n, ep };
        group_panel(
            a,
            first_row + i,
            g,
            k0,
            bp,
            j0,
            w,
            &mut carry.rows(i, g),
            fin,
        );
        i += g;
    }
}

thread_local! {
    /// Per-thread scratch for the partial sums of a K-blocked product
    /// ([`gemm_chunk`], [`Carry`]): one float per element of a chunk's
    /// panel (at most `rows × NB`), grown on first use and then reused, like
    /// [`PANEL_SCRATCH`].
    static CARRY_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Reduction steps per K block of a row-streaming product ([`gemm_chunk`]).
/// A block's panel — `KC` rows of `B`, at most `NB` wide — is reused from
/// cache by every row group of the chunk, instead of a `k`-long panel
/// streamed past each group from memory. Measured on the dense step's
/// `dH = dO·W₂ᵀ` (48 × 6,701 × 64 and × 128; EXPERIMENTS.md, "The dense
/// output layer at vector speed").
pub const KC: usize = 512;

/// Row-streaming GEMM body over one contiguous row chunk of `C` (as
/// partitioned by `par_chunks_mut`): `C[i] = epilogue(Σ_kk A'[i][kk]·B'[kk][·])`
/// for the rows in `chunk`, where `A'` is `a` as its [`AOperand`] reads it
/// (`A` for [`RowMajorA`], `Aᵀ` for [`TransposedA`]) and `B'` the `rows` of
/// `B`, `n` columns wide, in reduction order — all of them, or the gathered
/// ones of the sampled softmax's backward kernel
/// (`dH = dlogitsₛ · gather(W₂ᵀ, candidates)`), which is therefore
/// bit-for-bit the plain product on a materialized gather.
///
/// Panels are the outer loop so each packed `B` panel is reused by every
/// `MR`-row group of the chunk. A reduction longer than [`KC`] steps is cut
/// into K blocks inside each panel: the block's panel is packed and reduced
/// by every group, whose tiles resume the partial sums the previous block
/// stored ([`Carry`], in [`CARRY_SCRATCH`]); only the last block applies
/// the epilogue. Per-element reduction order is independent of the loop
/// nesting (each element lives in exactly one panel, and its terms stay in
/// ascending `k`). The glue here (blocking, panel packing, row grouping) is
/// feature-agnostic scalar code; the hot reduction loops dispatch to their
/// AVX2+FMA leaves at the tile layer, so no chunk-level multiversioned
/// clone is needed.
pub(crate) fn gemm_chunk(
    a: impl AOperand,
    b: &[f32],
    rows: BRows,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    ep: Epilogue,
) {
    debug_assert!(n > 0 && chunk.len().is_multiple_of(n));
    let k = rows.len();
    let blocks = k.div_ceil(KC).max(1);
    CARRY_SCRATCH.with(|cell| {
        let mut sums = cell.borrow_mut();
        let mut j0 = 0;
        while j0 < n {
            let w = (n - j0).min(NB);
            if blocks > 1 {
                sums.resize(chunk.len() / n * w, 0.0);
            }
            for block in 0..blocks {
                let (k0, k1) = (block * KC, (block * KC + KC).min(k));
                let (b_block, rows_block) = rows.block(b, n, k0, k1);
                let carry = &mut Carry {
                    sums: &mut sums,
                    w,
                    resume: block > 0,
                    last: block + 1 == blocks,
                };
                with_b_panel(b_block, n, rows_block, j0, w, |bp| {
                    chunk_panel(a, bp, n, j0, w, first_row, k0, chunk, ep, carry)
                });
            }
            j0 += w;
        }
    })
}

/// One strided NN panel (panel row `kk` at `b[kk * n + j0]`), `k` reduction
/// steps. Bit-identical per element to the packed tiles — only the operand
/// address differs. Used by the streaming top-k path for the `MR`-row
/// groups of blocks too short to pack for ([`TOPK_PACK_MIN_ROWS`]).
#[inline(always)]
fn panel_strided<const M: usize, A: AGroup<M>>(
    a: A,
    k: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    acc: &mut [[f32; NB]; M],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: AVX2+FMA support was just verified.
        unsafe { panel_strided_avx2(a, k, b, n, j0, w, acc) };
        return;
    }
    panel_strided_body(a, k, b, n, j0, w, acc, fused)
}

/// AVX2+FMA leaf of [`panel_strided`]: the one body with [`f32::mul_add`],
/// which inside this function lowers to `vfmadd` instead of a libm call per
/// term.
///
/// # Safety
/// Caller must have verified AVX2+FMA support.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn panel_strided_avx2<const M: usize, A: AGroup<M>>(
    a: A,
    k: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    acc: &mut [[f32; NB]; M],
) {
    panel_strided_body(a, k, b, n, j0, w, acc, f32::mul_add)
}

/// The loop of [`panel_strided`], spelled with the calling path's FMA.
#[inline(always)]
fn panel_strided_body<const M: usize, A: AGroup<M>>(
    a: A,
    k: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    w: usize,
    acc: &mut [[f32; NB]; M],
    fma: impl Fn(f32, f32, f32) -> f32,
) {
    for kk in 0..k {
        let brow = &b[kk * n + j0..kk * n + j0 + w];
        for (accr, a_rk) in acc.iter_mut().zip(a.step(kk)) {
            for (av, &bv) in accr[..w].iter_mut().zip(brow) {
                *av = fma(*a_rk, bv, *av);
            }
        }
    }
}

/// `NT_JB` lane-tree dot products sharing one pass over `a`: the portable
/// body of the rule-2 tile ([`nt_chunk`]). Separate multiply and add per
/// term, so each result is bit-identical to [`dot_lanes`] of the same pair
/// (same lane assignment, same tree) at any vector width.
#[inline(always)]
fn nt_dot_block(a: &[f32], b_rows: &[&[f32]; NT_JB]) -> [f32; NT_JB] {
    let mut acc = [[0.0f32; LANES]; NT_JB];
    let k = a.len();
    let k_tiled = k - k % LANES;
    let mut t = 0;
    while t < k_tiled {
        let av = &a[t..t + LANES];
        for (accj, brow) in acc.iter_mut().zip(b_rows) {
            let bv = &brow[t..t + LANES];
            for l in 0..LANES {
                accj[l] += av[l] * bv[l];
            }
        }
        t += LANES;
    }
    for l in 0..(k - k_tiled) {
        for (accj, brow) in acc.iter_mut().zip(b_rows) {
            accj[l] += a[k_tiled + l] * brow[k_tiled + l];
        }
    }
    std::array::from_fn(|j| lane_tree(acc[j]))
}

/// The one NT body over one contiguous row chunk of `C`: each element is a
/// lane-tree dot of an `A` row and the `B` row `b_row(j)` (rule 2 of the
/// contract), `NT_JB` `B` rows per tile; on AVX2 hosts the whole chunk runs
/// in the register tile [`nt_chunk_avx2`]. `n` is the chunk's row length.
/// With `b_row` looking rows up through an index list this is the forward
/// kernel of the sampled softmax (`logitsₛ = H · gather(W₂ᵀ, candidates)ᵀ`,
/// only the candidate columns of the logit row ever computed) —
/// bit-identical to [`gemm_nt_chunk`] against a materialized gather, being
/// the same body.
#[inline(always)]
pub(crate) fn nt_chunk<'b>(
    a: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    ep: Epilogue,
    b_row: impl Fn(usize) -> &'b [f32],
) {
    debug_assert!(n > 0 && chunk.len().is_multiple_of(n));
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: AVX2+FMA support was just verified.
        unsafe { nt_chunk_avx2(a, k, n, first_row, chunk, &ep, &b_row) };
        return;
    }
    for (i, crow) in chunk.chunks_mut(n).enumerate() {
        let arow = &a[(first_row + i) * k..(first_row + i + 1) * k];
        let mut j = 0;
        while j < n {
            let cols = (n - j).min(NT_JB);
            let b_rows: [&[f32]; NT_JB] = std::array::from_fn(|jj| b_row(j + jj.min(cols - 1)));
            let dots = nt_dot_block(arow, &b_rows);
            for (jj, &d) in dots[..cols].iter().enumerate() {
                crow[j + jj] = ep.apply(j + jj, d, crow[j + jj]);
            }
            j += NT_JB;
        }
    }
}

/// AVX2 leaf of [`nt_chunk`]: `B` rows in groups of `NT_JB`, outermost (the
/// group's rows are looked up once, not once per `A` row), then one
/// register tile ([`nt_tile_avx2`]) per row of the chunk, finished as one
/// vector — the tile's eight dots in the lanes of one register — through
/// the epilogue ([`nt_store_avx2`]) and out with one store. A short last
/// group (fewer than `NT_JB` columns left) repeats its last `B` row in the
/// unused slots and finishes its live lanes element by element with
/// [`Epilogue::apply`], the same operations.
///
/// # Safety
/// Caller must have verified AVX2+FMA support.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn nt_chunk_avx2<'b>(
    a: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    ep: &Epilogue,
    b_row: &impl Fn(usize) -> &'b [f32],
) {
    use std::arch::x86_64::*;
    let rows = chunk.len() / n;
    let mut j = 0;
    while j < n {
        let cols = (n - j).min(NT_JB);
        let mut b_rows: [&[f32]; NT_JB] = [&[]; NT_JB];
        for (jj, row) in b_rows.iter_mut().enumerate() {
            *row = &b_row(j + jj.min(cols - 1))[..k];
        }
        for i in 0..rows {
            let arow = &a[(first_row + i) * k..(first_row + i + 1) * k];
            let dots = nt_tile_avx2(arow, &b_rows);
            let crow = &mut chunk[i * n + j..(i + 1) * n];
            if cols == NT_JB {
                nt_store_avx2(dots, crow, j, ep);
            } else {
                let mut d = [0.0f32; NT_JB];
                _mm256_storeu_ps(d.as_mut_ptr(), dots);
                for (jj, (&s, cv)) in d.iter().zip(crow).enumerate() {
                    *cv = ep.apply(j + jj, s, *cv);
                }
            }
        }
        j += NT_JB;
    }
}

/// The rule-2 register tile: the lane-tree dots of `a` with each of the
/// eight `b` rows (all `a.len()` long), lane `j` of the result being the
/// dot with `b[j]`. Row `j` accumulates in its own 8-lane register — term
/// `t` into lane `t % 8`, a separate `mul` and `add` per term (never an
/// FMA: nothing sets a contraction flag), the `k % 8` tail into lanes
/// `0..k % 8` only. The tail's masked loads read `+0` past the end, so a
/// lane beyond it adds `0·0 = +0`, which changes no accumulator: a lane
/// starts at `+0`, and an IEEE sum is `-0` only when both terms are, so no
/// lane ever holds `-0`. The eight accumulators are then folded at once:
/// [`transpose8_avx2`] puts lane `l` of every row into register `l`, and
/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))` as vertical adds is
/// [`lane_tree`] for all eight rows — bit for bit [`dot_lanes`] per row.
///
/// # Safety
/// Caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn nt_tile_avx2(a: &[f32], b: &[&[f32]; NT_JB]) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let k = a.len();
    let k_tiled = k - k % LANES;
    let mut acc = [_mm256_setzero_ps(); NT_JB];
    let mut t = 0;
    while t < k_tiled {
        let av = _mm256_loadu_ps(a.as_ptr().add(t));
        for (accj, bj) in acc.iter_mut().zip(b) {
            let bv = _mm256_loadu_ps(bj.as_ptr().add(t));
            *accj = _mm256_add_ps(*accj, _mm256_mul_ps(av, bv));
        }
        t += LANES;
    }
    if t < k {
        let live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((k - t) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let av = _mm256_maskload_ps(a.as_ptr().add(t), live);
        for (accj, bj) in acc.iter_mut().zip(b) {
            let bv = _mm256_maskload_ps(bj.as_ptr().add(t), live);
            *accj = _mm256_add_ps(*accj, _mm256_mul_ps(av, bv));
        }
    }
    let l = transpose8_avx2(acc);
    _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(l[0], l[4]), _mm256_add_ps(l[2], l[6])),
        _mm256_add_ps(_mm256_add_ps(l[1], l[5]), _mm256_add_ps(l[3], l[7])),
    )
}

/// [`Epilogue::apply`] on the eight dots `s` of output columns
/// `col..col + 8`, one vector instruction per scalar operation (the
/// operations of [`store_avx2`]), then one store into `out`.
///
/// # Safety
/// Caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn nt_store_avx2(s: std::arch::x86_64::__m256, out: &mut [f32], col: usize, ep: &Epilogue) {
    use std::arch::x86_64::*;
    let c = out[..LANES].as_mut_ptr();
    let v = match *ep {
        Epilogue::AlphaBeta { alpha, beta } => {
            let v = _mm256_mul_ps(_mm256_set1_ps(alpha), s);
            if beta == 0.0 {
                v
            } else {
                _mm256_add_ps(v, _mm256_mul_ps(_mm256_set1_ps(beta), _mm256_loadu_ps(c)))
            }
        }
        Epilogue::Bias(bias) => _mm256_add_ps(s, _mm256_loadu_ps(bias[col..col + LANES].as_ptr())),
        Epilogue::BiasRelu(bias) => {
            let v = _mm256_add_ps(s, _mm256_loadu_ps(bias[col..col + LANES].as_ptr()));
            let zero = _mm256_setzero_ps();
            _mm256_blendv_ps(v, zero, _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero))
        }
    };
    _mm256_storeu_ps(c, v);
}

/// NT GEMM over one contiguous row chunk of `C`:
/// `C[i][j] = epilogue(dot(A[i], B[j]))`, `B` being `n×k` row-major.
pub fn gemm_nt_chunk(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    ep: Epilogue,
) {
    nt_chunk(a, k, n, first_row, chunk, ep, |j| &b[j * k..(j + 1) * k]);
}

/// The 8 × 8 in-register transpose: `out[l]` lane `j` is `r[j]` lane `l`.
/// Unpacks pair rows, 4-lane shuffles pair the pairs, 128-bit permutes join
/// the halves — moves only, so every bit pattern (NaN payloads, `-0.0`)
/// arrives unchanged. The leaf of [`transpose_block`] and the fold of the
/// rule-2 tile ([`nt_tile_avx2`]).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
fn transpose8_avx2(r: [std::arch::x86_64::__m256; LANES]) -> [std::arch::x86_64::__m256; LANES] {
    use std::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ]
}

/// A stored model element as the `f32` it stands for: `f32` verbatim, a
/// stored bf16 bit pattern (`u16`) widened exactly ([`crate::bf16::widen`]).
pub trait Widen: Copy + Send + Sync {
    /// The element as `f32`.
    fn widen(self) -> f32;

    /// `src` as `f32`s: `src` itself, or widened into the front of
    /// `scratch` (which must be at least as long).
    fn widen_run<'a>(src: &'a [Self], scratch: &'a mut [f32]) -> &'a [f32];
}

impl Widen for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }

    fn widen_run<'a>(src: &'a [f32], _: &'a mut [f32]) -> &'a [f32] {
        src
    }
}

impl Widen for u16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        crate::bf16::widen(self)
    }

    fn widen_run<'a>(src: &'a [u16], scratch: &'a mut [f32]) -> &'a [f32] {
        let out = &mut scratch[..src.len()];
        crate::bf16::widen_slice(src, out);
        out
    }
}

/// Side of the square tiles [`transpose_block`] walks: a 64 × 64 `f32`
/// tile is 64 runs of 256 B on each side, so the strided side is fetched
/// once per tile instead of once per element. 64 measured 15–25 % faster
/// than 32 on a `64 × 67,009` transpose (EXPERIMENTS.md, "Sampled training
/// at vector speed").
const TRANSPOSE_TILE: usize = 64;

/// Transposes `rows` source rows into `out`: `out[c * rows + r] =
/// src[r * stride + c]` for every `r < rows` and `c < out.len() / rows` —
/// the leading columns of a `rows × stride` row-major `src`, one
/// `rows`-long output row per column. The one transpose of the
/// workspace: the transposing `B` panel of the row-streaming products
/// (the class-major `W₂` in the dense forward and the serving top-k) and
/// the class-major placement of `W₂` at init call it.
///
/// Walks `TRANSPOSE_TILE`-square tiles so both sides of a tile stay in
/// L1; on AVX2 hosts each tile moves in 8 × 8 blocks through registers
/// (`transpose8_avx2`) and only its ragged edges element by element.
/// Pure copies: the bits do not depend on the path or the tiling.
///
/// # Panics
/// Panics when a source element would lie outside `src`.
pub fn transpose_block(src: &[f32], rows: usize, stride: usize, out: &mut [f32]) {
    if rows == 0 || out.is_empty() {
        return;
    }
    let n = out.len() / rows;
    let last_row = (rows - 1).checked_mul(stride);
    assert!(
        n <= stride && last_row.is_some_and(|at| at <= src.len() && n <= src.len() - at),
        "transpose_block source out of range"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: AVX2 support was just verified; every element the blocks
        // read lies inside `src` (asserted above).
        unsafe { transpose_block_avx2(src, rows, stride, out) };
        return;
    }
    transpose_tiles(rows, n, |r0, r1, c0, c1| {
        transpose_scalar(src, rows, stride, out, r0..r1, c0..c1)
    });
}

/// AVX2 leaf of [`transpose_block`]: the 8-aligned part of each tile in
/// 8 × 8 register blocks, its edges through [`transpose_scalar`].
///
/// # Safety
/// Caller must have verified AVX2 support and that rows `0..rows` of `src`
/// hold columns `0..out.len() / rows`.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn transpose_block_avx2(src: &[f32], rows: usize, stride: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = out.len() / rows;
    transpose_tiles(rows, n, |r0, r1, c0, c1| {
        let r8 = r1 - (r1 - r0) % LANES;
        let c8 = c1 - (c1 - c0) % LANES;
        for c in (c0..c8).step_by(LANES) {
            for r in (r0..r8).step_by(LANES) {
                let mut v = [_mm256_setzero_ps(); LANES];
                for (i, vi) in v.iter_mut().enumerate() {
                    *vi = _mm256_loadu_ps(src.as_ptr().add((r + i) * stride + c));
                }
                for (j, col) in transpose8_avx2(v).into_iter().enumerate() {
                    _mm256_storeu_ps(out[(c + j) * rows + r..][..LANES].as_mut_ptr(), col);
                }
            }
        }
        transpose_scalar(src, rows, stride, out, r8..r1, c0..c8);
        transpose_scalar(src, rows, stride, out, r0..r1, c8..c1);
    });
}

/// Calls `f(r0, r1, c0, c1)` for every [`TRANSPOSE_TILE`]-square tile of
/// source rows `0..rows` × output rows `0..n`, column tiles outermost.
#[inline(always)]
fn transpose_tiles(rows: usize, n: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    for c0 in (0..n).step_by(TRANSPOSE_TILE) {
        let c1 = (c0 + TRANSPOSE_TILE).min(n);
        for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
            f(r0, (r0 + TRANSPOSE_TILE).min(rows), c0, c1);
        }
    }
}

/// [`transpose_block`] element by element over source rows `r` × output
/// rows `c`.
#[inline(always)]
fn transpose_scalar(
    src: &[f32],
    rows: usize,
    stride: usize,
    out: &mut [f32],
    r: std::ops::Range<usize>,
    c: std::ops::Range<usize>,
) {
    if r.is_empty() {
        return;
    }
    for c in c {
        let dst = &mut out[c * rows + r.start..c * rows + r.end];
        let col = &src[r.start * stride + c..];
        for (i, d) in dst.iter_mut().enumerate() {
            *d = col[i * stride];
        }
    }
}

/// A fixed-capacity top-`k` list kept sorted by `(value desc, id asc)` — the
/// selection state of the streaming top-k kernel. Lives entirely on the
/// stack (`TOPK_STREAM_MAX` slots).
///
/// Candidates MUST be offered in ascending id order; equal-valued candidates
/// then insert after the equal entries already present, which reproduces the
/// `(value desc, id asc)` total order of the materialized sort exactly.
#[derive(Debug)]
pub struct TopList {
    vals: [f32; TOPK_STREAM_MAX],
    ids: [u32; TOPK_STREAM_MAX],
    len: usize,
    k: usize,
}

impl TopList {
    /// An empty list selecting `k` entries (`1 <= k <= TOPK_STREAM_MAX`).
    pub fn new(k: usize) -> Self {
        assert!((1..=TOPK_STREAM_MAX).contains(&k), "k out of stack range");
        Self {
            vals: [0.0; TOPK_STREAM_MAX],
            ids: [0; TOPK_STREAM_MAX],
            len: 0,
            k,
        }
    }

    /// Offers one candidate. Ids must arrive in ascending order.
    #[inline(always)] // called once per logit by the strided walk
    pub fn offer(&mut self, v: f32, id: u32) {
        // `!(v > last)` — not `v <= last` — so a NaN candidate is rejected
        // once the list is full, matching the select+sort fallback's order.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if self.len == self.k && !(v > self.vals[self.len - 1]) {
            return;
        }
        let mut pos = self.len.min(self.k - 1);
        while pos > 0 && v > self.vals[pos - 1] {
            pos -= 1;
        }
        let last = (self.len + 1).min(self.k) - 1;
        let mut p = last;
        while p > pos {
            self.vals[p] = self.vals[p - 1];
            self.ids[p] = self.ids[p - 1];
            p -= 1;
        }
        self.vals[pos] = v;
        self.ids[pos] = id;
        self.len = (self.len + 1).min(self.k);
    }

    /// The value a candidate must be `>` to enter — the current `k`-th —
    /// once the list is full; `None` while it is not, when every candidate
    /// enters. A run none of which is `>` it changes nothing, so it may be
    /// dropped whole.
    #[inline(always)]
    fn threshold(&self) -> Option<f32> {
        (self.len == self.k).then(|| self.vals[self.k - 1])
    }

    /// Offers `vals[l]` as candidate `first_id + l` for every `l`, in order
    /// — exactly [`TopList::offer`] per element, except that once the list
    /// is full a whole `LANES`-wide run is dropped on one compare when none
    /// of it is `>` the [`TopList::threshold`]: `offer`'s own early-out (NaN
    /// on either side compares false there as here), taken for 8
    /// candidates at a time. The selection of the portable tile and of the
    /// `w % NR` tails; the AVX2 tile takes the same early-out 16 lanes wide
    /// in registers ([`tile_avx2`]).
    #[inline]
    pub fn offer_run(&mut self, vals: &[f32], first_id: u32) {
        for (c, run) in vals.chunks(LANES).enumerate() {
            if let Some(kth) = self.threshold() {
                if !run.iter().fold(false, |any, &v| any | (v > kth)) {
                    continue;
                }
            }
            for (l, &v) in run.iter().enumerate() {
                self.offer(v, first_id + (c * LANES + l) as u32);
            }
        }
    }

    /// The selected ids, best first. Shorter than `k` only when fewer
    /// candidates were offered.
    pub fn ids(&self) -> &[u32] {
        &self.ids[..self.len]
    }
}

/// Streaming fused logits→top-k for `M` rows of `A`: computes each logit
/// panel (`A·B + bias`, same reduction and epilogue as the materializing
/// path) on the stack and feeds it straight into a per-row [`TopList`] —
/// the wide `m×n` logit matrix is never written to memory. Candidates are
/// offered in ascending column order (panels left to right, ascending
/// within each panel), as the `TopList` contract requires. `out` receives
/// `M` rows of `k` ids each.
// Out of line: each instance is a whole walk over `B`, and its offer loop
// measurably lost throughput (1 row × 6,701: 19 → 16 GFLOP/s) when it was
// inlined next to the packed path and laid out with it.
#[inline(never)]
fn rows_topk<const M: usize>(
    a: RowMajorA,
    b: &[f32],
    n: usize,
    bias: &[f32],
    a_first: usize,
    k: usize,
    out: &mut [u32],
) {
    let a_rows = a.group::<M>(a_first, 0);
    let mut lists: [TopList; M] = std::array::from_fn(|_| TopList::new(k));
    let ep = Epilogue::Bias(bias);
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(NB);
        let mut acc = [[0.0f32; NB]; M];
        panel_strided(a_rows, a.k, b, n, j0, w, &mut acc);
        for (accr, list) in acc.iter().zip(lists.iter_mut()) {
            for (l, &s) in accr[..w].iter().enumerate() {
                list.offer(ep.apply(j0 + l, s, 0.0), (j0 + l) as u32);
            }
        }
        j0 += w;
    }
    for (r, list) in lists.iter().enumerate() {
        out[r * k..r * k + list.ids().len()].copy_from_slice(list.ids());
    }
}

/// Rows whose [`TopList`]s stay alive while the panels of `B` go by in
/// [`topk_rows_packed`] (34 KB of selection state on the stack): every
/// panel is packed once per block, and a panel transposed out of the
/// class-major `W₂` costs about twice a verbatim copy, so the block spans a
/// serving chunk (256 rows on two lanes). At 32 rows the packing cost
/// `serve_engine_forward` 13–20 % of its throughput; at 128 it is level
/// with the verbatim path (EXPERIMENTS.md, "One copy of `W₂`").
const TOPK_ROW_BLOCK: usize = 128;

/// Fewest rows [`gemm_bias_topk_chunk`] packs panels for; what is left of a
/// chunk below this walks `B` strided in `MR`-row groups. The value is
/// [`crate::parallel::MIN_PAR_ROWS`]: a call too small to fork is too small
/// to pack. On a quiet host packing wins from 5 rows up (1.3–2.3× at 5–12
/// rows × 67,009 classes), but no caller is left for which 5–15 rows matter:
/// serving scores blocks of a few hundred rows, not micro-batches, so a
/// short group is the tail of a chunk, once per call.
const TOPK_PACK_MIN_ROWS: usize = crate::parallel::MIN_PAR_ROWS;

/// Streaming fused logits→top-k for a block of
/// `TOPK_PACK_MIN_ROWS ≤ rows ≤ TOPK_ROW_BLOCK`
/// rows of `A`, panels outermost: each `NB`-column panel of `B` is packed
/// once for the whole block ([`with_b_panel`], as [`gemm_chunk`] does) and
/// reduced group by group through the same [`rows_panel`] register tiles as
/// the GEMM products, finished by [`Finish::Select`] instead of a store:
/// each tile's logits (`s + bias[j]`, the same reduction and epilogue as the
/// materializing path) go from the accumulators straight into the rows'
/// [`TopList`]s, behind a 16-lane prefilter on AVX2 hosts. Panels left to
/// right, tiles left to right within a panel, the tail last: every list
/// sees its candidates in ascending column order, as its contract
/// requires, and no logit tile is ever written out.
fn topk_rows_packed(
    a: RowMajorA,
    b: &[f32],
    b_rows: BRows,
    n: usize,
    bias: &[f32],
    a_first: usize,
    k: usize,
    out: &mut [u32],
) {
    let rows = out.len() / k;
    let mut lists: [TopList; TOPK_ROW_BLOCK] = std::array::from_fn(|_| TopList::new(k));
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(NB);
        with_b_panel(b, n, b_rows, j0, w, |bp| {
            for (g, lists) in lists[..rows].chunks_mut(MR).enumerate() {
                let height = lists.len();
                let fin = &mut Finish::Select { bias, lists };
                let carry = &mut Carry::whole();
                group_panel(a, a_first + g * MR, height, 0, bp, j0, w, carry, fin);
            }
        });
        j0 += w;
    }
    for (list, ids) in lists.iter().zip(out.chunks_exact_mut(k)) {
        ids[..list.ids().len()].copy_from_slice(list.ids());
    }
}

/// Fused logits→top-k over one contiguous row chunk: `out` holds
/// `k`-id rows for the chunk's rows. Blocks of up to `TOPK_ROW_BLOCK` rows
/// go through [`topk_rows_packed`] (GEMM loop order, packed panels, register
/// tiles); once fewer than [`TOPK_PACK_MIN_ROWS`] rows remain — a chunk's
/// tail, or a one-row call — a plain `B` takes the strided walk of
/// [`rows_topk`] in groups of `MR`, while a transposed `B`, which has no
/// strided walk, stays on the packed path. Both offer the same logits in
/// the same order: which path scored a row never shows in its ids. The
/// reductions dispatch to their AVX2+FMA leaves at the tile layer; the
/// selection layer ([`TopList`]) is feature-agnostic.
pub(crate) fn gemm_bias_topk_chunk(
    a: &[f32],
    kdim: usize,
    b: &[f32],
    b_rows: BRows,
    n: usize,
    bias: &[f32],
    first_row: usize,
    k: usize,
    out: &mut [u32],
) {
    debug_assert!(out.len().is_multiple_of(k));
    let a = RowMajorA { a, k: kdim };
    let rows = out.len() / k;
    let mut i = 0;
    while i < rows {
        let left = rows - i;
        let packed = left >= TOPK_PACK_MIN_ROWS || !matches!(b_rows, BRows::All(_));
        let block = left.min(if packed { TOPK_ROW_BLOCK } else { MR });
        let ids = &mut out[i * k..(i + block) * k];
        let first = first_row + i;
        match (block, packed) {
            (_, true) => topk_rows_packed(a, b, b_rows, n, bias, first, k, ids),
            (1, _) => rows_topk::<1>(a, b, n, bias, first, k, ids),
            (2, _) => rows_topk::<2>(a, b, n, bias, first, k, ids),
            (3, _) => rows_topk::<3>(a, b, n, bias, first, k, ids),
            _ => rows_topk::<MR>(a, b, n, bias, first, k, ids),
        }
        i += block;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_tree_is_the_documented_association() {
        let acc = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        let want = ((1.0 + 16.0) + (4.0 + 64.0)) + ((2.0 + 32.0) + (8.0 + 128.0));
        assert_eq!(lane_tree(acc).to_bits(), (want as f32).to_bits());
    }

    /// The same float, NaN for any NaN (payloads are compared no further).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// [`exp_avx2`] on eight floats in memory.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_lanes(xs: &[f32; LANES]) -> [f32; LANES] {
        use std::arch::x86_64::*;
        let mut out = [0.0f32; LANES];
        _mm256_storeu_ps(out.as_mut_ptr(), exp_avx2(_mm256_loadu_ps(xs.as_ptr())));
        out
    }

    #[test]
    fn exp_f32_takes_the_special_cases() {
        for (x, want) in [
            (f32::NEG_INFINITY, 0.0f32),
            (f32::INFINITY, f32::INFINITY),
            (88.8, f32::INFINITY),
            (-104.0, 0.0),
            (0.0, 1.0),
            (-0.0, 1.0),
        ] {
            assert_eq!(exp_f32(x).to_bits(), want.to_bits(), "{x}");
        }
        assert!(exp_f32(f32::NAN).is_nan());
        // The band |x| in [88, 88.72] and [-103.97, -88] runs the common path.
        assert!(exp_f32(88.5).is_finite() && exp_f32(88.5) > 1e38);
        assert!(exp_f32(-100.0) > 0.0 && exp_f32(-100.0) < f32::MIN_POSITIVE);
    }

    #[test]
    #[ignore = "all 2^32 floats: a minute in release on two cores; ci.sh runs it"]
    fn exp_f32_is_the_host_expf_on_every_input() {
        // The goldens were cut with `f32::exp`, the host libm's `expf`; the
        // softmax now computes `exp_f32` (and its vector lanes) instead, so
        // the goldens hold exactly when all three agree on every input.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let vectors = (1u64 << 32) / LANES as u64;
        let avx2 = avx2_fma_available();
        let bad: Vec<u32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let range = vectors * t / threads as u64..vectors * (t + 1) / threads as u64;
                    s.spawn(move || {
                        let mut bad = Vec::new();
                        for v in range {
                            let xs: [f32; LANES] = std::array::from_fn(|l| {
                                f32::from_bits((v * LANES as u64) as u32 + l as u32)
                            });
                            #[cfg(target_arch = "x86_64")]
                            // SAFETY: AVX2+FMA support was verified above.
                            let lanes = avx2.then(|| unsafe { exp_lanes(&xs) });
                            #[cfg(not(target_arch = "x86_64"))]
                            let lanes: Option<[f32; LANES]> = None;
                            for (l, &x) in xs.iter().enumerate() {
                                let want = x.exp();
                                let ok = same(exp_f32(x), want)
                                    && lanes.is_none_or(|lanes| same(lanes[l], want));
                                if !ok && bad.len() < 16 {
                                    bad.push(x.to_bits());
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert!(
            bad.is_empty(),
            "exp_f32 differs from f32::exp at bits {bad:08x?}"
        );
    }

    #[test]
    fn packed_panels_start_on_a_cache_line_and_copy_b_verbatim() {
        // Fresh threads, each of which first takes a differently sized block
        // from its allocator so the scratch lands on a different offset;
        // the second panel of each pair reuses (and outgrows) the scratch.
        let (n, k) = (40usize, 7usize);
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 * 0.5 - 3.0).collect();
        let idx = [5u32, 0, 6, 2];
        std::thread::scope(|s| {
            for skew in 0..8usize {
                let b = &b;
                s.spawn(move || {
                    let _skew = vec![0u8; 16 * skew + 1];
                    for (j0, w) in [(0usize, 16usize), (16, 24)] {
                        with_b_panel(b, n, BRows::All(k), j0, w, |bp| {
                            assert_eq!(bp.as_ptr() as usize % PANEL_ALIGN, 0, "skew {skew}");
                            assert_eq!(bp.len(), k * w);
                            for kk in 0..k {
                                assert_eq!(bp[kk * w..][..w], b[kk * n + j0..][..w]);
                            }
                        });
                        with_b_panel(b, n, BRows::Gathered(&idx), j0, w, |bp| {
                            assert_eq!(bp.as_ptr() as usize % PANEL_ALIGN, 0, "skew {skew}");
                            assert_eq!(bp.len(), idx.len() * w);
                            for (kk, &row) in idx.iter().enumerate() {
                                assert_eq!(bp[kk * w..][..w], b[row as usize * n + j0..][..w]);
                            }
                        });
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "transpose_block source out of range")]
    fn transpose_block_refuses_columns_past_the_source() {
        // Rows of 10, columns 0..12: past the stride, though 3 × 10
        // elements would cover the last read of row 1.
        let mut out = vec![0.0f32; 2 * 12];
        transpose_block(&[0.0f32; 30], 2, 10, &mut out);
    }

    #[test]
    fn dot_lanes_matches_round_robin_reference() {
        for len in [0usize, 1, 7, 8, 9, 16, 31, 64, 100] {
            let a: Vec<f32> = (0..len).map(|i| (i % 13) as f32 / 7.0 - 0.9).collect();
            let b: Vec<f32> = (0..len).map(|i| (i % 11) as f32 / 5.0 - 1.1).collect();
            let mut acc = [0.0f32; LANES];
            for t in 0..len {
                acc[t % LANES] += a[t] * b[t];
            }
            assert_eq!(
                dot_lanes(&a, &b).to_bits(),
                lane_tree(acc).to_bits(),
                "{len}"
            );
        }
    }

    #[test]
    fn sum_sq_lanes_is_the_documented_association() {
        for len in [0usize, 1, 7, 8, 9, 16, 31, 100] {
            let xs: Vec<f32> = (0..len).map(|i| (i % 13) as f32 / 7.0 - 0.9).collect();
            let mut acc = [0.0f64; LANES];
            for (t, &x) in xs.iter().enumerate() {
                acc[t % LANES] += f64::from(x) * f64::from(x);
            }
            let want =
                ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
            assert_eq!(sum_sq_lanes(&xs).to_bits(), want.to_bits(), "{len}");
        }
    }

    /// Fed in runs cut anywhere — empty runs, runs shorter than a lane row,
    /// runs that start mid-row — and mixing f32 with bf16, the carried
    /// lanes sum what `sum_sq_lanes` sums over the whole sequence.
    #[test]
    fn carried_lanes_are_sum_sq_lanes_of_the_runs_laid_end_to_end() {
        let xs: Vec<f32> = (0..101).map(|i| (i % 13) as f32 / 7.0 - 0.9).collect();
        let narrowed: Vec<u16> = xs.iter().map(|&x| crate::bf16::narrow(x)).collect();
        let widened: Vec<f32> = narrowed.iter().map(|&b| crate::bf16::widen(b)).collect();
        for cuts in [
            vec![],
            vec![0, 0, 3],
            vec![1, 2, 3, 4, 5],
            vec![8, 16, 17, 40, 99],
            vec![13, 26, 39, 52, 65, 78, 91],
            vec![7, 7, 100],
        ] {
            let mut bounds = vec![0];
            bounds.extend(&cuts);
            bounds.push(xs.len());
            let mut acc = SqLanes::default();
            let mut whole = Vec::new();
            for (i, w) in bounds.windows(2).enumerate() {
                // Every other run is read from the bf16 copy.
                if i % 2 == 0 {
                    acc.add(&xs[w[0]..w[1]]);
                    whole.extend_from_slice(&xs[w[0]..w[1]]);
                } else {
                    acc.add(&narrowed[w[0]..w[1]]);
                    whole.extend_from_slice(&widened[w[0]..w[1]]);
                }
            }
            assert_eq!(
                acc.sum().to_bits(),
                sum_sq_lanes(&whole).to_bits(),
                "{cuts:?}"
            );
        }
    }

    #[test]
    fn axpy_lanes_is_bit_identical_to_scalar() {
        for len in [0usize, 1, 7, 8, 9, 40, 101] {
            let src: Vec<f32> = (0..len).map(|i| (i % 17) as f32 / 3.0 - 2.0).collect();
            let mut a: Vec<f32> = (0..len).map(|i| (i % 5) as f32).collect();
            let mut b = a.clone();
            axpy_lanes(0.37, &src, &mut a);
            for (d, &s) in b.iter_mut().zip(&src) {
                *d += 0.37 * s;
            }
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{len}"
            );
        }
    }

    #[test]
    fn epilogue_beta_zero_ignores_garbage() {
        let ep = Epilogue::AlphaBeta {
            alpha: 2.0,
            beta: 0.0,
        };
        assert_eq!(ep.apply(0, 3.0, f32::NAN), 6.0);
        let ep1 = Epilogue::AlphaBeta {
            alpha: 1.0,
            beta: 1.0,
        };
        assert_eq!(ep1.apply(0, 3.0, 4.0), 7.0);
    }

    #[test]
    fn bias_relu_epilogue_clamps() {
        let bias = [0.5f32, -10.0];
        let ep = Epilogue::BiasRelu(&bias);
        assert_eq!(ep.apply(0, 1.0, 9.9), 1.5);
        assert_eq!(ep.apply(1, 1.0, 9.9), 0.0);
    }

    #[test]
    fn top_list_orders_by_value_then_id() {
        let mut l = TopList::new(3);
        // Offered in ascending id order, as the contract requires.
        for (id, v) in [(0u32, 1.0f32), (1, 5.0), (2, 5.0), (3, 0.5), (4, 7.0)] {
            l.offer(v, id);
        }
        // 7.0@4, then the 5.0 tie resolves to the lower id first.
        assert_eq!(l.ids(), &[4, 1, 2]);
    }

    #[test]
    fn top_list_handles_fewer_candidates_than_k() {
        let mut l = TopList::new(5);
        l.offer(2.0, 7);
        l.offer(3.0, 9);
        assert_eq!(l.ids(), &[9, 7]);
    }

    #[test]
    fn offer_run_is_offer_per_element() {
        let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (state >> 33) % 40 {
                0 => f32::NAN,
                v => (v % 13) as f32 / 4.0 - 1.5, // few distinct values: many ties
            }
        };
        for k in [1usize, 2, 5, 32] {
            for len in [0usize, 1, 7, 8, 9, 64, 250] {
                let runs: Vec<Vec<f32>> =
                    (0..3).map(|_| (0..len).map(|_| next()).collect()).collect();
                let (mut by_run, mut by_element) = (TopList::new(k), TopList::new(k));
                for (p, run) in runs.iter().enumerate() {
                    let first = (p * len) as u32;
                    by_run.offer_run(run, first);
                    for (l, &v) in run.iter().enumerate() {
                        by_element.offer(v, first + l as u32);
                    }
                }
                assert_eq!(by_run.ids(), by_element.ids(), "k {k} len {len}");
            }
        }
    }

    #[test]
    fn top_list_matches_full_sort_on_random_streams() {
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f32 / 250.0 - 2.0
        };
        for k in [1usize, 2, 5, 31, 32] {
            let vals: Vec<f32> = (0..200).map(|_| next()).collect();
            let mut l = TopList::new(k);
            for (id, &v) in vals.iter().enumerate() {
                l.offer(v, id as u32);
            }
            let mut order: Vec<u32> = (0..vals.len() as u32).collect();
            order.sort_by(|&x, &y| {
                vals[y as usize]
                    .partial_cmp(&vals[x as usize])
                    .unwrap()
                    .then(x.cmp(&y))
            });
            assert_eq!(l.ids(), &order[..k], "k={k}");
        }
    }
}
