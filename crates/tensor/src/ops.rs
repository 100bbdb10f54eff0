//! BLAS-like dense kernels: GEMM (NN/NT/TN), fused epilogues, axpy, scaling.
//!
//! This module is the checked, pool-parallel front of [`crate::kernels`]:
//! each public function asserts its shapes, splits the output rows and runs
//! one chunk kernel per range. Entry points that differ only in their
//! epilogue share a private driver (`gemm_nn` behind [`gemm`] / [`gemm_bias`]
//! / [`gemm_bias_relu`], `gemm_nt_gathered` behind [`gemm_nt_gather`] /
//! [`gemm_nt_gather_bias`]) that panics under the entry point's own name.
//!
//! The GEMM variants cover exactly the products the 3-layer MLP needs, with
//! `W₂` stored once, class-major (`classes × hidden`, i.e. `W₂ᵀ` of the
//! `H·W₂` the forward computes):
//!
//! * forward output layer: `O = H · W₂` — [`gemm_bt_bias`], which packs its
//!   `B` panels out of the class-major rows, or fused all the way into top-k
//!   selection as [`gemm_bt_bias_topk`]; both are bit for bit
//!   [`gemm_bias`] / [`gemm_bias_topk`] over the hidden-major transpose
//! * backward through the output layer: `dH = dO · W₂ᵀ` — [`gemm`] over the
//!   class-major rows as they are, so the reduction over classes is a
//!   row-streaming product (K-blocked: it is thousands of steps long)
//!   rather than [`gemm_nt`]'s strided dots
//! * weight gradient, class-major: `∇W₂ᵀ = dOᵀ · H` — [`gemm_tn`]
//!
//! [`gemm_nt`]'s dot body serves the sampled forward
//! ([`gemm_nt_gather_bias`]) and `asgd-slide`'s signature sweep.
//!
//! All variants parallelize over output rows via
//! [`crate::parallel::par_chunks_mut`] and run the register-tiled micro-
//! kernels of [`crate::kernels`] inside each row chunk; see that module for
//! the lane-width-8 reduction contract and the shared epilogue definition.

use crate::kernels::{self, AOperand, BRows, Epilogue, RowMajorA, TransposedA};
use crate::parallel::{par_chunks_mut, MIN_PAR_ROWS};
use crate::{MatRef, Matrix};

pub use crate::kernels::TOPK_STREAM_MAX;

/// The one `A·B` front behind [`gemm`], [`gemm_bias`], [`gemm_bt_bias`]
/// and [`gemm_bias_relu`], which differ only in the epilogue and in whether
/// `b` holds `B` or `Bᵀ`: shape checks (panicking under the public entry
/// point's `name`), then the row-chunked kernel.
fn gemm_nn(name: &str, a: &Matrix, b: MatRef<'_>, transposed: bool, c: &mut Matrix, ep: Epilogue) {
    let (k, n, rows) = b_shape(b, transposed);
    assert_eq!(a.cols(), k, "{name} inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "{name} output rows mismatch");
    assert_eq!(c.cols(), n, "{name} output cols mismatch");
    if let Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) = ep {
        assert_eq!(bias.len(), n, "{name} bias length mismatch");
    }
    row_streaming(RowMajorA { a: a.as_slice(), k }, b, rows, c, ep);
}

/// `B`'s reduction length, its width and its rows, from `b` holding `B`
/// (`k × n`) or, `transposed`, `Bᵀ` (`n × k`).
fn b_shape(b: MatRef<'_>, transposed: bool) -> (usize, usize, BRows<'static>) {
    if transposed {
        let (n, k) = b.shape();
        (k, n, BRows::Transposed { k, stride: k })
    } else {
        let (k, n) = b.shape();
        (k, n, BRows::All(k))
    }
}

/// The pool-parallel tail of every row-streaming product, shapes already
/// checked: `c`'s rows are split into contiguous ranges and each runs
/// [`kernels::gemm_chunk`] over `rows` of `b`.
fn row_streaming(a: impl AOperand + Sync, b: MatRef, rows: BRows, c: &mut Matrix, ep: Epilogue) {
    let (m, n) = c.shape();
    if m == 0 || n == 0 {
        return;
    }
    let b_data = b.as_slice();
    par_chunks_mut(c.as_mut_slice(), m, n, MIN_PAR_ROWS, |first_row, chunk| {
        kernels::gemm_chunk(a, b_data, rows, n, first_row, chunk, ep);
    });
}

/// `C = alpha * A·B + beta * C` (no transposes).
///
/// Per-element reduction is ascending-`k` serial (contract rule 1); the
/// epilogue is [`Epilogue::AlphaBeta`].
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm<'b>(alpha: f32, a: &Matrix, b: impl Into<MatRef<'b>>, beta: f32, c: &mut Matrix) {
    let ep = Epilogue::AlphaBeta { alpha, beta };
    gemm_nn("gemm", a, b.into(), false, c, ep);
}

/// `C = alpha * A·Bᵀ + beta * C`.
///
/// `A` is `m×k`, `B` is `n×k`, `C` is `m×n`. Each element is a lane-tree dot
/// product of two contiguous rows (contract rule 2), so no transposition is
/// materialized.
pub fn gemm_nt(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    assert_eq!(a.cols(), b.cols(), "gemm_nt inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "gemm_nt output rows mismatch");
    assert_eq!(c.cols(), b.rows(), "gemm_nt output cols mismatch");
    let (m, k) = a.shape();
    let n = b.rows();
    if m == 0 || n == 0 {
        return;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let ep = Epilogue::AlphaBeta { alpha, beta };
    par_chunks_mut(c.as_mut_slice(), m, n, MIN_PAR_ROWS, |first_row, chunk| {
        kernels::gemm_nt_chunk(a_data, k, b_data, n, first_row, chunk, ep);
    });
}

/// `C = alpha * Aᵀ·B + beta * C`.
///
/// `A` is `k×m`, `B` is `k×n`, `C` is `m×n`. Parallelized over rows of `C`
/// (columns of `A`); per-element reduction is ascending-`k` serial
/// (contract rule 1) — the same register tiles as [`gemm`], reading `A` by
/// columns.
pub fn gemm_tn(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    assert_eq!(a.rows(), b.rows(), "gemm_tn inner dimension mismatch");
    assert_eq!(c.rows(), a.cols(), "gemm_tn output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "gemm_tn output cols mismatch");
    let (k, m) = a.shape();
    let a = TransposedA { a: a.as_slice(), m };
    let ep = Epilogue::AlphaBeta { alpha, beta };
    row_streaming(a, b.into(), BRows::All(k), c, ep);
}

/// The one driver behind [`gemm_nt_gather`] and [`gemm_nt_gather_bias`],
/// which differ only in the epilogue: shape and index checks (panicking
/// under the public entry point's `name`), then the row-chunked kernel.
fn gemm_nt_gathered(name: &str, a: &Matrix, b: MatRef, idx: &[u32], c: &mut Matrix, ep: Epilogue) {
    assert_eq!(a.cols(), b.cols(), "{name} inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "{name} output rows mismatch");
    assert_eq!(c.cols(), idx.len(), "{name} output cols mismatch");
    if let Epilogue::Bias(bias) = ep {
        assert_eq!(bias.len(), idx.len(), "{name} bias length mismatch");
    }
    assert!(
        idx.iter().all(|&i| (i as usize) < b.rows()),
        "{name} index out of range"
    );
    let (m, k) = a.shape();
    let n = idx.len();
    if m == 0 || n == 0 {
        return;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    par_chunks_mut(c.as_mut_slice(), m, n, MIN_PAR_ROWS, |first_row, chunk| {
        let b_row = |j: usize| &b_data[idx[j] as usize * k..][..k];
        kernels::nt_chunk(a_data, k, n, first_row, chunk, ep, b_row);
    });
}

/// `C = alpha * A·gather(B, idx)ᵀ + beta * C` — the sampled-softmax forward
/// kernel. `A` is `m×k`, `B` is `rows×k` row-major, and column `j` of `C`
/// is the lane-tree dot (contract rule 2) of `A[i]` with row `idx[j]` of
/// `B`: only the `idx.len()` sampled rows are touched, never the full `B`.
/// Bit-identical to [`gemm_nt`] against a materialized `idx.len()×k` gather.
///
/// # Panics
/// Panics on dimension mismatch or when an index is out of `B`'s rows.
pub fn gemm_nt_gather(alpha: f32, a: &Matrix, b: &Matrix, idx: &[u32], beta: f32, c: &mut Matrix) {
    let ep = Epilogue::AlphaBeta { alpha, beta };
    gemm_nt_gathered("gemm_nt_gather", a, b.into(), idx, c, ep);
}

/// [`gemm_nt_gather`] fused with a bias add: `C[i][j] = A[i]·B[idx[j]] +
/// bias[j]`. The bias is *compact* — entry `j` belongs to sampled column
/// `j`, i.e. the caller passes the gathered `b₂[idx[j]]` values, not the
/// full bias vector.
///
/// # Panics
/// Panics on dimension mismatch or when an index is out of `B`'s rows.
pub fn gemm_nt_gather_bias<'b>(
    a: &Matrix,
    b: impl Into<MatRef<'b>>,
    idx: &[u32],
    bias: &[f32],
    c: &mut Matrix,
) {
    let ep = Epilogue::Bias(bias);
    gemm_nt_gathered("gemm_nt_gather_bias", a, b.into(), idx, c, ep);
}

/// `C = alpha * A·gather(B, idx) + beta * C` — the sampled-softmax backward
/// kernel. `A` is `m×idx.len()` (compact sampled dlogits), `B` is
/// `rows×n` row-major, and the reduction runs over the gathered rows
/// `B[idx[0]], B[idx[1]], …` in ascending sample order (contract rule 1).
/// Bit-identical to [`gemm`] against a materialized `idx.len()×n` gather.
///
/// # Panics
/// Panics on dimension mismatch or when an index is out of `B`'s rows.
pub fn gemm_nn_gather<'b>(
    alpha: f32,
    a: &Matrix,
    b: impl Into<MatRef<'b>>,
    idx: &[u32],
    beta: f32,
    c: &mut Matrix,
) {
    let b = b.into();
    assert_eq!(
        a.cols(),
        idx.len(),
        "gemm_nn_gather inner dimension mismatch"
    );
    assert_eq!(c.rows(), a.rows(), "gemm_nn_gather output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "gemm_nn_gather output cols mismatch");
    assert!(
        idx.iter().all(|&i| (i as usize) < b.rows()),
        "gemm_nn_gather index out of range"
    );
    let a = RowMajorA {
        a: a.as_slice(),
        k: idx.len(),
    };
    let ep = Epilogue::AlphaBeta { alpha, beta };
    row_streaming(a, b, BRows::Gathered(idx), c, ep);
}

/// Fused forward logits: `C = A·B + bias` (bias broadcast over rows) — one
/// pass over the wide output row instead of GEMM + a separate bias sweep.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_bias<'b>(a: &Matrix, b: impl Into<MatRef<'b>>, bias: &[f32], c: &mut Matrix) {
    gemm_nn("gemm_bias", a, b.into(), false, c, Epilogue::Bias(bias));
}

/// [`gemm_bias`] with `B` given transposed: `C = A·btᵀ + bias`, `bt` being
/// `n×k` row-major — the forward logits over the class-major `W₂`. Each
/// panel of `B` is packed by transposing `bt`'s rows ([`kernels::transpose_block`]),
/// then reduced by the same tiles in the same order, so the result is bit
/// for bit [`gemm_bias`] over `bt`'s transpose.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_bt_bias<'b>(a: &Matrix, bt: impl Into<MatRef<'b>>, bias: &[f32], c: &mut Matrix) {
    gemm_nn("gemm_bt_bias", a, bt.into(), true, c, Epilogue::Bias(bias));
}

/// Fused forward activation: `C = relu(A·B + bias)` — GEMM, bias add, and
/// ReLU in a single pass (the `H = relu(X·W₁ + b₁)` dense analogue; the
/// sparse forward uses `asgd_sparse`'s fused spmm).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_bias_relu(a: &Matrix, b: &Matrix, bias: &[f32], c: &mut Matrix) {
    let ep = Epilogue::BiasRelu(bias);
    gemm_nn("gemm_bias_relu", a, b.into(), false, c, ep);
}

/// Fused logits→top-k: for each row of `A`, computes the logits
/// `A·B + bias` tile by tile *in registers* and streams them into a top-`k`
/// selection ordered by `(logit desc, class id asc)` — the wide `m×n` logit
/// matrix is never materialized. `out` receives `m` rows of `k` class ids,
/// best first.
///
/// Softmax is strictly monotone per row, so top-k over logits equals top-k
/// over softmax probabilities (the serving/eval contract).
///
/// # Panics
/// Panics on dimension mismatch, `out.len() != m·k`, `k == 0`,
/// `k > TOPK_STREAM_MAX`, or `k > b.cols()`.
pub fn gemm_bias_topk<'b>(
    a: &Matrix,
    b: impl Into<MatRef<'b>>,
    bias: &[f32],
    k: usize,
    out: &mut [u32],
) {
    topk("gemm_bias_topk", a, b.into(), false, bias, k, out);
}

/// [`gemm_bias_topk`] with `B` given transposed (`bt` is `n×k` row-major,
/// the class-major `W₂`): panels packed as [`gemm_bt_bias`] packs them, so
/// the ids are bit for bit those of [`gemm_bias_topk`] over `bt`'s
/// transpose.
///
/// # Panics
/// As [`gemm_bias_topk`].
pub fn gemm_bt_bias_topk<'b>(
    a: &Matrix,
    bt: impl Into<MatRef<'b>>,
    bias: &[f32],
    k: usize,
    out: &mut [u32],
) {
    topk("gemm_bt_bias_topk", a, bt.into(), true, bias, k, out);
}

/// The one front behind [`gemm_bias_topk`] and [`gemm_bt_bias_topk`]:
/// shape checks under the entry point's `name`, then the row-chunked
/// selection.
fn topk(
    name: &str,
    a: &Matrix,
    b: MatRef,
    transposed: bool,
    bias: &[f32],
    k: usize,
    out: &mut [u32],
) {
    let (kdim, n, rows) = b_shape(b, transposed);
    assert_eq!(a.cols(), kdim, "{name} inner dimension mismatch");
    assert_eq!(bias.len(), n, "{name} bias length mismatch");
    let m = a.rows();
    assert!(
        (1..=TOPK_STREAM_MAX).contains(&k) && k <= n,
        "{name} k={k} out of range (n={n}, max {TOPK_STREAM_MAX})"
    );
    assert_eq!(out.len(), m * k, "{name} output length mismatch");
    if m == 0 {
        return;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    par_chunks_mut(out, m, k, MIN_PAR_ROWS, |first_row, chunk| {
        kernels::gemm_bias_topk_chunk(a_data, kdim, b_data, rows, n, bias, first_row, k, chunk);
    });
}

/// `y += a * x` over raw slices (lengths must match).
///
/// Serial on purpose: axpy is memory-bandwidth-bound, and its callers (model
/// updates) already run one-per-device on separate threads.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    kernels::axpy_lanes(a, x, y);
}

/// Scales a slice in place.
pub fn scale(a: f32, x: &mut [f32]) {
    for v in x.iter_mut() {
        *v *= a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{KC, NB, NR};
    use crate::{numerics, reference};

    fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.at(i, k) * b.at(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn test_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = (r * 31 + c * 17 + seed as usize) % 13;
            x as f32 / 7.0 - 0.9
        })
    }

    #[test]
    fn gemm_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (17, 9, 33), (64, 32, 48)] {
            let a = test_mat(m, k, 1);
            let b = test_mat(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            gemm(1.0, &a, &b, 0.0, &mut c);
            assert!(c.max_abs_diff(&naive_gemm(&a, &b)) < 1e-4, "({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = test_mat(4, 3, 1);
        let b = test_mat(3, 5, 2);
        let mut c = test_mat(4, 5, 3);
        let c0 = c.clone();
        gemm(2.0, &a, &b, 0.5, &mut c);
        let naive = naive_gemm(&a, &b);
        for i in 0..4 {
            for j in 0..5 {
                let want = 2.0 * naive.at(i, j) + 0.5 * c0.at(i, j);
                assert!((c.at(i, j) - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let a = test_mat(6, 7, 4);
        let b = test_mat(9, 7, 5);
        let mut c = Matrix::zeros(6, 9);
        gemm_nt(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&naive_gemm(&a, &b.transposed())) < 1e-4);
    }

    #[test]
    fn gemm_nt_beta_uses_unified_epilogue() {
        // All variants share Epilogue::AlphaBeta: alpha·s + beta·c per
        // element, applied once after the full reduction.
        let a = test_mat(5, 7, 4);
        let b = test_mat(6, 7, 5);
        let mut c = test_mat(5, 6, 6);
        let c0 = c.clone();
        gemm_nt(2.0, &a, &b, 0.5, &mut c);
        let naive = naive_gemm(&a, &b.transposed());
        for i in 0..5 {
            for j in 0..6 {
                let want = 2.0 * naive.at(i, j) + 0.5 * c0.at(i, j);
                assert!((c.at(i, j) - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = test_mat(7, 6, 6);
        let b = test_mat(7, 9, 7);
        let mut c = Matrix::zeros(6, 9);
        gemm_tn(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&naive_gemm(&a.transposed(), &b)) < 1e-4);
    }

    #[test]
    fn gemm_tn_beta_accumulates() {
        let a = test_mat(5, 4, 8);
        let b = test_mat(5, 3, 9);
        let mut c = test_mat(4, 3, 10);
        let c0 = c.clone();
        gemm_tn(1.0, &a, &b, 1.0, &mut c);
        let naive = naive_gemm(&a.transposed(), &b);
        for i in 0..4 {
            for j in 0..3 {
                assert!((c.at(i, j) - (naive.at(i, j) + c0.at(i, j))).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn large_parallel_gemm_matches_serial_result() {
        // Big enough to trigger the parallel path.
        let a = test_mat(200, 64, 11);
        let b = test_mat(64, 120, 12);
        let mut c = Matrix::zeros(200, 120);
        gemm(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&naive_gemm(&a, &b)) < 1e-3);
    }

    #[test]
    fn gemm_bias_fuses_the_bias_add() {
        let a = test_mat(9, 5, 1);
        let b = test_mat(5, 21, 2);
        let bias: Vec<f32> = (0..21).map(|j| j as f32 * 0.1 - 1.0).collect();
        let mut fused = Matrix::zeros(9, 21);
        gemm_bias(&a, &b, &bias, &mut fused);
        let mut two_pass = Matrix::zeros(9, 21);
        gemm(1.0, &a, &b, 0.0, &mut two_pass);
        for r in 0..9 {
            for (j, &bj) in bias.iter().enumerate() {
                let want = two_pass.at(r, j) + bj;
                assert_eq!(fused.at(r, j).to_bits(), want.to_bits(), "({r},{j})");
            }
        }
    }

    #[test]
    fn gemm_bias_relu_clamps_negatives() {
        let a = test_mat(7, 6, 3);
        let b = test_mat(6, 13, 4);
        let bias: Vec<f32> = (0..13).map(|j| j as f32 * 0.2 - 1.3).collect();
        let mut fused = Matrix::zeros(7, 13);
        gemm_bias_relu(&a, &b, &bias, &mut fused);
        let mut plain = Matrix::zeros(7, 13);
        gemm_bias(&a, &b, &bias, &mut plain);
        let mut saw_clamp = false;
        for r in 0..7 {
            for j in 0..13 {
                let pre = plain.at(r, j);
                let want = if pre < 0.0 { 0.0 } else { pre };
                if pre < 0.0 {
                    saw_clamp = true;
                }
                assert_eq!(fused.at(r, j).to_bits(), want.to_bits());
            }
        }
        assert!(saw_clamp, "test shape never exercised the clamp");
    }

    #[test]
    fn gemm_bias_topk_matches_materialized_sort() {
        // However the pool splits the rows: 11 × 37 is one panel and too few
        // rows to pack for (strided groups of 4 + 4 + 3); 70 × 600 is three
        // panels with a tail, packed blocks of 32 and a strided rest; 33 × 300
        // leaves an odd row out; 50 × 530 has a packed block of 16–31 rows.
        for (m, n) in [(11usize, 37usize), (70, 600), (33, 300), (50, 530)] {
            let a = test_mat(m, 8, 5);
            let b = test_mat(8, n, 6);
            let bias: Vec<f32> = (0..n).map(|j| (j % 5) as f32 * 0.3 - 0.6).collect();
            let mut logits = Matrix::zeros(m, n);
            gemm_bias(&a, &b, &bias, &mut logits);
            for k in [1usize, 3, 10, 32] {
                let mut out = vec![0u32; m * k];
                gemm_bias_topk(&a, &b, &bias, k, &mut out);
                for r in 0..m {
                    let row = logits.row(r);
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    order.sort_by(|&x, &y| {
                        row[y as usize]
                            .partial_cmp(&row[x as usize])
                            .unwrap()
                            .then(x.cmp(&y))
                    });
                    assert_eq!(
                        &out[r * k..(r + 1) * k],
                        &order[..k],
                        "{m}x{n} row {r} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn avx2_leaves_and_portable_twins_agree_bit_for_bit() {
        // Every leaf of this crate under the one switch (`asgd-sparse` and
        // `asgd-model` have the sibling tests for theirs). Shapes reach full
        // register tiles, the `w % NR` tail with and without its half-width
        // tile (an 8-column output is nothing else), 1–3-row remainder
        // groups, several panels, both top-k paths (packed blocks inside the 37
        // rows; the strided walk at 7 and 3 rows) and the blocked and
        // leftover dots of the gathered kernels; the bf16 lengths cross the
        // 16-lane loop, the 8-lane loop and the scalar remainder. The K-blocked
        // products and the softmax have their own cases below.
        let run = |portable: bool| {
            kernels::force_portable(portable);
            let mut bits = Vec::new();
            for (m, k, n) in [
                (7usize, 9usize, 300usize),
                (37, 16, 530),
                (3, 5, 21),
                (37, 48, 8),
            ] {
                let a = test_mat(m, k, 11);
                let b = test_mat(k, n, 12);
                let bias: Vec<f32> = (0..n).map(|j| (j % 7) as f32 * 0.11 - 0.3).collect();
                let mut nn = Matrix::from_fn(m, n, |r, c| (r + c) as f32 * 0.01);
                gemm(0.7, &a, &b, 0.3, &mut nn);
                // β = 0 must not read the prior output at all.
                let mut scaled = Matrix::from_fn(m, n, |_, _| f32::NAN);
                gemm(-1.3, &a, &b, 0.0, &mut scaled);
                let mut biased = Matrix::zeros(m, n);
                gemm_bias(&a, &b, &bias, &mut biased);
                let at = test_mat(k, m, 13);
                let mut tn = Matrix::zeros(m, n);
                gemm_tn(1.0, &at, &b, 0.0, &mut tn);
                let mut ids = vec![0u32; m * 5];
                gemm_bias_topk(&a, &b, &bias, 5, &mut ids);
                // The transposing `B` pack, over the class-major copy.
                let b_t = b.transposed();
                let mut biased_t = Matrix::zeros(m, n);
                gemm_bt_bias(&a, &b_t, &bias, &mut biased_t);
                let mut ids_t = vec![0u32; m * 5];
                gemm_bt_bias_topk(&a, &b_t, &bias, 5, &mut ids_t);
                bits.extend(biased_t.as_slice().iter().map(|v| v.to_bits()));
                bits.extend(ids_t);
                let idx: Vec<u32> = (0..n as u32).step_by(3).collect();
                let bt = test_mat(n, k, 14);
                let mut logits = Matrix::zeros(m, idx.len());
                gemm_nt_gather_bias(&a, &bt, &idx, &bias[..idx.len()], &mut logits);
                let mut back = Matrix::zeros(m, k);
                gemm_nn_gather(1.0, &logits, &bt, &idx, 0.0, &mut back);
                for out in [&nn, &scaled, &biased, &tn, &logits, &back] {
                    bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
                }
                bits.extend(ids);
            }
            // `BiasRelu` on every kind of sum, in full tiles and in the
            // tail: `A` in (0, ½) times `B`'s smallest negative subnormal
            // rounds to -0.0, so columns 3, 19 and 35 sum to -0.0 and their
            // -0.0 bias keeps them there; NaN and ±∞ biases elsewhere, and
            // plenty of ordinary negative sums.
            let a = Matrix::from_fn(6, 5, |r, c| ((r * 3 + c) % 8) as f32 / 20.0 + 0.05);
            let b = Matrix::from_fn(5, 40, |r, c| match c % 16 {
                3 => -f32::from_bits(1),
                _ => ((r + c) % 7) as f32 * 0.3 - 0.9,
            });
            let bias: Vec<f32> = (0..40)
                .map(|j| match j % 16 {
                    3 => -0.0,
                    5 => f32::NAN,
                    6 => f32::INFINITY,
                    7 => f32::NEG_INFINITY,
                    _ => (j % 5) as f32 * 0.2 - 0.5,
                })
                .collect();
            let mut relu = Matrix::zeros(6, 40);
            gemm_bias_relu(&a, &b, &bias, &mut relu);
            let relu = relu.as_slice();
            for (j, want) in [
                (3, -0.0f32),
                (19, -0.0),
                (35, -0.0),
                (5, f32::NAN),
                (22, f32::INFINITY),
            ] {
                assert_eq!(relu[j].to_bits(), want.to_bits(), "relu column {j}");
            }
            bits.extend(relu.iter().map(|v| v.to_bits()));
            // The packed top-k's select finisher: hidden 8 and 64, 16–37
            // rows (packed blocks, strided remainders wherever the pool
            // splits off fewer than 16), widths around one tile, one panel
            // and two, and a list still filling after the first tile
            // (k = 32). Logits are multiples of 1/16, so ties are
            // everywhere; columns 14–17 and 254–257 tie at the top across a
            // tile and a panel boundary; columns 2 and 300 have a NaN bias
            // and the last row is NaN throughout.
            for kdim in [8usize, 64] {
                for m in [16usize, 17, 33, 37] {
                    let mut a =
                        Matrix::from_fn(m, kdim, |r, c| ((r * 7 + c * 3) % 9) as f32 / 4.0 - 1.0);
                    a.set(m - 1, 0, f32::NAN);
                    for n in [NR - 1, NR, NR + 1, NB + 5, 2 * NB + 37] {
                        let b = Matrix::from_fn(kdim, n, |r, c| {
                            let c = match c {
                                14..=17 => 14,
                                254..=257 => 254,
                                c => c,
                            };
                            ((r * 5 + c * 11) % 7) as f32 / 4.0 - 0.75
                        });
                        let bias: Vec<f32> = (0..n)
                            .map(|j| match j {
                                14..=17 | 254..=257 => 100.0,
                                2 | 300 => f32::NAN,
                                j => (j % 3) as f32 / 8.0,
                            })
                            .collect();
                        for k in [1usize, 5, 32].into_iter().filter(|&k| k <= n) {
                            let mut ids = vec![0u32; m * k];
                            gemm_bias_topk(&a, &b, &bias, k, &mut ids);
                            bits.extend(ids);
                        }
                    }
                }
            }
            bits.extend(
                k_blocked_products(false)
                    .iter()
                    .flat_map(|m| m.as_slice())
                    .map(|v| v.to_bits()),
            );
            bits.extend(
                planted_softmaxes()
                    .iter()
                    .flat_map(|m| m.as_slice())
                    .map(|v| v.to_bits()),
            );
            for len in 0..64usize {
                let xs: Vec<f32> = (0..len)
                    .map(|i| match (i + len) % 23 {
                        5 => f32::NAN,
                        7 => f32::NEG_INFINITY,
                        v => v as f32 * 0.173 - 2.1,
                    })
                    .collect();
                let mut narrow = vec![0u16; len];
                crate::bf16::narrow_slice(&xs, &mut narrow);
                let mut wide = vec![0.0f32; len];
                crate::bf16::widen_slice(&narrow, &mut wide);
                bits.extend(wide.iter().map(|v| v.to_bits()));
                bits.extend(narrow.iter().map(|&b| u32::from(b)));
            }
            bits.extend(transposes());
            bits.extend(nt_products());
            kernels::force_portable(false);
            bits
        };
        assert_eq!(run(false), run(true));
    }

    /// A distinct bit pattern per element, NaN (with a payload), `-0.0` and
    /// `±∞` among them: a copy kernel must move patterns, not numbers.
    fn patterned(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| match (r * cols + c) % 61 {
            0 => -0.0,
            1 => f32::from_bits(0x7fc0_1234),
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            v => (r * 3 + c * 7) as f32 * 0.125 - v as f32,
        })
    }

    /// Every transpose path, as bits: `transposed` on shapes on and off
    /// the 8 × 8 blocks and the 64-square tiles — 1 × n, n × 1, the sampled
    /// (64 × 67,009) and dense (128 × 6,701) `W₂` shapes — and
    /// `kernels::transpose_block` on column ranges starting at `first > 0`
    /// (the transposing `B` panel's K blocks start mid-row).
    fn transposes() -> Vec<u32> {
        let mut bits = Vec::new();
        for (rows, cols) in [
            (1usize, 300usize),
            (300, 1),
            (7, 9),
            (9, 7),
            (8, 8),
            (13, 70),
            (70, 13),
            (65, 129),
            (64, 67_009),
            (128, 6_701),
        ] {
            let m = patterned(rows, cols);
            bits.extend(m.transposed().as_slice().iter().map(|v| v.to_bits()));
        }
        let src = patterned(37, 150);
        for (rows, first, n) in [
            (37usize, 3usize, 29usize),
            (8, 17, 64),
            (5, 149, 1),
            (37, 9, 141),
        ] {
            let mut out = vec![0.0f32; rows * n];
            kernels::transpose_block(&src.as_slice()[first..], rows, 150, &mut out);
            bits.extend(out.iter().map(|v| v.to_bits()));
        }
        bits
    }

    /// Every rule-2 product, as bits: `gemm_nt` (β = 0 over a NaN prior
    /// `C`, β ≠ 0), `gemm_nt_gather`, `gemm_nt_gather_bias` and the chunk
    /// kernel under `BiasRelu`, at reduction lengths around the 8-lane
    /// blocks (1, 7, 8, 9, 63, 64, 65, 520) and widths around the 8-row
    /// tiles (1, 7, 8, 9, 72, 301), 3 and 17 rows (no split, a pool split),
    /// with NaN, `±∞` and `-0.0` planted in `A` and `B`. Which of two NaNs
    /// an add returns is IEEE's choice of operand order, which codegen does
    /// not pin, so NaN results are compared as NaN.
    fn nt_products() -> Vec<u32> {
        let planted = |rows: usize, cols: usize, seed: usize| {
            Matrix::from_fn(rows, cols, |r, c| match (r * 131 + c * 17 + seed) % 101 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 | 4 => -0.0,
                v => (v % 13) as f32 / 7.0 - 0.9,
            })
        };
        let canon = |v: &f32| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        };
        let mut bits = Vec::new();
        for k in [1usize, 7, 8, 9, 63, 64, 65, 520] {
            for n in [1usize, 7, 8, 9, 72, 301] {
                for m in [3usize, 17] {
                    let a = planted(m, k, 1);
                    let b = planted(n, k, 2);
                    let mut beta0 = Matrix::from_fn(m, n, |_, _| f32::NAN);
                    gemm_nt(0.7, &a, &b, 0.0, &mut beta0);
                    let mut beta = test_mat(m, n, 3);
                    gemm_nt(-1.1, &a, &b, 0.5, &mut beta);
                    let rows = 2 * n + 3;
                    let bg = planted(rows, k, 4);
                    let idx: Vec<u32> = (0..n).map(|j| ((j * 7 + 5) % rows) as u32).collect();
                    let mut gathered = test_mat(m, n, 5);
                    gemm_nt_gather(1.3, &a, &bg, &idx, 0.25, &mut gathered);
                    let bias: Vec<f32> = (0..n)
                        .map(|j| match j % 5 {
                            0 => -0.0,
                            1 => f32::INFINITY,
                            _ => (j % 9) as f32 * 0.2 - 0.8,
                        })
                        .collect();
                    let mut biased = Matrix::zeros(m, n);
                    gemm_nt_gather_bias(&a, &bg, &idx, &bias, &mut biased);
                    let mut relu = vec![0.0f32; m * n];
                    let ep = kernels::Epilogue::BiasRelu(&bias);
                    kernels::gemm_nt_chunk(a.as_slice(), k, b.as_slice(), n, 0, &mut relu, ep);
                    for out in [beta0.as_slice(), beta.as_slice(), gathered.as_slice()] {
                        bits.extend(out.iter().map(canon));
                    }
                    bits.extend(biased.as_slice().iter().chain(&relu).map(canon));
                }
            }
        }
        bits
    }

    /// The reduction lengths around the K-block size: one step, a block less
    /// one, exactly one, one more, and three blocks and a short fourth.
    const K_BLOCKED: [usize; 5] = [1, KC - 1, KC, KC + 1, 3 * KC + 5];

    /// Every row-streaming product at every length of [`K_BLOCKED`], under
    /// every epilogue: `AlphaBeta` at β = 0 over a NaN prior `C` (which it
    /// must never read) and at β ≠ 0, `Bias`, `BiasRelu` (the bias puts
    /// about half the sums below zero), `gemm_tn` and `gemm_nn_gather` —
    /// 6 rows (an `MR` group and a 2-row one) by 269 columns (a packed
    /// panel of 16-column tiles and a 13-column one: a half-width tile and
    /// a 5-column tail, resuming their carries like the tiles).
    /// With `ordered`, the `reference::*_ordered` specs compute them
    /// instead, the bias epilogues applied to their plain product.
    fn k_blocked_products(ordered: bool) -> Vec<Matrix> {
        type Nn = fn(f32, &Matrix, &Matrix, f32, &mut Matrix);
        type Gather = fn(f32, &Matrix, &Matrix, &[u32], f32, &mut Matrix);
        let (nn, tn, gather): (Nn, Nn, Gather) = if ordered {
            use reference::{gemm_nn_gather_ordered, gemm_ordered, gemm_tn_ordered};
            (gemm_ordered, gemm_tn_ordered, gemm_nn_gather_ordered)
        } else {
            (
                |al, a, b, be, c| gemm(al, a, b, be, c),
                gemm_tn,
                |al, a, b, idx, be, c| gemm_nn_gather(al, a, b, idx, be, c),
            )
        };
        let (m, n) = (6usize, NB + 13);
        let mut outs = Vec::new();
        for k in K_BLOCKED {
            let a = test_mat(m, k, 21);
            let b = test_mat(k, n, 22);
            let bias: Vec<f32> = (0..n).map(|j| (j % 9) as f32 * 0.25 - 1.0).collect();
            let mut beta0 = Matrix::from_fn(m, n, |_, _| f32::NAN);
            nn(-0.7, &a, &b, 0.0, &mut beta0);
            let mut beta = test_mat(m, n, 23);
            nn(1.3, &a, &b, 0.5, &mut beta);
            let (mut biased, mut relu) = (Matrix::zeros(m, n), Matrix::zeros(m, n));
            if ordered {
                nn(1.0, &a, &b, 0.0, &mut biased);
                biased = Matrix::from_fn(m, n, |r, j| biased.at(r, j) + bias[j]);
                relu = Matrix::from_fn(m, n, |r, j| match biased.at(r, j) {
                    v if v < 0.0 => 0.0,
                    v => v,
                });
            } else {
                gemm_bias(&a, &b, &bias, &mut biased);
                gemm_bias_relu(&a, &b, &bias, &mut relu);
            }
            let mut tn_out = test_mat(m, n, 24);
            tn(0.9, &a.transposed(), &b, 1.0, &mut tn_out);
            let rows = k / 2 + 3;
            let idx: Vec<u32> = (0..k).map(|t| ((t * 7 + 3) % rows) as u32).collect();
            let mut gathered = test_mat(m, n, 26);
            gather(1.1, &a, &test_mat(rows, n, 25), &idx, 0.25, &mut gathered);
            outs.extend([beta0, beta, biased, relu, tn_out, gathered]);
        }
        outs
    }

    #[test]
    fn k_blocked_products_match_the_ordered_reference() {
        // Blocking the reduction must be invisible: every element is the
        // one ascending-k chain of fused multiply-adds, then the epilogue.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (got, want) = (k_blocked_products(false), k_blocked_products(true));
        for (case, (got, want)) in got.iter().zip(&want).enumerate() {
            let k = K_BLOCKED[case / 6];
            assert_eq!(bits(got), bits(want), "k {k} product {}", case % 6);
        }
    }

    /// Softmaxes of 1, 7, 8, 9 and 17 rows (a lone row, a short group, a
    /// whole group of eight interleaved sums, a group and a remainder) by 1,
    /// 7, 8, 13 and 6,701 columns (scalar only, one vector, a vector and a
    /// tail, the dense step's width). Rows by `r % 6`: ordinary logits; a
    /// NaN every 5th column (the whole row turns NaN); `+∞` every 7th (NaN
    /// and 0 after `∞ − ∞`); `-∞`, `+0` and `-0` planted; `-200` and a `95`
    /// planted, so the rest fall more than 88 — and `-200` more than 103.97
    /// — below the maximum, onto the exp's special-case path; all `-∞`.
    fn planted_softmaxes() -> Vec<Matrix> {
        let mut outs = Vec::new();
        for rows in [1usize, 7, 8, 9, 17] {
            for cols in [1usize, 7, 8, 13, 6701] {
                let mut m = Matrix::from_fn(rows, cols, |r, c| {
                    let v = ((r * 7 + c * 13) % 29) as f32 * 0.37 - 5.0;
                    match (r % 6, c) {
                        (1, c) if c % 5 == 2 => f32::NAN,
                        (2, c) if c % 7 == 3 => f32::INFINITY,
                        (3, c) if c % 3 == 0 => f32::NEG_INFINITY,
                        (3, c) if c % 4 == 1 => 0.0,
                        (3, c) if c % 4 == 2 => -0.0,
                        (4, c) if c % 6 == 1 => -200.0,
                        (4, c) if c % 11 == 5 => 95.0,
                        (5, _) => f32::NEG_INFINITY,
                        _ => v,
                    }
                });
                numerics::softmax_rows_inplace(&mut m);
                outs.push(m);
            }
        }
        outs
    }

    #[test]
    fn axpy_scale() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [10.0f32, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        scale(2.0, &mut y);
        assert_eq!(y, [24.0, 48.0, 72.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm(1.0, &a, &b, 0.0, &mut c);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::kernels::{KC, NB};
    use crate::reference;
    use proptest::prelude::*;

    fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-2.0f32..2.0, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v))
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Shapes that exercise every micro-kernel path: tiles, `MR` row
    /// remainders, `LANES` column remainders, single rows, sub-lane widths.
    fn edge_shape() -> impl Strategy<Value = (usize, usize, usize)> {
        (
            prop_oneof![Just(1usize), Just(3), 2usize..10],
            prop_oneof![Just(1usize), Just(7), Just(8), Just(9), 1usize..20],
            prop_oneof![
                Just(1usize),
                Just(5),
                Just(8),
                Just(16),
                Just(17),
                1usize..24
            ],
        )
    }

    fn alpha_beta() -> impl Strategy<Value = (f32, f32)> {
        (
            prop_oneof![Just(0.0f32), Just(1.0), -2.0f32..2.0],
            prop_oneof![Just(0.0f32), Just(1.0), Just(0.5)],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gemm_is_linear_in_alpha(
            a in mat_strategy(5, 4),
            b in mat_strategy(4, 6),
            alpha in -3.0f32..3.0,
        ) {
            let mut c1 = Matrix::zeros(5, 6);
            gemm(1.0, &a, &b, 0.0, &mut c1);
            let mut c2 = Matrix::zeros(5, 6);
            gemm(alpha, &a, &b, 0.0, &mut c2);
            for (x, y) in c1.as_slice().iter().zip(c2.as_slice()) {
                prop_assert!((alpha * x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn nt_tn_consistency((a, b) in (mat_strategy(6, 5), mat_strategy(7, 5))) {
            // (A·Bᵀ)ᵀ == B·Aᵀ
            let mut ab = Matrix::zeros(6, 7);
            gemm_nt(1.0, &a, &b, 0.0, &mut ab);
            let mut ba = Matrix::zeros(7, 6);
            gemm_nt(1.0, &b, &a, 0.0, &mut ba);
            prop_assert!(ab.transposed().max_abs_diff(&ba) < 1e-4);
        }

        /// The transposing `B` accessor is invisible: `gemm_bt_bias` over a
        /// class-major `B` is `gemm_bias` over its transpose bit for bit, and
        /// `gemm_bt_bias_topk` picks the same ids — `n` below, at and past
        /// one panel (`NB`), `k` off the 8 × 8 blocks and across a K block
        /// (`KC`), rows in a strided group, a packed block and both.
        #[test]
        fn transposed_b_is_the_plain_product_bit_for_bit(
            m in prop_oneof![Just(1usize), Just(3), Just(17), Just(37)],
            kdim in prop_oneof![Just(1usize), Just(7), Just(64), Just(KC - 3), Just(KC + 9)],
            n in prop_oneof![Just(NB - 1), Just(NB), Just(NB + 13), Just(5usize), 1usize..40],
            k in 1usize..=TOPK_STREAM_MAX,
            seed in 0u64..1000,
        ) {
            let a = Matrix::from_fn(m, kdim, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 7.0 - 0.9);
            let bt = Matrix::from_fn(n, kdim, |r, c| ((r * 23 + c * 29 + seed as usize) % 11) as f32 / 5.0 - 1.1);
            let b = bt.transposed();
            let bias: Vec<f32> = (0..n).map(|j| (j % 5) as f32 * 0.125 - 0.25).collect();
            let (mut plain, mut packed) = (Matrix::zeros(m, n), Matrix::zeros(m, n));
            gemm_bias(&a, &b, &bias, &mut plain);
            gemm_bt_bias(&a, &bt, &bias, &mut packed);
            prop_assert_eq!(bits(&plain), bits(&packed));
            let k = k.min(n);
            let (mut ids, mut ids_t) = (vec![0u32; m * k], vec![0u32; m * k]);
            gemm_bias_topk(&a, &b, &bias, k, &mut ids);
            gemm_bt_bias_topk(&a, &bt, &bias, k, &mut ids_t);
            prop_assert_eq!(ids, ids_t);
        }

        // ---- bit-exactness against the ordered references: the tiled
        // kernels must implement the documented reduction contract exactly,
        // on every tile/remainder path and for every epilogue case.

        #[test]
        fn gemm_bit_matches_ordered_reference(
            (m, k, n) in edge_shape(),
            (alpha, beta) in alpha_beta(),
            seed in 0u64..1000,
        ) {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 7.0 - 0.9);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 23 + c * 29 + seed as usize) % 11) as f32 / 5.0 - 1.1);
            let c0 = Matrix::from_fn(m, n, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
            let mut tiled = c0.clone();
            gemm(alpha, &a, &b, beta, &mut tiled);
            let mut spec = c0.clone();
            reference::gemm_ordered(alpha, &a, &b, beta, &mut spec);
            prop_assert_eq!(bits(&tiled), bits(&spec));
        }

        #[test]
        fn gemm_nt_bit_matches_ordered_reference(
            (m, k, n) in edge_shape(),
            (alpha, beta) in alpha_beta(),
            seed in 0u64..1000,
        ) {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 7.0 - 0.9);
            let b = Matrix::from_fn(n, k, |r, c| ((r * 23 + c * 29 + seed as usize) % 11) as f32 / 5.0 - 1.1);
            let c0 = Matrix::from_fn(m, n, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
            let mut tiled = c0.clone();
            gemm_nt(alpha, &a, &b, beta, &mut tiled);
            let mut spec = c0.clone();
            reference::gemm_nt_ordered(alpha, &a, &b, beta, &mut spec);
            prop_assert_eq!(bits(&tiled), bits(&spec));
        }

        #[test]
        fn gemm_tn_bit_matches_ordered_reference(
            (m, k, n) in edge_shape(),
            (alpha, beta) in alpha_beta(),
            seed in 0u64..1000,
        ) {
            let a = Matrix::from_fn(k, m, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 7.0 - 0.9);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 23 + c * 29 + seed as usize) % 11) as f32 / 5.0 - 1.1);
            let c0 = Matrix::from_fn(m, n, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
            let mut tiled = c0.clone();
            gemm_tn(alpha, &a, &b, beta, &mut tiled);
            let mut spec = c0.clone();
            reference::gemm_tn_ordered(alpha, &a, &b, beta, &mut spec);
            prop_assert_eq!(bits(&tiled), bits(&spec));
        }

        // ---- gathered-row kernels: bit-equality against both the ordered
        // spec and the dense kernel run on a materialized gather, so the
        // sampled softmax path can never drift from the dense reference.

        #[test]
        fn gemm_nt_gather_bit_matches_spec_and_materialized_gather(
            (m, k, rows) in edge_shape(),
            picks in proptest::collection::vec(0usize..64, 1..24),
            (alpha, beta) in alpha_beta(),
            seed in 0u64..1000,
        ) {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 7.0 - 0.9);
            let b = Matrix::from_fn(rows, k, |r, c| ((r * 23 + c * 29 + seed as usize) % 11) as f32 / 5.0 - 1.1);
            let idx: Vec<u32> = picks.iter().map(|&p| (p % rows) as u32).collect();
            let c0 = Matrix::from_fn(m, idx.len(), |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);

            let mut gathered = c0.clone();
            gemm_nt_gather(alpha, &a, &b, &idx, beta, &mut gathered);

            let mut spec = c0.clone();
            reference::gemm_nt_gather_ordered(alpha, &a, &b, &idx, beta, &mut spec);
            prop_assert_eq!(bits(&gathered), bits(&spec));

            // Dense kernel on an explicitly materialized gather of B.
            let mat = Matrix::from_fn(idx.len(), k, |r, c| b.at(idx[r] as usize, c));
            let mut dense = c0.clone();
            gemm_nt(alpha, &a, &mat, beta, &mut dense);
            prop_assert_eq!(bits(&gathered), bits(&dense));
        }

        #[test]
        fn gemm_nn_gather_bit_matches_spec_and_materialized_gather(
            (m, n, rows) in edge_shape(),
            picks in proptest::collection::vec(0usize..64, 1..24),
            (alpha, beta) in alpha_beta(),
            seed in 0u64..1000,
        ) {
            let idx: Vec<u32> = picks.iter().map(|&p| (p % rows) as u32).collect();
            let a = Matrix::from_fn(m, idx.len(), |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 7.0 - 0.9);
            let b = Matrix::from_fn(rows, n, |r, c| ((r * 23 + c * 29 + seed as usize) % 11) as f32 / 5.0 - 1.1);
            let c0 = Matrix::from_fn(m, n, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);

            let mut gathered = c0.clone();
            gemm_nn_gather(alpha, &a, &b, &idx, beta, &mut gathered);

            let mut spec = c0.clone();
            reference::gemm_nn_gather_ordered(alpha, &a, &b, &idx, beta, &mut spec);
            prop_assert_eq!(bits(&gathered), bits(&spec));

            // Dense kernel on an explicitly materialized gather of B.
            let mat = Matrix::from_fn(idx.len(), n, |r, c| b.at(idx[r] as usize, c));
            let mut dense = c0.clone();
            gemm(alpha, &a, &mat, beta, &mut dense);
            prop_assert_eq!(bits(&gathered), bits(&dense));
        }

        #[test]
        fn gemm_nt_gather_bias_bit_matches_gather_plus_epilogue(
            (m, k, rows) in edge_shape(),
            picks in proptest::collection::vec(0usize..64, 1..24),
            seed in 0u64..1000,
        ) {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 7.0 - 0.9);
            let b = Matrix::from_fn(rows, k, |r, c| ((r * 23 + c * 29 + seed as usize) % 11) as f32 / 5.0 - 1.1);
            let idx: Vec<u32> = picks.iter().map(|&p| (p % rows) as u32).collect();
            let bias: Vec<f32> = (0..idx.len()).map(|j| (j % 9) as f32 * 0.25 - 1.0).collect();

            let mut plain = Matrix::zeros(m, idx.len());
            gemm_nt_gather(1.0, &a, &b, &idx, 0.0, &mut plain);
            let mut with_bias = Matrix::zeros(m, idx.len());
            gemm_nt_gather_bias(&a, &b, &idx, &bias, &mut with_bias);
            for r in 0..m {
                for (j, &bj) in bias.iter().enumerate() {
                    let want = plain.at(r, j) + bj;
                    prop_assert_eq!(with_bias.at(r, j).to_bits(), want.to_bits());
                }
            }
        }

        #[test]
        fn fused_bias_kernels_bit_match_gemm_plus_epilogue(
            (m, k, n) in edge_shape(),
            seed in 0u64..1000,
        ) {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 7.0 - 0.9);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 23 + c * 29 + seed as usize) % 11) as f32 / 5.0 - 1.1);
            let bias: Vec<f32> = (0..n).map(|j| (j % 9) as f32 * 0.25 - 1.0).collect();
            let mut plain = Matrix::zeros(m, n);
            gemm(1.0, &a, &b, 0.0, &mut plain);
            let mut with_bias = Matrix::zeros(m, n);
            gemm_bias(&a, &b, &bias, &mut with_bias);
            let mut with_relu = Matrix::zeros(m, n);
            gemm_bias_relu(&a, &b, &bias, &mut with_relu);
            for r in 0..m {
                for (j, &bj) in bias.iter().enumerate() {
                    let pre = plain.at(r, j) + bj;
                    prop_assert_eq!(with_bias.at(r, j).to_bits(), pre.to_bits());
                    let clamped = if pre < 0.0 { 0.0 } else { pre };
                    prop_assert_eq!(with_relu.at(r, j).to_bits(), clamped.to_bits());
                }
            }
        }
    }
}
