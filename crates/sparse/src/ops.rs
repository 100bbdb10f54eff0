//! Sparse-times-dense kernels.
//!
//! These are the products the sparse input layer needs:
//!
//! * forward: `H = X · W₁` where `X` is a CSR batch — [`spmm`], or fused
//!   with the bias add and ReLU as [`spmm_bias_relu`];
//! * weight gradient: `∇W₁ += α · Xᵀ · G` — [`spmm_tn_acc`].
//!
//! Both parallelize over *output* rows on the persistent worker pool
//! (`asgd_tensor::parallel`), so no two workers ever write the same cache
//! line. The transposed kernel partitions the feature (output-row) space and
//! lets each worker stream the whole batch, touching only its own partition —
//! O(threads · nnz) index reads but zero synchronization, which wins for the
//! batch-sized operands this workload produces.
//!
//! Inner kernels follow the lane-width-8 reduction contract of
//! `asgd_tensor::kernels`: the lanes span the output row (`j`), which is not
//! a reduction axis, so every output element accumulates its nonzero terms
//! one at a time in ascending CSR order — rule 1 of the contract, and the
//! exact association order of the scalar kernels these replaced.

use crate::csr::CsrMatrix;
use asgd_tensor::kernels::{self, Epilogue, NB};
use asgd_tensor::parallel::MIN_PAR_ROWS;
use asgd_tensor::{MatRef, Matrix};

/// One CSR row times the `cols` window of `B`, panel-blocked: an `NB`-wide
/// stack accumulator panel sweeps the window; each panel streams the row's
/// nonzeros in ascending CSR order (rule 1 of the reduction contract),
/// reading `w` contiguous floats of `B` per nonzero, then the shared
/// epilogue writes the window once. `crow` covers exactly the `cols` window
/// of the output row; each output element accumulates its own `acc` slot
/// serially, so where the window boundaries fall never changes the bits.
#[inline(always)]
fn spmm_row(
    idx: &[u32],
    val: &[f32],
    b_data: &[f32],
    n: usize,
    cols: std::ops::Range<usize>,
    crow: &mut [f32],
    ep: Epilogue,
) {
    #[cfg(target_arch = "x86_64")]
    if kernels::avx2_fma_available() {
        // SAFETY: AVX2+FMA support was just verified.
        unsafe { spmm_row_avx2(idx, val, b_data, n, cols, crow, ep) };
        return;
    }
    spmm_row_body(idx, val, b_data, n, cols, crow, ep, kernels::fused)
}

/// AVX2+FMA leaf of [`spmm_row`]: the one [`spmm_row_body`] with
/// [`f32::mul_add`] for its FMA, which inside this function vectorizes to
/// `vfmadd`. Out of line, and the only place that body may be given
/// `mul_add` — see "One ISA dispatch, and the FMA-spelling rule" in
/// `asgd_tensor::kernels` for the LTO hazard this avoids.
///
/// # Safety
/// The caller must have verified AVX2+FMA support at runtime.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn spmm_row_avx2(
    idx: &[u32],
    val: &[f32],
    b_data: &[f32],
    n: usize,
    cols: std::ops::Range<usize>,
    crow: &mut [f32],
    ep: Epilogue,
) {
    spmm_row_body(idx, val, b_data, n, cols, crow, ep, f32::mul_add)
}

/// The loop of [`spmm_row`], spelled with the calling path's FMA:
/// `kernels::fused` on the portable path, [`f32::mul_add`] from inside
/// [`spmm_row_avx2`] only.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the row's whole addressing context, as scalars
fn spmm_row_body(
    idx: &[u32],
    val: &[f32],
    b_data: &[f32],
    n: usize,
    cols: std::ops::Range<usize>,
    crow: &mut [f32],
    ep: Epilogue,
    fma: impl Fn(f32, f32, f32) -> f32,
) {
    let mut j0 = cols.start;
    while j0 < cols.end {
        let w = (cols.end - j0).min(NB);
        let mut acc = [0.0f32; NB];
        for (&col, &av) in idx.iter().zip(val) {
            let brow = &b_data[col as usize * n + j0..col as usize * n + j0 + w];
            for (av_slot, &bv) in acc[..w].iter_mut().zip(brow) {
                *av_slot = fma(av, bv, *av_slot);
            }
        }
        let out = &mut crow[j0 - cols.start..j0 - cols.start + w];
        for (l, o) in out.iter_mut().enumerate() {
            *o = ep.apply(j0 + l, acc[l], *o);
        }
        j0 += w;
    }
}

/// `NB`-panel-aligned column blocks covering `0..n`, at most `parts` of
/// them. Blocks cut only on panel boundaries so each block's panel sweep is
/// the same sweep the full-width pass would run over those columns.
fn panel_col_blocks(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let panels = n.div_ceil(NB);
    asgd_tensor::parallel::split_ranges(panels, parts.clamp(1, panels))
        .into_iter()
        .map(|r| (r.start * NB)..(r.end * NB).min(n))
        .collect()
}

/// Contiguous row ranges with near-equal *nonzero* counts — the nnz-aware
/// replacement for `split_ranges`' equal-row chunks. Power-law batches put
/// most nonzeros in a few heavy rows, so equal-row chunks leave all but one
/// worker idle; equal-nnz ranges balance actual work while keeping rows
/// contiguous (sequential output writes, streaming CSR reads). Each row is
/// weighted `nnz + 1` so the per-row epilogue sweep counts too. The greedy
/// cut is a pure function of the CSR row lengths — fully deterministic.
fn nnz_balanced_row_ranges(a: &CsrMatrix, parts: usize) -> Vec<std::ops::Range<usize>> {
    let m = a.rows();
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    // Weight of the rows not yet assigned (rows `r..m` at the top of the
    // loop iteration for row `r`).
    let mut remaining = a.nnz() + m;
    for r in 0..m {
        let w = a.row_nnz(r) + 1;
        let open = parts - ranges.len();
        // Close the current range *before* a row that would push it further
        // past its fair share than stopping short would undershoot it — so
        // one heavy row never drags its light predecessors along. Never
        // leave fewer rows than the ranges still owed.
        if open > 1 && acc > 0 && m - r >= open {
            let share = (acc + remaining) / open;
            if acc + w > share && acc + w - share > share.saturating_sub(acc) {
                ranges.push(start..r);
                start = r;
                acc = 0;
            }
        }
        acc += w;
        remaining -= w;
    }
    ranges.push(start..m);
    ranges
}

/// The one body behind [`spmm`] and [`spmm_bias_relu`], which differ
/// only in the epilogue: shape checks (panicking under the public entry
/// point's `name`), then the row- and column-tiled pass.
fn spmm_with_epilogue(name: &str, a: &CsrMatrix, b: MatRef<'_>, c: &mut Matrix, ep: Epilogue) {
    assert_eq!(a.cols(), b.rows(), "{name} inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "{name} output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "{name} output cols mismatch");
    if let Epilogue::BiasRelu(bias) = ep {
        assert_eq!(bias.len(), b.cols(), "{name} bias length mismatch");
    }
    let n = b.cols();
    if n == 0 {
        return;
    }
    let b_data = b.as_slice();
    let m = a.rows();
    let threads = asgd_tensor::parallel::num_threads();
    // A batch too small to split by rows can still fill the pool when the
    // output is wide (sampled-softmax shapes: tens of rows × hundreds of
    // thousands of columns) — column blocks provide that second axis.
    let wide = n >= 2 * NB;
    if threads == 1 || (m < MIN_PAR_ROWS && !wide) {
        for (row, crow) in c.as_mut_slice().chunks_mut(n).enumerate() {
            let (idx, val) = a.row(row);
            spmm_row(idx, val, b_data, n, 0..n, crow, ep);
        }
        return;
    }
    // Parallel path: a 2-D tile grid. Rows split into nnz-balanced
    // contiguous ranges (never more than the batch has rows); if those
    // alone cannot occupy every worker, the wide output is additionally cut
    // into NB-panel-aligned column blocks. Each output element is still
    // accumulated serially in ascending CSR order by exactly one task, so
    // the result is bit-equal to the serial pass — only where the tile
    // boundaries fall changes.
    let row_ranges = nnz_balanced_row_ranges(a, threads.min(m));
    let col_blocks = if wide && row_ranges.len() < threads {
        panel_col_blocks(n, threads.div_ceil(row_ranges.len()))
    } else {
        panel_col_blocks(n, 1)
    };
    let base = c.as_mut_slice().as_mut_ptr() as usize;
    asgd_tensor::parallel::par_tasks(row_ranges.len() * col_blocks.len(), |t| {
        let rows = &row_ranges[t / col_blocks.len()];
        let cols = &col_blocks[t % col_blocks.len()];
        for row in rows.clone() {
            let (idx, val) = a.row(row);
            // SAFETY: tiles partition the (row, column-block) space, so
            // tasks write disjoint windows of a buffer that outlives the
            // pool scope; the usize round-trip keeps the closure Sync.
            let crow = unsafe {
                std::slice::from_raw_parts_mut(
                    (base as *mut f32).add(row * n + cols.start),
                    cols.len(),
                )
            };
            spmm_row(idx, val, b_data, n, cols.clone(), crow, ep);
        }
    });
}

/// `C = A · B` where `A` is sparse CSR (`m×k`), `B` dense (`k×n`).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn spmm<'b>(a: &CsrMatrix, b: impl Into<MatRef<'b>>, c: &mut Matrix) {
    let ep = Epilogue::AlphaBeta {
        alpha: 1.0,
        beta: 0.0,
    };
    spmm_with_epilogue("spmm", a, b.into(), c, ep);
}

/// Fused forward activation: `C = relu(A·B + bias)` in a single pass —
/// the `H = relu(X·W₁ + b₁)` hot path without the separate bias and ReLU
/// sweeps over `H`. Empty CSR rows produce `relu(bias)`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn spmm_bias_relu<'b>(a: &CsrMatrix, b: impl Into<MatRef<'b>>, bias: &[f32], c: &mut Matrix) {
    spmm_with_epilogue("spmm_bias_relu", a, b.into(), c, Epilogue::BiasRelu(bias));
}

/// `C += alpha · Aᵀ · G` where `A` is CSR (`m×k`), `G` dense (`m×n`), `C`
/// dense (`k×n`).
///
/// Accumulates (never zeroes `C`) because SGD weight updates apply the scaled
/// gradient directly: `W₁ -= lr · Xᵀ·G` is one call with `alpha = -lr`.
pub fn spmm_tn_acc(alpha: f32, a: &CsrMatrix, g: &Matrix, c: &mut Matrix) {
    assert_eq!(a.rows(), g.rows(), "spmm_tn rows mismatch");
    assert_eq!(c.rows(), a.cols(), "spmm_tn output rows mismatch");
    assert_eq!(c.cols(), g.cols(), "spmm_tn output cols mismatch");
    let n = g.cols();
    let k = a.cols();
    let g_data = g.as_slice();
    asgd_tensor::parallel::par_chunks_mut(
        c.as_mut_slice(),
        k,
        n,
        MIN_PAR_ROWS,
        |first_row, chunk| {
            let range = first_row..first_row + chunk.len() / n.max(1);
            spmm_tn_acc_range(alpha, a, g_data, n, range, chunk);
        },
    );
}

/// Accumulates the rows of `Aᵀ·G` that fall in `range` into `c_part`, which
/// is the `range`-rows slice of the output. Dispatches to the AVX2 clone
/// when the host supports it.
fn spmm_tn_acc_range(
    alpha: f32,
    a: &CsrMatrix,
    g_data: &[f32],
    n: usize,
    range: std::ops::Range<usize>,
    c_part: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if kernels::avx2_fma_available() {
        // SAFETY: AVX2 support was just verified.
        unsafe { spmm_tn_acc_range_avx2(alpha, a, g_data, n, range, c_part) };
        return;
    }
    spmm_tn_acc_range_impl(alpha, a, g_data, n, range, c_part)
}

/// AVX2 clone of [`spmm_tn_acc_range_impl`] (same body, wider codegen).
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[inline(never)] // inlining past the feature boundary under LTO splits the FMAs
#[target_feature(enable = "avx2")]
unsafe fn spmm_tn_acc_range_avx2(
    alpha: f32,
    a: &CsrMatrix,
    g_data: &[f32],
    n: usize,
    range: std::ops::Range<usize>,
    c_part: &mut [f32],
) {
    spmm_tn_acc_range_impl(alpha, a, g_data, n, range, c_part)
}

#[inline(always)]
fn spmm_tn_acc_range_impl(
    alpha: f32,
    a: &CsrMatrix,
    g_data: &[f32],
    n: usize,
    range: std::ops::Range<usize>,
    c_part: &mut [f32],
) {
    // Serial call (or a single partition): every column index falls in the
    // window, so skip the per-row window searches entirely.
    let full = range.start == 0 && range.end >= a.cols();
    for row in 0..a.rows() {
        let (idx, val) = a.row(row);
        // Rows are sorted: a first/last span check rejects rows that miss
        // this partition without the two binary searches below.
        match (idx.first(), idx.last()) {
            (Some(&first), Some(&last)) => {
                if (last as usize) < range.start || (first as usize) >= range.end {
                    continue;
                }
            }
            _ => continue,
        }
        let (lo, hi) = if full {
            (0, idx.len())
        } else {
            // Binary-search the window inside this partition.
            (
                idx.partition_point(|&c| (c as usize) < range.start),
                idx.partition_point(|&c| (c as usize) < range.end),
            )
        };
        if lo == hi {
            continue;
        }
        let grow = &g_data[row * n..(row + 1) * n];
        for j in lo..hi {
            let feature = idx[j] as usize - range.start;
            let s = alpha * val[j];
            let crow = &mut c_part[feature * n..(feature + 1) * n];
            kernels::axpy_lanes(s, grow, crow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_tensor::ops as dops;

    fn sparse_sample(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut b = crate::CooBuilder::new(rows, cols);
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for r in 0..rows {
            let nnz = (next() % (cols as u64 / 2 + 1)) as usize;
            let mut cols_seen = std::collections::BTreeSet::new();
            for _ in 0..nnz {
                cols_seen.insert((next() % cols as u64) as usize);
            }
            for c in cols_seen {
                b.push(r, c, ((next() % 17) as f32 - 8.0) / 4.0);
            }
        }
        b.into_csr()
    }

    fn dense_sample(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 7 + seed as usize) % 23) as f32 - 11.0) / 9.0
        })
    }

    /// Executable spec of the contract for CSR·dense: per element, ascending
    /// CSR-nonzero serial accumulation (one fused multiply-add per term),
    /// then the epilogue.
    fn spmm_ordered(a: &CsrMatrix, b: &Matrix, bias_relu: Option<&[f32]>) -> Matrix {
        let n = b.cols();
        let mut c = Matrix::zeros(a.rows(), n);
        for r in 0..a.rows() {
            let (idx, val) = a.row(r);
            for j in 0..n {
                let mut s = 0.0f32;
                for (&col, &av) in idx.iter().zip(val) {
                    s = kernels::fused(av, b.at(col as usize, j), s);
                }
                let out = match bias_relu {
                    None => s,
                    Some(bias) => {
                        let v = s + bias[j];
                        if v < 0.0 {
                            0.0
                        } else {
                            v
                        }
                    }
                };
                c.set(r, j, out);
            }
        }
        c
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        for (m, k, n) in [(1, 3, 2), (8, 16, 4), (40, 64, 12), (100, 50, 8)] {
            let a = sparse_sample(m, k, 1);
            let b = dense_sample(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            spmm(&a, &b, &mut c);
            let mut want = Matrix::zeros(m, n);
            dops::gemm(1.0, &a.to_dense(), &b, 0.0, &mut want);
            assert!(c.max_abs_diff(&want) < 1e-4, "({m},{k},{n})");
        }
    }

    #[test]
    fn spmm_bit_matches_ordered_reference_on_edge_shapes() {
        // Widths off the lane grid, single rows, and rows with empty CSR
        // ranges must all reproduce the contract's association order exactly.
        for (m, k, n) in [(1, 5, 1), (3, 9, 7), (8, 16, 8), (17, 40, 13), (33, 64, 24)] {
            let a = sparse_sample(m, k, m as u64 + 1);
            let b = dense_sample(k, n, 2);
            let mut c = Matrix::from_fn(m, n, |_, _| f32::NAN); // output must be overwritten
            spmm(&a, &b, &mut c);
            let want = spmm_ordered(&a, &b, None);
            let got: Vec<u32> = c.as_slice().iter().map(|x| x.to_bits()).collect();
            let spec: Vec<u32> = want.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, spec, "({m},{k},{n})");
        }
    }

    #[test]
    fn spmm_with_empty_rows() {
        let a = CsrMatrix::zeros(3, 4);
        let b = dense_sample(4, 2, 3);
        let mut c = Matrix::from_fn(3, 2, |_, _| 9.0);
        spmm(&a, &b, &mut c);
        assert_eq!(c.as_slice(), &[0.0; 6]);
    }

    #[test]
    fn fused_bias_relu_bit_matches_two_pass() {
        let a = sparse_sample(21, 50, 5);
        let b = dense_sample(50, 13, 6);
        let bias: Vec<f32> = (0..13).map(|j| (j % 7) as f32 * 0.3 - 1.0).collect();
        let mut fused = Matrix::zeros(21, 13);
        spmm_bias_relu(&a, &b, &bias, &mut fused);
        let want = spmm_ordered(&a, &b, Some(&bias));
        let got_bits: Vec<u32> = fused.as_slice().iter().map(|x| x.to_bits()).collect();
        let want_bits: Vec<u32> = want.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(got_bits, want_bits);
        assert!(fused.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn fused_bias_relu_on_empty_rows_is_relu_bias() {
        let a = CsrMatrix::zeros(2, 4);
        let b = dense_sample(4, 3, 7);
        let bias = [0.5f32, -0.25, 1.5];
        let mut c = Matrix::from_fn(2, 3, |_, _| -7.0);
        spmm_bias_relu(&a, &b, &bias, &mut c);
        for r in 0..2 {
            assert_eq!(c.row(r), &[0.5, 0.0, 1.5]);
        }
    }

    #[test]
    fn spmm_tn_matches_dense() {
        for (m, k, n) in [(3, 5, 2), (16, 64, 8), (50, 200, 16)] {
            let a = sparse_sample(m, k, 4);
            let g = dense_sample(m, n, 5);
            let mut c = Matrix::zeros(k, n);
            spmm_tn_acc(1.0, &a, &g, &mut c);
            let mut want = Matrix::zeros(k, n);
            dops::gemm_tn(1.0, &a.to_dense(), &g, 0.0, &mut want);
            assert!(c.max_abs_diff(&want) < 1e-4, "({m},{k},{n})");
        }
    }

    #[test]
    fn spmm_tn_accumulates_with_alpha() {
        let a = sparse_sample(6, 40, 6);
        let g = dense_sample(6, 3, 7);
        let mut c = dense_sample(40, 3, 8);
        let c0 = c.clone();
        spmm_tn_acc(-0.5, &a, &g, &mut c);
        let mut delta = Matrix::zeros(40, 3);
        dops::gemm_tn(-0.5, &a.to_dense(), &g, 0.0, &mut delta);
        for i in 0..c.len() {
            let want = c0.as_slice()[i] + delta.as_slice()[i];
            assert!((c.as_slice()[i] - want).abs() < 1e-4);
        }
    }

    #[test]
    fn spmm_bit_identical_across_thread_counts() {
        // Determinism guarantee of the worker pool: the same product at 1
        // and 8 threads must match bit for bit (each output row is computed
        // whole by one task with a fixed inner-loop order).
        let a = sparse_sample(96, 300, 11);
        let b = dense_sample(300, 24, 12);
        let bias: Vec<f32> = (0..24).map(|j| (j % 5) as f32 * 0.2 - 0.4).collect();
        let run = |threads: usize| {
            asgd_tensor::parallel::override_threads(threads);
            let mut c = Matrix::zeros(96, 24);
            spmm(&a, &b, &mut c);
            let mut h = Matrix::zeros(96, 24);
            spmm_bias_relu(&a, &b, &bias, &mut h);
            let mut t = Matrix::zeros(300, 24);
            spmm_tn_acc(1.0, &a, &c, &mut t);
            (c, h, t)
        };
        let single = run(1);
        let eight = run(8);
        asgd_tensor::parallel::override_threads(0);
        assert_eq!(single, eight);
    }

    #[test]
    fn skewed_nnz_schedule_is_bit_identical_and_balanced() {
        // Power-law row lengths: one flood row holds most of the nonzeros,
        // the rest are near-empty. The LPT schedule must (a) leave the
        // numeric result bit-equal to the serial pass and (b) actually
        // isolate the heavy row from the light ones.
        let m = 64;
        let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..m)
            .map(|r| {
                let nnz = if r == 17 { 240 } else { r % 4 };
                let idx: Vec<u32> = (0..nnz as u32).map(|j| j * 2 + (r as u32 % 2)).collect();
                let val: Vec<f32> = idx.iter().map(|&j| (j as f32 - 3.0) * 0.125).collect();
                (idx, val)
            })
            .collect();
        let a = CsrMatrix::from_rows(512, &rows).unwrap();
        let b = dense_sample(512, 24, 13);
        let run = |threads: usize| {
            asgd_tensor::parallel::override_threads(threads);
            let mut c = Matrix::zeros(m, 24);
            spmm(&a, &b, &mut c);
            c
        };
        let single = run(1);
        let eight = run(8);
        asgd_tensor::parallel::override_threads(0);
        assert_eq!(single, eight, "skewed schedule changed the bits");
        assert_eq!(single, spmm_ordered(&a, &b, None), "spec mismatch");
        // The schedule isolates the flood row: the range that carries it
        // takes little else, while the light rows spread over the others.
        let ranges = nnz_balanced_row_ranges(&a, 8);
        assert_eq!(ranges.len(), 8);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), m);
        let heavy = ranges.iter().find(|r| r.contains(&17)).unwrap();
        let heavy_extra: usize = heavy
            .clone()
            .filter(|&r| r != 17)
            .map(|r| a.row_nnz(r))
            .sum();
        assert!(
            heavy_extra <= 8,
            "flood row's range also carries {heavy_extra} light nonzeros"
        );
        // An equal-row split would put 8 rows (~a quarter of the light
        // nonzeros) next to the flood row; nnz-balancing must not.
        let light_max = ranges
            .iter()
            .filter(|r| !r.contains(&17))
            .map(|r| r.clone().map(|i| a.row_nnz(i) + 1).sum::<usize>())
            .max()
            .unwrap();
        assert!(
            light_max <= 2 * ((a.nnz() + m) / 8 + 1),
            "a light range carries {light_max} weight"
        );
    }

    #[test]
    fn panel_col_blocks_align_and_cover() {
        for (n, parts) in [(1usize, 4usize), (256, 4), (600, 3), (2048, 8), (2049, 8)] {
            let blocks = panel_col_blocks(n, parts);
            assert!(blocks.len() <= parts);
            assert_eq!(blocks.first().unwrap().start, 0);
            assert_eq!(blocks.last().unwrap().end, n);
            for w in blocks.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap at n={n} parts={parts}");
            }
            for b in &blocks {
                assert_eq!(b.start % NB, 0, "unaligned block start at n={n}");
            }
        }
    }

    #[test]
    fn wide_output_small_batch_is_bit_identical_across_threads() {
        // The sampled-softmax shape class: a batch far below MIN_PAR_ROWS
        // against a wide output. Row splitting alone leaves workers idle;
        // the column-block axis engages, and the bits must not move.
        let a = sparse_sample(4, 60, 21);
        let b = dense_sample(60, 3 * NB + 37, 22);
        let bias: Vec<f32> = (0..b.cols()).map(|j| (j % 11) as f32 * 0.1 - 0.5).collect();
        let run = |threads: usize| {
            asgd_tensor::parallel::override_threads(threads);
            let mut c = Matrix::zeros(4, b.cols());
            spmm(&a, &b, &mut c);
            let mut h = Matrix::zeros(4, b.cols());
            spmm_bias_relu(&a, &b, &bias, &mut h);
            (c, h)
        };
        let single = run(1);
        let eight = run(8);
        asgd_tensor::parallel::override_threads(0);
        assert_eq!(single, eight);
        assert_eq!(single.0, spmm_ordered(&a, &b, None), "spec mismatch");
        assert_eq!(single.1, spmm_ordered(&a, &b, Some(&bias)));
    }

    #[test]
    fn avx2_leaves_and_portable_paths_agree_bit_for_bit() {
        // `force_portable` reaches this crate's leaves through the one
        // detection function: ragged CSR rows (`sparse_sample`), rows with
        // no nonzeros at all, output widths across several `NB` panels and
        // off the lane grid, and a `spmm_tn_acc` window that is a proper
        // partition of the feature range.
        let ragged = sparse_sample(24, 300, 31);
        let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..24)
            .map(|r| match r {
                0 | 13 => (Vec::new(), Vec::new()),
                _ => (ragged.row(r).0.to_vec(), ragged.row(r).1.to_vec()),
            })
            .collect();
        let a = CsrMatrix::from_rows(300, &rows).unwrap();
        let run = |portable: bool| {
            kernels::force_portable(portable);
            let mut bits = Vec::new();
            for n in [5usize, 24, 2 * NB + 37] {
                let b = dense_sample(300, n, 32);
                let bias: Vec<f32> = (0..n).map(|j| (j % 9) as f32 * 0.2 - 0.7).collect();
                let mut c = Matrix::zeros(24, n);
                spmm(&a, &b, &mut c);
                let mut h = Matrix::zeros(24, n);
                spmm_bias_relu(&a, &b, &bias, &mut h);
                let mut t = dense_sample(300, n, 33);
                spmm_tn_acc(-0.25, &a, &c, &mut t);
                let mut part = dense_sample(120, n, 34);
                spmm_tn_acc_range(0.5, &a, c.as_slice(), n, 90..210, part.as_mut_slice());
                for out in [&c, &h, &t, &part] {
                    bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
                }
            }
            kernels::force_portable(false);
            bits
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn parallel_and_serial_tn_agree() {
        // k large enough to hit the parallel path.
        let a = sparse_sample(30, 500, 9);
        let g = dense_sample(30, 4, 10);
        let mut par = Matrix::zeros(500, 4);
        spmm_tn_acc(1.0, &a, &g, &mut par);
        let mut ser = Matrix::zeros(500, 4);
        spmm_tn_acc_range(1.0, &a, g.as_slice(), 4, 0..500, ser.as_mut_slice());
        assert!(par.max_abs_diff(&ser) < 1e-5);
    }

    #[test]
    fn partitioned_ranges_stitch_bit_identically() {
        // The partition fast paths (full-range skip, first/last span
        // rejection) must not change results: computing each partition
        // independently must reproduce the full-range result bit for bit.
        let a = sparse_sample(20, 300, 11);
        let g = dense_sample(20, 6, 12);
        let mut full = Matrix::zeros(300, 6);
        spmm_tn_acc_range(1.0, &a, g.as_slice(), 6, 0..300, full.as_mut_slice());
        for parts in [2usize, 3, 7, 32] {
            let mut stitched = Matrix::zeros(300, 6);
            for r in asgd_tensor::parallel::split_ranges(300, parts) {
                let slice = &mut stitched.as_mut_slice()[r.start * 6..r.end * 6];
                spmm_tn_acc_range(1.0, &a, g.as_slice(), 6, r, slice);
            }
            assert_eq!(full.as_slice(), stitched.as_slice(), "parts={parts}");
        }
    }

    #[test]
    fn banded_rows_exercise_span_rejection() {
        // Each row's features sit in a narrow band, so most (row, partition)
        // pairs miss entirely — the span early-exit path.
        let mut b = crate::CooBuilder::new(16, 400);
        for r in 0..16 {
            for j in 0..6 {
                b.push(r, r * 25 + j, (r + j) as f32 * 0.25 - 1.0);
            }
        }
        let a = b.into_csr();
        let g = dense_sample(16, 5, 13);
        let mut c = Matrix::zeros(400, 5);
        spmm_tn_acc(1.0, &a, &g, &mut c);
        let mut want = Matrix::zeros(400, 5);
        dops::gemm_tn(1.0, &a.to_dense(), &g, 0.0, &mut want);
        assert!(c.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn spmm_shape_mismatch_panics() {
        let a = CsrMatrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        spmm(&a, &b, &mut c);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use asgd_tensor::ops as dops;
    use proptest::prelude::*;

    /// Strategy: random COO entries over an 8×12 matrix.
    fn sparse_strategy() -> impl Strategy<Value = CsrMatrix> {
        proptest::collection::vec((0usize..8, 0usize..12, -2.0f32..2.0), 0..60).prop_map(|es| {
            let mut b = crate::CooBuilder::new(8, 12);
            for (r, c, v) in es {
                b.push(r, c, v);
            }
            b.into_csr()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn spmm_equals_dense_reference(
            a in sparse_strategy(),
            bvals in proptest::collection::vec(-2.0f32..2.0, 12 * 5),
        ) {
            let b = Matrix::from_vec(12, 5, bvals);
            let mut c = Matrix::zeros(8, 5);
            spmm(&a, &b, &mut c);
            let mut want = Matrix::zeros(8, 5);
            dops::gemm(1.0, &a.to_dense(), &b, 0.0, &mut want);
            prop_assert!(c.max_abs_diff(&want) < 1e-3);
        }

        #[test]
        fn spmm_tn_equals_dense_reference(
            a in sparse_strategy(),
            gvals in proptest::collection::vec(-2.0f32..2.0, 8 * 5),
        ) {
            let g = Matrix::from_vec(8, 5, gvals);
            let mut c = Matrix::zeros(12, 5);
            spmm_tn_acc(1.0, &a, &g, &mut c);
            let mut want = Matrix::zeros(12, 5);
            dops::gemm_tn(1.0, &a.to_dense(), &g, 0.0, &mut want);
            prop_assert!(c.max_abs_diff(&want) < 1e-3);
        }

        #[test]
        fn fused_bias_relu_bit_matches_per_element_spec(
            a in sparse_strategy(),
            bvals in proptest::collection::vec(-2.0f32..2.0, 12 * 7),
            bias in proptest::collection::vec(-1.0f32..1.0, 7),
        ) {
            let b = Matrix::from_vec(12, 7, bvals);
            let mut fused = Matrix::zeros(8, 7);
            spmm_bias_relu(&a, &b, &bias, &mut fused);
            for r in 0..8 {
                let (idx, val) = a.row(r);
                for (j, &bj) in bias.iter().enumerate() {
                    let mut s = 0.0f32;
                    for (&col, &av) in idx.iter().zip(val) {
                        s = kernels::fused(av, b.at(col as usize, j), s);
                    }
                    let v = s + bj;
                    let want = if v < 0.0 { 0.0 } else { v };
                    prop_assert_eq!(fused.at(r, j).to_bits(), want.to_bits());
                }
            }
        }
    }
}
