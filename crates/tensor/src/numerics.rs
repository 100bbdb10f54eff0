//! Numerically careful element-wise kernels: ReLU backward, softmax, argmax.

use crate::kernels::exp_f32;
#[cfg(target_arch = "x86_64")]
use crate::kernels::{exp_avx2, LANES};
use crate::parallel::{par_chunks_mut, MIN_PAR_ROWS};
use crate::Matrix;

/// Backward mask of ReLU: zeroes `grad` wherever the *activated* value is not
/// positive (i.e. the forward output, not the pre-activation).
pub fn relu_backward_inplace(grad: &mut Matrix, activated: &Matrix) {
    assert_eq!(grad.shape(), activated.shape(), "relu backward shape");
    for (g, &a) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
        if a <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Row-wise stable softmax in place: each row becomes `e / Σe` with
/// `e = exp(v − max)`.
///
/// Every row is a pure function of itself, defined by four scalar passes:
///
/// 1. `max`: the row's maximum, NaN skipped (`f32::max`'s rule) from
///    `-∞` up — a row of NaN keeps `-∞`;
/// 2. `e = exp_f32(v − max)` per element — [`exp_f32`], the workspace's
///    own `exp` (glibc's `expf`, transcribed), so the bits do not depend on
///    the platform libm;
/// 3. `sum`: the `e` added in one serial chain, in column order, from `0.0`;
/// 4. `e · (1 / sum)` per element.
///
/// Rows are independent and run on the pool when there are enough of them
/// (`MIN_PAR_ROWS`). On AVX2 hosts an intrinsics leaf
/// (`softmax_chunk_avx2`) computes exactly these bits faster: the max
/// 8 lanes wide (order-free, and `max_ps` drops a NaN lane as `f32::max`
/// does), the exp 8 lanes wide (`kernels::exp_avx2`), the sums of 8 rows
/// interleaved (each row still one chain in column order, but 8 chains in
/// flight instead of one) and the scale 8 lanes wide.
/// `ops::tests::avx2_leaves_and_portable_twins_agree_bit_for_bit` compares
/// the two.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    let rows = m.rows();
    par_chunks_mut(m.as_mut_slice(), rows, cols, MIN_PAR_ROWS, |_, chunk| {
        softmax_chunk(chunk, cols)
    });
}

/// [`softmax_rows_inplace`] on one row — the same passes, the same bits.
pub fn softmax_row_inplace(row: &mut [f32]) {
    if !row.is_empty() {
        softmax_chunk(row, row.len());
    }
}

/// The softmax of every `cols`-wide row of `chunk`, on this thread.
fn softmax_chunk(chunk: &mut [f32], cols: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernels::avx2_fma_available() {
        // SAFETY: AVX2+FMA support was just verified.
        unsafe { softmax_chunk_avx2(chunk, cols) };
        return;
    }
    for row in chunk.chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = exp_f32(*v - max);
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// AVX2+FMA leaf of [`softmax_chunk`], `LANES` rows at a time (the group's
/// rows stay in L2 between the passes): per row the max and the exp, then
/// the group's sums ([`row_sums`]), then per row the scale. Columns past
/// the last whole vector take the scalar operations of the definition.
///
/// # Safety
/// Caller must have verified AVX2+FMA support.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_chunk_avx2(chunk: &mut [f32], cols: usize) {
    use std::arch::x86_64::*;
    let whole = cols - cols % LANES;
    for group in chunk.chunks_mut(LANES * cols) {
        for row in group.chunks_mut(cols) {
            let (body, tail) = row.split_at_mut(whole);
            let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
            for v in body.chunks_exact(LANES) {
                acc = _mm256_max_ps(_mm256_loadu_ps(v.as_ptr()), acc);
            }
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            let max = lanes
                .iter()
                .chain(&*tail)
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            let max_v = _mm256_set1_ps(max);
            for v in body.chunks_exact_mut(LANES) {
                let x = _mm256_sub_ps(_mm256_loadu_ps(v.as_ptr()), max_v);
                _mm256_storeu_ps(v.as_mut_ptr(), exp_avx2(x));
            }
            for v in tail.iter_mut() {
                *v = exp_f32(*v - max);
            }
        }
        let sums = row_sums(group, cols);
        for (row, sum) in group.chunks_mut(cols).zip(sums) {
            let inv = 1.0 / sum;
            let inv_v = _mm256_set1_ps(inv);
            let (body, tail) = row.split_at_mut(whole);
            for v in body.chunks_exact_mut(LANES) {
                let p = v.as_mut_ptr();
                _mm256_storeu_ps(p, _mm256_mul_ps(_mm256_loadu_ps(p), inv_v));
            }
            for v in tail.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// The sums of the (at most `LANES`) `cols`-wide rows of `group`, each one
/// serial chain in column order from `0.0`. A whole group adds its rows
/// interleaved, column by column, so `LANES` independent chains are in
/// flight rather than one add waiting on the last; a short group adds its
/// rows one after the other. Either way each row's chain is the same.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn row_sums(group: &[f32], cols: usize) -> [f32; LANES] {
    let mut sums = [0.0f32; LANES];
    if group.len() == LANES * cols {
        let rows: [&[f32]; LANES] = std::array::from_fn(|r| &group[r * cols..][..cols]);
        for j in 0..cols {
            for (s, row) in sums.iter_mut().zip(&rows) {
                *s += row[j];
            }
        }
    } else {
        for (s, row) in sums.iter_mut().zip(group.chunks(cols)) {
            *s = row.iter().fold(0.0, |sum, &v| sum + v);
        }
    }
    sums
}

/// Index of the maximum element of a slice (`None` when empty). Ties resolve
/// to the lowest index, matching `argmax` conventions in evaluation code.
pub fn argmax(xs: &[f32]) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_v = xs[0];
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_backward_masks() {
        let act = Matrix::from_vec(1, 4, vec![0.0, 1.0, 0.0, 3.0]);
        let mut g = Matrix::from_vec(1, 4, vec![5.0, 5.0, 5.0, 5.0]);
        relu_backward_inplace(&mut g, &act);
        assert_eq!(g.as_slice(), &[0.0, 5.0, 0.0, 5.0]);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_rows_inplace(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(m.row(r).iter().all(|&p| p > 0.0));
        }
        // Monotone: larger logit => larger probability.
        assert!(m.at(0, 2) > m.at(0, 1) && m.at(0, 1) > m.at(0, 0));
    }

    #[test]
    fn softmax_survives_large_logits() {
        let mut m = Matrix::from_vec(1, 3, vec![1000.0, 1001.0, 999.0]);
        softmax_rows_inplace(&mut m);
        let s: f32 = m.row(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(m.row(0).iter().all(|p| p.is_finite()));
    }

    #[test]
    fn argmax_picks_first_of_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[-5.0]), Some(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn softmax_always_sums_to_one(vals in proptest::collection::vec(-30.0f32..30.0, 1..64)) {
            let cols = vals.len();
            let mut m = Matrix::from_vec(1, cols, vals);
            softmax_rows_inplace(&mut m);
            let s: f32 = m.row(0).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }

        #[test]
        fn softmax_is_shift_invariant(vals in proptest::collection::vec(-5.0f32..5.0, 2..32), shift in -10.0f32..10.0) {
            let cols = vals.len();
            let mut a = Matrix::from_vec(1, cols, vals.clone());
            let mut b = Matrix::from_vec(1, cols, vals.iter().map(|v| v + shift).collect());
            softmax_rows_inplace(&mut a);
            softmax_rows_inplace(&mut b);
            prop_assert!(a.max_abs_diff(&b) < 1e-4);
        }

        #[test]
        fn argmax_invariant_under_softmax(vals in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
            let before = argmax(&vals);
            let mut m = Matrix::from_vec(1, vals.len(), vals);
            softmax_rows_inplace(&mut m);
            prop_assert_eq!(before, argmax(m.row(0)));
        }
    }
}
