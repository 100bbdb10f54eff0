//! Reference GEMM implementations: the executable spec, on no hot path.
//!
//! `*_ordered` is a naive, serial, line-by-line transcription of the
//! lane-width-8 reduction contract documented in [`crate::kernels`]. The
//! proptests assert the tiled kernels match these **bit for bit**
//! (`f32::to_bits`) on every tile/remainder path: the references are the
//! spec, the tiled kernels are the implementation.

use crate::kernels::{fused, LANES};
use crate::Matrix;

/// The unified epilogue of the contract, transcribed independently of
/// [`crate::kernels::Epilogue`]: `alpha·s` when `beta == 0`, else
/// `alpha·s + beta·c`.
#[inline]
fn epilogue_spec(alpha: f32, s: f32, beta: f32, c: f32) -> f32 {
    if beta == 0.0 {
        alpha * s
    } else {
        alpha * s + beta * c
    }
}

/// The contract's dot product, transcribed naively: term `t` accumulates
/// into lane `t % 8`, then the fixed tree
/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))` folds the lanes.
fn dot_spec(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for (t, (&av, &bv)) in a.iter().zip(b).enumerate() {
        lanes[t % LANES] += av * bv;
    }
    ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
}

/// Spec for `gemm` (NN): per element, ascending-`k` serial reduction with
/// one *fused* multiply-add per term (`f32::mul_add` — a single rounding),
/// then the unified epilogue — contract rule 1, one element at a time.
pub fn gemm_ordered(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "gemm_ordered inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s = fused(a.at(i, kk), b.at(kk, j), s);
            }
            let out = epilogue_spec(alpha, s, beta, c.at(i, j));
            c.set(i, j, out);
        }
    }
}

/// Spec for `gemm_nt`: per element, the round-robin lane-tree dot of two
/// contiguous rows (contract rule 2), then the unified epilogue.
pub fn gemm_nt_ordered(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "gemm_nt_ordered inner dimension mismatch"
    );
    let (m, k) = a.shape();
    let n = b.rows();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..m {
        for j in 0..n {
            let s = dot_spec(&a_data[i * k..(i + 1) * k], &b_data[j * k..(j + 1) * k]);
            let out = epilogue_spec(alpha, s, beta, c.at(i, j));
            c.set(i, j, out);
        }
    }
}

/// Spec for `gemm_tn`: per element, ascending-`k` serial fused reduction
/// over the strided `A` column, then the unified epilogue.
pub fn gemm_tn_ordered(alpha: f32, a: &Matrix, b: &Matrix, beta: f32, c: &mut Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "gemm_tn_ordered inner dimension mismatch"
    );
    let (k, m) = a.shape();
    let n = b.cols();
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s = fused(a.at(kk, i), b.at(kk, j), s);
            }
            let out = epilogue_spec(alpha, s, beta, c.at(i, j));
            c.set(i, j, out);
        }
    }
}

/// Spec for `gemm_nt_gather`: per element, the round-robin lane-tree dot of
/// an `A` row with the *gathered* `B` row `idx[j]` (contract rule 2), then
/// the unified epilogue — the sampled-softmax forward, one element at a
/// time.
pub fn gemm_nt_gather_ordered(
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    idx: &[u32],
    beta: f32,
    c: &mut Matrix,
) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "gemm_nt_gather_ordered inner dimension mismatch"
    );
    let (m, k) = a.shape();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..m {
        for (j, &row) in idx.iter().enumerate() {
            let base = row as usize * k;
            let s = dot_spec(&a_data[i * k..(i + 1) * k], &b_data[base..base + k]);
            let out = epilogue_spec(alpha, s, beta, c.at(i, j));
            c.set(i, j, out);
        }
    }
}

/// Spec for `gemm_nn_gather`: per element, ascending-sample serial fused
/// reduction over the gathered `B` rows `idx[0], idx[1], …` (contract
/// rule 1), then the unified epilogue — the sampled-softmax backward.
pub fn gemm_nn_gather_ordered(
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    idx: &[u32],
    beta: f32,
    c: &mut Matrix,
) {
    assert_eq!(
        a.cols(),
        idx.len(),
        "gemm_nn_gather_ordered inner dimension mismatch"
    );
    let m = a.rows();
    let n = b.cols();
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for (kk, &row) in idx.iter().enumerate() {
                s = fused(a.at(i, kk), b.at(row as usize, j), s);
            }
            let out = epilogue_spec(alpha, s, beta, c.at(i, j));
            c.set(i, j, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_spec_round_robin_assignment() {
        // 9 terms: lane 0 gets terms 0 and 8, lanes 1..8 one term each.
        let a: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let b = vec![1.0f32; 9];
        let lanes = [1.0f32 + 9.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let want = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
        assert_eq!(dot_spec(&a, &b).to_bits(), want.to_bits());
    }
}
