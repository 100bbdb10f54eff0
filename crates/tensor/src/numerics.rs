//! Numerically careful element-wise kernels: ReLU backward, softmax, argmax.

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

/// Row-wise stable softmax in place.
///
/// Each row becomes a probability distribution; rows are independent and
/// processed in parallel for wide matrices (the XML output layer has up to
/// hundreds of thousands of columns).
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    let rows = m.rows();
    par_chunks_mut(m.as_mut_slice(), rows, cols, MIN_PAR_ROWS, |_, chunk| {
        for row in chunk.chunks_mut(cols) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    });
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
