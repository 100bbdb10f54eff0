//! Held-out evaluation: top-1 accuracy and precision@k.

use crate::mlp::Mlp;
use crate::workspace::Workspace;
use asgd_sparse::CsrMatrix;

/// Top-1 accuracy on multi-label data: the fraction of samples whose highest-
/// scored predicted class is in the sample's label set (the metric of the
/// paper's Figures 4 and 5). Samples without labels are skipped.
///
/// Runs through the fused [`Mlp::predict_topk_ws`] path with `k = 1` — the
/// same streaming logits→top-k kernel serving uses, so eval never
/// materializes the `chunk × num_classes` probability matrix. The `(score
/// desc, id asc)` tie rule of that path is exactly `argmax`'s first-max
/// convention, and softmax is monotone, so the prediction is identical to
/// the old argmax-over-probabilities formulation.
///
/// Evaluation runs in chunks of `chunk` rows to bound the dense activation
/// memory; every chunk's rows are selected into one reused CSR buffer
/// ([`CsrMatrix::select_rows_into`]).
pub fn top1_accuracy(model: &Mlp, x: &CsrMatrix, labels: &[Vec<u32>], chunk: usize) -> f64 {
    assert_eq!(x.rows(), labels.len(), "labels/batch mismatch");
    let chunk = chunk.max(1);
    let mut ws = Workspace::new(model.config());
    let mut top1: Vec<u32> = Vec::new();
    let mut ids: Vec<usize> = Vec::new();
    let mut part = CsrMatrix::zeros(0, x.cols());
    let mut correct = 0usize;
    let mut counted = 0usize;
    let mut start = 0usize;
    while start < x.rows() {
        let end = (start + chunk).min(x.rows());
        ids.clear();
        ids.extend(start..end);
        x.select_rows_into(&ids, &mut part);
        model.predict_topk_ws(&part, 1, &mut ws, &mut top1);
        for (r, labs) in labels[start..end].iter().enumerate() {
            if labs.is_empty() {
                continue;
            }
            counted += 1;
            if labs.binary_search(&top1[r]).is_ok() {
                correct += 1;
            }
        }
        start = end;
    }
    if counted == 0 {
        0.0
    } else {
        correct as f64 / counted as f64
    }
}

/// Precision@k: mean over samples of `|top-k predictions ∩ labels| / k`.
///
/// Runs on the batched, workspace-reusing [`Mlp::predict_topk_ws`] path —
/// one workspace, one CSR buffer and one prediction buffer serve every
/// chunk, so the
/// per-batch activation and per-row selection allocations of the naive
/// formulation are gone (the same path the serving engine uses).
pub fn precision_at_k(
    model: &Mlp,
    x: &CsrMatrix,
    labels: &[Vec<u32>],
    k: usize,
    chunk: usize,
) -> f64 {
    assert_eq!(x.rows(), labels.len(), "labels/batch mismatch");
    assert!(k >= 1, "k must be at least 1");
    let chunk = chunk.max(1);
    let mut ws = Workspace::new(model.config());
    let mut topk: Vec<u32> = Vec::new();
    let mut ids: Vec<usize> = Vec::new();
    let mut part = CsrMatrix::zeros(0, x.cols());
    let mut total = 0.0f64;
    let mut counted = 0usize;
    let mut start = 0usize;
    while start < x.rows() {
        let end = (start + chunk).min(x.rows());
        ids.clear();
        ids.extend(start..end);
        x.select_rows_into(&ids, &mut part);
        let k_eff = model.predict_topk_ws(&part, k, &mut ws, &mut topk);
        for (r, labs) in labels[start..end].iter().enumerate() {
            if labs.is_empty() {
                continue;
            }
            counted += 1;
            let hits = topk[r * k_eff..(r + 1) * k_eff]
                .iter()
                .filter(|&&c| labs.binary_search(&c).is_ok())
                .count();
            total += hits as f64 / k as f64;
        }
        start = end;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpConfig;

    fn fixture() -> (Mlp, CsrMatrix, Vec<Vec<u32>>) {
        let config = MlpConfig {
            num_features: 4,
            hidden: 3,
            num_classes: 3,
        };
        let mut model = Mlp::init(&config, 9);
        // One-hot inputs; train feature i -> class i mapping hard.
        let x = CsrMatrix::from_rows(
            4,
            &[
                (vec![0], vec![1.0]),
                (vec![1], vec![1.0]),
                (vec![2], vec![1.0]),
            ],
        )
        .unwrap();
        let labels = vec![vec![0u32], vec![1], vec![2]];
        for _ in 0..300 {
            model.train_batch(&x, &labels, 0.5);
        }
        (model, x, labels)
    }

    #[test]
    fn trained_model_reaches_full_accuracy() {
        let (model, x, labels) = fixture();
        assert_eq!(top1_accuracy(&model, &x, &labels, 64), 1.0);
    }

    #[test]
    fn chunked_eval_matches_unchunked() {
        let (model, x, labels) = fixture();
        let whole = top1_accuracy(&model, &x, &labels, 100);
        let chunked = top1_accuracy(&model, &x, &labels, 1);
        assert_eq!(whole, chunked);
    }

    #[test]
    fn label_free_samples_are_skipped() {
        let (model, x, _) = fixture();
        let labels = vec![vec![0u32], vec![], vec![2]];
        // Only samples 0 and 2 are counted; both are predicted correctly.
        assert_eq!(top1_accuracy(&model, &x, &labels, 64), 1.0);
    }

    #[test]
    fn all_label_free_gives_zero() {
        let (model, x, _) = fixture();
        let labels = vec![vec![], vec![], vec![]];
        assert_eq!(top1_accuracy(&model, &x, &labels, 64), 0.0);
    }

    #[test]
    fn precision_at_one_equals_top1() {
        let (model, x, labels) = fixture();
        let p1 = precision_at_k(&model, &x, &labels, 1, 64);
        let t1 = top1_accuracy(&model, &x, &labels, 64);
        assert!((p1 - t1).abs() < 1e-12);
    }

    #[test]
    fn precision_at_k_large_k_caps() {
        let (model, x, labels) = fixture();
        // k = 3 with 1 relevant label each: precision = 1/3.
        let p3 = precision_at_k(&model, &x, &labels, 3, 64);
        assert!((p3 - 1.0 / 3.0).abs() < 1e-12);
    }
}
