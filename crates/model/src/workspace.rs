//! Reusable per-replica training buffers — the zero-allocation hot path.
//!
//! `Mlp::train_batch` has to materialize hidden activations, probabilities,
//! the hidden gradient and the gradient buffers on every step. Allocating those per batch is pure overhead once training
//! is in steady state, so a [`Workspace`] owns all of them and
//! [`crate::Mlp::train_batch_ws`] / [`crate::Mlp::loss_and_gradients_ws`]
//! reuse them across calls. Batch-sized matrices grow to the largest batch
//! seen (bounded by the scheduler's `b_max`) and then never touch the
//! allocator again.
//!
//! One workspace belongs to one replica loop (e.g. each of a trainer's
//! replicas owns one). Workspaces are plain owned data — to train two replicas
//! concurrently, give each its own. Inference shares the same buffers:
//! [`crate::Mlp::predict_topk_ws`] reuses `h`/`probs` for the forward pass
//! and `order` for per-row top-k selection, so a serving replica's steady
//! state is as allocation-free as a training replica's.
//!
//! Reusing a workspace is *bit-for-bit* equivalent to using a fresh one:
//! every kernel in the hot path fully overwrites the buffer regions it reads
//! back (GEMM with `beta = 0`, row-zeroing SpMM, sentinel-reset scatter
//! table), so stale contents can never leak into results.

use crate::gradients::Gradients;
use crate::mlp::MlpConfig;
use asgd_tensor::Matrix;

/// Scratch buffers for one training step, reused across steps.
///
/// Construct once per replica with [`Workspace::new`] and thread through
/// [`crate::Mlp::train_batch_ws`]. The architecture is fixed at
/// construction; using it with a differently-shaped model panics.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Hidden activations `relu(X·W₁ + b₁)` (`batch × hidden`).
    pub(crate) h: Matrix,
    /// Softmax probabilities, converted in place to `dlogits`
    /// (`batch × classes`).
    pub(crate) probs: Matrix,
    /// Hidden gradient `dlogits·W₂ᵀ` (`batch × hidden`).
    pub(crate) dh: Matrix,
    /// Sampled-softmax logits over the candidate set, converted in place to
    /// `dlogits` (`batch × |candidates|`).
    pub(crate) logits_s: Matrix,
    /// Candidate-gathered output bias (`|candidates|`).
    pub(crate) gathered_b2: Vec<f32>,
    /// The sampled path's output-layer gradient, compact: row `i` is
    /// `∇W₂ᵀ` of candidate class `cand[i]` (`|candidates| × hidden`),
    /// written by the backward `gemm_tn` and read in place by
    /// [`crate::Mlp::apply_gradients_sampled`].
    pub(crate) gt: Matrix,
    /// Compact `∇b₂` over the candidate set (`|candidates|`), likewise
    /// read in place by the update.
    pub(crate) b2_scratch: Vec<f32>,
    /// Gradients of the current batch — output of
    /// [`crate::Mlp::loss_and_gradients_ws`].
    pub grads: Gradients,
    /// Feature → index into `grads.w1_updates` scatter table
    /// (`u32::MAX` = untouched); replaces the per-call `HashMap` of the
    /// sparse input-layer gradient. Always all-sentinel between calls.
    pub(crate) slot: Vec<u32>,
    /// Recycled gradient-row buffers for `grads.w1_updates`.
    pub(crate) arena: Vec<Vec<f32>>,
    /// Class-index scratch for per-row top-k selection
    /// ([`crate::Mlp::predict_topk_ws`]); capacity `num_classes`.
    pub(crate) order: Vec<u32>,
}

impl Workspace {
    /// A workspace for `config`-shaped models. Batch-sized buffers start
    /// empty and grow on first use.
    pub fn new(config: &MlpConfig) -> Self {
        Self {
            h: Matrix::zeros(0, config.hidden),
            probs: Matrix::zeros(0, config.num_classes),
            dh: Matrix::zeros(0, config.hidden),
            logits_s: Matrix::zeros(0, 0),
            gathered_b2: Vec::new(),
            gt: Matrix::zeros(0, config.hidden),
            b2_scratch: Vec::new(),
            grads: Gradients::new(config),
            slot: vec![u32::MAX; config.num_features],
            arena: Vec::new(),
            order: Vec::with_capacity(config.num_classes),
        }
    }

    /// The gradients computed by the last
    /// [`crate::Mlp::loss_and_gradients_ws`] call.
    pub fn grads(&self) -> &Gradients {
        &self.grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_workspace_matches_architecture() {
        let config = MlpConfig {
            num_features: 9,
            hidden: 4,
            num_classes: 5,
        };
        let ws = Workspace::new(&config);
        assert_eq!(ws.grads.w2.len(), 0, "sized by the first dense step");
        assert_eq!(ws.slot.len(), 9);
        assert!(ws.slot.iter().all(|&s| s == u32::MAX));
        assert_eq!(ws.grads.b1.len(), 4);
        assert_eq!(ws.grads.b2.len(), 5);
    }
}
