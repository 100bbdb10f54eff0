//! Reusable per-replica training buffers — the zero-allocation hot path.
//!
//! `Mlp::train_batch` has to materialize hidden activations, probabilities,
//! the hidden gradient, a transposed copy of `W₂`, and the gradient buffers
//! on every step. Allocating those per batch is pure overhead once training
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
    /// Transposed copy of `W₂` (`classes × hidden`) so the backward product
    /// runs as a unit-stride `i-k-j` GEMM instead of a strided dot-product
    /// loop (same per-element summation order, so identical results).
    ///
    /// On the sampled-softmax path this is also the *forward* operand (the
    /// gathered-row kernels want class-major rows), and only the rows a
    /// step gathers are ever brought up to date: see `w2t_rows`.
    pub(crate) w2t: Matrix,
    /// Which rows of `w2t` hold their `W₂` column of the model's current
    /// state. The dense step refreshes all of them (`Mlp::sync_w2t`); the
    /// sampled step copies its stale candidate rows only, and its update
    /// writes both copies of each candidate from one value, so they stay
    /// valid.
    pub(crate) w2t_rows: RowStamps,
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
            // Sampled steps touch it row by row, so its pages are faulted
            // in as rows are first written, 4 KiB at a time (no huge-page
            // advice).
            w2t: Matrix::zeros(config.num_classes, config.hidden),
            w2t_rows: RowStamps::new(config.num_classes),
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

/// Per-row validity of a workspace's `W₂ᵀ` cache under one generation
/// counter: row `c` mirrors column `c` of `W₂` in the model state stamped
/// `epoch` (an `Mlp::w2_epoch`) iff every row was refreshed since the last
/// invalidation (`all`) or `stamps[c] == gen`. Any change to the model that
/// is not a row-coherent sampled update gives it a new epoch, and attaching
/// to a new epoch turns every row stale in O(1), by moving to the next
/// generation. One `u32` per class; nothing is allocated after
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct RowStamps {
    epoch: Option<u64>,
    all: bool,
    gen: u32,
    stamps: Vec<u32>,
}

impl RowStamps {
    /// Every row stale.
    fn new(classes: usize) -> Self {
        Self {
            epoch: None,
            all: false,
            gen: 1,
            stamps: vec![0; classes],
        }
    }

    /// Mirrors the model state `epoch` from here on: when it is not the
    /// state the valid rows were copied from, none of them is valid any
    /// more.
    pub(crate) fn attach(&mut self, epoch: u64) {
        if self.epoch != Some(epoch) {
            self.epoch = Some(epoch);
            self.all = false;
            self.gen = self.gen.wrapping_add(1);
            if self.gen == 0 {
                // After 2³² − 1 generations an old stamp could match again.
                self.stamps.fill(0);
                self.gen = 1;
            }
        }
    }

    /// The model moved to `epoch` by writing only rows that were valid, in
    /// both copies, from one value: every valid row stays valid.
    pub(crate) fn follow(&mut self, epoch: u64) {
        self.epoch = Some(epoch);
    }

    /// Whether the valid rows mirror the model state `epoch`.
    pub(crate) fn is_attached(&self, epoch: u64) -> bool {
        self.epoch == Some(epoch)
    }

    /// Whether every row is valid.
    pub(crate) fn all(&self) -> bool {
        self.all
    }

    /// Whether row `c` is valid.
    pub(crate) fn is_valid(&self, c: usize) -> bool {
        self.all || self.stamps[c] == self.gen
    }

    /// Row `c` was just copied from its column.
    pub(crate) fn mark(&mut self, c: usize) {
        self.stamps[c] = self.gen;
    }

    /// Every row was just copied from its column.
    pub(crate) fn mark_all(&mut self) {
        self.all = true;
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
        assert_eq!(ws.w2t.shape(), (5, 4));
        assert_eq!(ws.slot.len(), 9);
        assert!(ws.slot.iter().all(|&s| s == u32::MAX));
        assert_eq!(ws.grads.b1.len(), 4);
        assert_eq!(ws.grads.b2.len(), 5);
    }

    /// A new epoch stales every row, the marked ones and the all-valid flag
    /// alike — also when the generation counter wraps, where a stamp left
    /// from 2³² − 1 generations ago must not match again.
    #[test]
    fn attaching_a_new_epoch_stales_every_row_across_the_wrap() {
        let mut rows = RowStamps::new(4);
        assert!(!rows.is_valid(0), "a new cache holds nothing");
        rows.attach(7);
        rows.mark(1);
        assert!(rows.is_valid(1) && !rows.is_valid(2));
        rows.follow(8);
        assert!(rows.is_attached(8) && rows.is_valid(1), "follow keeps rows");
        rows.mark_all();
        assert!(rows.is_valid(3));
        rows.attach(8);
        assert!(rows.all(), "the same epoch stales nothing");
        rows.stamps[2] = 1;
        rows.gen = u32::MAX;
        rows.attach(9);
        assert_eq!(rows.gen, 1);
        assert!((0..4).all(|c| !rows.is_valid(c)), "{rows:?}");
    }
}
