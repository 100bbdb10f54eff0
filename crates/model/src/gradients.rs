//! Gradient buffers shaped like the model — plain storage, no arithmetic.
//!
//! One representation per layer. The input layer's gradient is a list of
//! sparse rows on both training paths. The output layer's gradient is the
//! dense `w2` / `b2` pair here on the dense path; on the sampled-softmax path
//! it never leaves the compact `|candidates| × hidden` block the kernels
//! wrote it into (`Workspace::gt` / `b2_scratch`), and the update step reads
//! it there — see `Mlp::apply_gradients_sampled`.

use crate::mlp::MlpConfig;
use asgd_tensor::Matrix;

/// Gradients of one batch.
///
/// The input-layer gradient is stored *sparsely* as `(feature, row)` pairs —
/// for XML data only a few hundred of the hundreds of thousands of feature
/// rows are touched per batch, and both the update math and the simulated
/// kernel cost depend on that sparsity.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// Sparse rows of `∇W₁ = Xᵀ·dh`, sorted by feature id.
    pub w1_updates: Vec<(u32, Vec<f32>)>,
    /// `∇b₁`.
    pub b1: Vec<f32>,
    /// `∇W₂`, class-major like `W₂` (`classes × hidden`). Dense path only:
    /// sized by the first dense step, so a sampled replica never holds it.
    pub w2: Matrix,
    /// `∇b₂` (dense path only; the sampled path leaves it untouched).
    pub b2: Vec<f32>,
}

impl Gradients {
    /// Zero gradients for an architecture.
    pub fn new(config: &MlpConfig) -> Self {
        Self {
            w1_updates: Vec::new(),
            b1: vec![0.0; config.hidden],
            w2: Matrix::zeros(0, config.hidden),
            b2: vec![0.0; config.num_classes],
        }
    }
}
