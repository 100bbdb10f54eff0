//! The 3-layer MLP for extreme multi-label classification.
//!
//! This is the model of the paper's evaluation (§V-A): sparse input →
//! fully-connected hidden layer with ReLU → fully-connected output layer
//! with softmax and (multi-label) cross-entropy loss — the same architecture
//! the SLIDE testbed uses on Amazon-670k and Delicious-200k, with weights
//! initialized from a normal distribution scaled by the layer's unit count.
//!
//! * [`Mlp`] — parameters and the real forward/backward/update math.
//! * [`Overlay`] — a sampled-softmax replica as the rows it changed over
//!   a model it borrows, trained by the same kernels, bit for bit.
//! * [`workspace::Workspace`] — reusable training buffers; with one of
//!   these, steady-state `train_batch_ws` steps allocate nothing.
//! * [`gradients::Gradients`] — gradient buffers shaped like the model.
//! * [`eval`] — top-1 accuracy and precision@k on held-out data.
//! * [`workload`] — the [`asgd_gpusim::KernelKind`] sequence an epoch
//!   charges to its simulated device (this is where nnz-dependent timing
//!   heterogeneity enters).
//! * [`checkpoint`] — binary serialization (`bytes`-based) so every
//!   algorithm starts from an identical model.
//!
//! # Example
//!
//! ```
//! use asgd_model::{Mlp, MlpConfig};
//! use asgd_sparse::CsrMatrix;
//!
//! let config = MlpConfig { num_features: 8, hidden: 4, num_classes: 3 };
//! let mut model = Mlp::init(&config, 42);
//! let x = CsrMatrix::from_rows(8, &[(vec![1, 5], vec![1.0, 0.5])]).unwrap();
//! let labels = vec![vec![2u32]];
//! let loss0 = model.train_batch(&x, &labels, 0.5).loss;
//! let loss1 = model.train_batch(&x, &labels, 0.5).loss;
//! assert!(loss1 < loss0, "one SGD step must reduce loss on the same batch");
//! ```

pub mod checkpoint;
pub mod eval;
pub mod gradients;
pub mod mlp;
pub mod overlay;
pub mod workload;
pub mod workspace;

pub use gradients::Gradients;
pub use mlp::{Mlp, MlpConfig, TrainOutput};
pub use overlay::Overlay;
pub use workspace::Workspace;
