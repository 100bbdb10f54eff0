//! **Adaptive SGD** — the paper's contribution, implemented in a Rust port of
//! the HeteroGPU framework over a simulated heterogeneous multi-GPU server.
//!
//! The crate provides:
//!
//! * [`hyper`] — per-GPU hyperparameter state and **Algorithm 1** (batch
//!   size scaling with the linear update rule, `b_min`/`b_max` clamps, and
//!   the linear learning-rate scaling rule).
//! * [`merging`] — **Algorithm 2** (normalized model merging: update-count /
//!   batch-size weight normalization, regularization-gated perturbation, and
//!   the momentum global-model update).
//! * [`trainer`] — the HeteroGPU architecture of Fig. 3: a central dynamic
//!   scheduler owning the simulated devices, the sample stream and one
//!   model *replica per device*. It decides each mega-batch on virtual
//!   device clocks alone, then the replicas train it on one scoped thread
//!   each, so runs are deterministic and thread-parallel at once.
//! * [`algorithms`] — ready-made [`trainer::TrainerSpec`]s for the five
//!   systems of the evaluation: **Adaptive SGD**, **Elastic SGD**,
//!   **TensorFlow-mirrored** (synchronous gradient aggregation),
//!   **CROSSBOW-style** synchronous model averaging.
//! * [`slide`] — the SLIDE CPU baseline trainer (per-sample LSH-sampled
//!   updates over the shared `asgd-slide` hash tables).
//! * [`metrics`] — time-to-accuracy / statistical-efficiency recording.
//!
//! # Example
//!
//! ```
//! use asgd_core::{algorithms, trainer::{RunConfig, Trainer}};
//! use asgd_data::{generate, DatasetSpec};
//! use asgd_gpusim::profile::heterogeneous_server;
//!
//! let dataset = generate(&DatasetSpec::tiny("quick"), 7);
//! let mut config = RunConfig::paper_defaults(64, 2);
//! config.mega_batch_limit = Some(3);
//! config.hidden = 16;
//! let spec = algorithms::adaptive_sgd();
//! let result = Trainer::new(spec, heterogeneous_server(2), config).run(&dataset);
//! assert!(!result.records.is_empty());
//! ```

pub mod algorithms;
pub mod checkpoint;
pub mod hyper;
pub mod merging;
pub mod metrics;
pub mod schedule;
pub mod slide;
pub mod trainer;

pub use checkpoint::{load_model, TrainingState};
pub use hyper::{scale_batch_sizes, scale_batch_sizes_with, GpuHyper, ScalingParams, ScalingRule};
pub use merging::{compute_merge_weights, MergeDecision, MergeParams, Normalization};
pub use metrics::{MergeRecord, RunRecorder, RunResult};
pub use schedule::{ScalingScheduler, StalenessBound, Trajectory};
pub use trainer::chaos::{AppliedFault, ChaosStats};
pub use trainer::ClusterConfig;
