//! Datasets for the Adaptive SGD reproduction.
//!
//! The paper evaluates on Amazon-670k and Delicious-200k from the Extreme
//! Classification repository. Those corpora are not redistributable here, so
//! this crate provides *synthetic statistical twins* (see `DESIGN.md` §2):
//! generators that match, at a configurable linear scale, the Table I
//! statistics that drive the algorithms' behaviour —
//!
//! * label-space size and Zipf-distributed label popularity,
//! * feature dimensionality and Zipf-distributed feature popularity,
//! * **log-normal per-sample non-zero counts** (the batch-to-batch variance
//!   that makes sparse kernels heterogeneous, §I),
//! * label-conditioned feature prototypes, so the data is genuinely
//!   learnable and accuracy curves have the paper's shape.
//!
//! Real XC data in libSVM format can be substituted via
//! [`asgd_sparse::libsvm`] and [`XmlDataset::from_libsvm`].
//!
//! Modules:
//!
//! * [`spec`] — dataset specifications ([`spec::DatasetSpec::amazon_670k`],
//!   [`spec::DatasetSpec::delicious_200k`]).
//! * [`synthetic`] — the generator.
//! * [`statistics`] — Table I statistics.
//! * [`batching`] — seeded shuffled sample streams and mega-batch
//!   accounting.

pub mod batching;
pub mod spec;
pub mod statistics;
pub mod synthetic;

pub use batching::SampleStream;
pub use spec::DatasetSpec;
pub use statistics::DatasetStats;
pub use synthetic::{generate, SplitData, XmlDataset};
