//! Dense linear algebra kernels for the Adaptive SGD reproduction.
//!
//! The deep-learning substrate of the paper runs on cuBLAS/cuSPARSE; this
//! crate is the dense half of our from-scratch replacement. It provides a
//! row-major `f32` [`Matrix`], blocked and thread-parallel [`ops::gemm`]
//! variants (NN/NT/TN) over the one register-tile family of [`kernels`],
//! element-wise kernels, a numerically stable softmax, and seeded weight
//! initialization.
//!
//! All parallelism goes through [`parallel`], which chunks row ranges over a
//! process-wide persistent worker pool — workers are spawned once and parked
//! between jobs, so a kernel's fork/join is two short critical sections and
//! a wake-up per helper, not a round of thread spawns. Any number of threads
//! may call in at once (a trainer's replicas do): each gets its fair
//! share of the pool — all of it when alone, one inline chunk when as many
//! callers as threads are mid-kernel — and none waits for another's job.
//! Results never depend on the share. The thread count is resolved once from
//! `ASGD_THREADS` or `std::thread::available_parallelism`.
//!
//! # Example
//!
//! ```
//! use asgd_tensor::{Matrix, ops};
//!
//! let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
//! let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
//! let mut c = Matrix::zeros(2, 2);
//! ops::gemm(1.0, &a, &b, 0.0, &mut c);
//! assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
//! ```

pub mod bf16;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod numerics;
pub mod ops;
pub mod pages;
pub mod parallel;
pub(crate) mod pool;
pub mod reference;

pub use bf16::{FlatRef, FlatVec, Precision};
pub use matrix::{Mat, MatRef, Matrix};
