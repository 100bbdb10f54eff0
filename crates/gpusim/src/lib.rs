//! Deterministic virtual-time simulator of a heterogeneous multi-GPU server.
//!
//! The paper's experiments run on a server with 4 NVIDIA V100s whose
//! *observed* performance differs — both across devices ("the gap between the
//! fastest and slowest GPU is as large as 32%", Fig. 1) and across batches
//! (sparse kernels are sensitive to the non-zero count of their input). This
//! crate replaces that hardware with an analytic model:
//!
//! * [`DeviceProfile`] — static capability description (dense/sparse
//!   throughput, memory bandwidth, kernel launch overhead, link bandwidth)
//!   plus a relative `speed_factor` and a [`JitterModel`];
//! * [`KernelKind`] — the workload taxonomy (SpMM, GEMM, element-wise,
//!   softmax, transfers, …) with an exact work accounting in flops/bytes;
//! * [`Device`] — a virtual clock that advances by the modelled duration of
//!   every kernel executed on it, perturbed by a *seeded* jitter process
//!   (slow sinusoidal drift × per-kernel log-normal noise), so heterogeneity
//!   is reproducible bit-for-bit;
//! * [`fusion`] — kernel-launch accounting with and without kernel fusion,
//!   including the CUDA-environment contention the paper observes when many
//!   GPU managers launch kernels concurrently;
//! * [`topology`] — host↔device and peer-to-peer link timing;
//! * [`trace`] — optional event traces (Fig. 2-style dispatch timelines);
//! * [`faults`] — seeded, reproducible fault plans (straggler spikes,
//!   transient stalls, permanent device loss, merge-time OOM) keyed to the
//!   deterministic scheduling loop, and [`pool`], their one interpreter.
//!
//! Numerical work is **not** done here — callers run the real math on the CPU
//! and charge the corresponding [`KernelKind`] to a device. Scheduling
//! decisions in the training framework consume only virtual clocks, so the
//! entire training pipeline is a deterministic function of its seeds.

pub mod cost;
pub mod device;
pub mod faults;
pub mod fusion;
pub mod memory;
pub mod pool;
pub mod profile;
pub mod topology;
pub mod trace;

pub use cost::KernelKind;
pub use device::{earliest_free, Device, DeviceId};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use pool::{DevicePool, FaultEffect, FaultOutcome, Unit};
pub use profile::{DeviceProfile, JitterModel};
pub use topology::{ClusterTopology, DeviceLocation, Topology};
pub use trace::{TraceEvent, TraceLog};

/// Simulated time in seconds. A plain `f64` newtype with explicit ordering
/// helpers; all simulator APIs deal in `SimTime`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Seconds as `f64`.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl std::ops::Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl std::ops::Sub for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::ZERO + 1.5;
        assert_eq!(t.secs(), 1.5);
        assert_eq!(t.max(SimTime(0.7)).secs(), 1.5);
        assert!((SimTime(2.0) - SimTime(0.5) - 1.5).abs() < 1e-12);
        assert_eq!(format!("{}", SimTime(0.25)), "0.250000s");
    }
}
