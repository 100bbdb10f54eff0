//! The host's measured roofline and the cost-model calibration rows.
//!
//! `host.peak_gflops` (an FMA micro-loop) and `host.stream_gbs` (a stream
//! triad) are what this machine can do at most on the threads the kernels
//! use, so a kernel's GFLOP/s reads as a distance from peak. Bytes are
//! computed from array sizes, not measured on the memory bus.

use crate::stats::{timed_n, Summary};
use asgd_collective::{allreduce_flat, Algorithm, CollectiveContext};
use asgd_gpusim::cost::kernel_time;
use asgd_gpusim::profile::homogeneous_server;
use asgd_gpusim::{DeviceProfile, KernelKind, SimTime, Topology};
use asgd_model::MlpConfig;
use asgd_sparse::{ops as sops, CsrMatrix};
use asgd_tensor::parallel::{num_threads, par_chunks_mut, par_tasks};
use asgd_tensor::{ops, FlatVec, Matrix};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Independent accumulator chains per thread: enough to cover FMA latency
/// (4-5 cycles x 2 ports) without spilling the 16 vector registers.
const CHAINS: usize = 10;

/// `iters` rounds of `CHAINS` dependent multiply-adds over 8 lanes; returns a
/// value that depends on every one of them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let a = _mm256_set1_ps(black_box(0.999_999_9));
    let b = _mm256_set1_ps(black_box(1e-9));
    let mut acc = [_mm256_set1_ps(1.0); CHAINS];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut sum = acc[0];
    for v in &acc[1..] {
        sum = _mm256_add_ps(sum, *v);
    }
    let mut out = [0.0f32; 8];
    // SAFETY: `out` is 8 f32s, exactly the 32 bytes an unaligned 256-bit
    // store writes.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), sum) };
    out.iter().sum()
}

/// The same chains in portable code (separate multiply and add, which the
/// compiler vectorises to the baseline ISA).
fn fma_chains_portable(iters: u64) -> f32 {
    let a = black_box(0.999_999_9f32);
    let b = black_box(1e-9f32);
    let mut acc = [[1.0f32; 8]; CHAINS];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            for x in v.iter_mut() {
                *x = *x * a + b;
            }
        }
    }
    acc.iter().flatten().sum()
}

fn fma_chains(iters: u64) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        // SAFETY: the two CPU features the function is compiled for were
        // detected on this processor just above.
        return unsafe { fma_chains_avx2(iters) };
    }
    fma_chains_portable(iters)
}

/// Best of `reps` timings of `f`, in seconds: a roofline is the most the
/// machine did, not its typical day.
fn best_of(reps: usize, f: impl FnMut()) -> f64 {
    timed_n(reps, f).1.into_iter().fold(f64::INFINITY, f64::min)
}

/// Peak single-precision GFLOP/s over the kernel worker pool's threads.
pub fn peak_gflops() -> f64 {
    let threads = num_threads();
    let iters = 4_000_000u64;
    let sink = AtomicU64::new(0);
    let secs = best_of(3, || {
        par_tasks(threads, |_| {
            let v = fma_chains(iters);
            sink.fetch_add(v.to_bits() as u64, Ordering::Relaxed);
        });
    });
    black_box(sink.load(Ordering::Relaxed));
    // CHAINS x 8 lanes x (mul + add) per round, on every thread.
    (threads as u64 * iters * CHAINS as u64 * 8 * 2) as f64 / secs / 1e9
}

/// Stream-triad GB/s (`a = b + s*c` over arrays far larger than the caches),
/// counting the 12 computed bytes per element.
pub fn stream_gbs() -> f64 {
    const N: usize = 8 << 20; // 3 x 32 MiB
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let s = black_box(0.5f32);
    let secs = best_of(4, || {
        par_chunks_mut(&mut a, N, 1, 1, |lo, part| {
            for (j, x) in part.iter_mut().enumerate() {
                *x = b[lo + j] + s * c[lo + j];
            }
        });
    });
    black_box(&a);
    (12 * N) as f64 / secs / 1e9
}

/// Deterministic small values: a probe times a kernel at a shape, so the
/// contents only have to be ordinary finite floats.
pub fn filled(rows: usize, cols: usize, salt: u32) -> Matrix {
    let mut state = 0x9E37_79B9u32 ^ salt;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        ((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 0.1
    })
}

fn median_secs(reps: usize, f: impl FnMut()) -> f64 {
    Summary::of(&timed_n(reps, f).1).median
}

/// `gpusim.calib.*`: for each kernel family, the cost model's time ratio to
/// `gemm` divided by this host's measured ratio to `gemm`, at the workload's
/// shapes. 1 means the simulator ranks the family against gemm the way this
/// CPU does; it says nothing about real GPUs, on which the model is
/// unvalidated.
pub struct Calibration {
    pub spmm: f64,
    pub gemm_nt: f64,
    pub allreduce: f64,
}

pub fn calibrate(config: &MlpConfig, batch: &CsrMatrix) -> Calibration {
    let profile = DeviceProfile::v100("calib");
    let (m, k) = (batch.rows(), config.hidden);
    // A class panel wide enough to be compute-bound, small enough to stay a
    // sub-second probe at the widest label space.
    let n = config.num_classes.min(8192);
    let a = filled(m, k, 1);
    let b = filled(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    let host_gemm = median_secs(5, || ops::gemm(1.0, &a, &b, 0.0, &mut c));
    let model_gemm = kernel_time(&profile, KernelKind::Gemm { m, k, n });

    // dh = dlogits x W2^T through the strided kernel: same flops as gemm.
    let mut dh = Matrix::zeros(m, k);
    let host_nt = median_secs(5, || ops::gemm_nt(1.0, &c, &b, 0.0, &mut dh));
    let model_nt = kernel_time(&profile, KernelKind::Gemm { m, k: n, n: k });

    let w1 = filled(config.num_features, k, 3);
    let mut h = Matrix::zeros(m, k);
    let host_spmm = median_secs(5, || sops::spmm(batch, &w1, &mut h));
    let model_spmm = kernel_time(
        &profile,
        KernelKind::SpMm {
            nnz: batch.nnz(),
            n: k,
        },
    );

    let len = config.param_len().min(4 << 20);
    let profiles = homogeneous_server(4);
    let ctx = CollectiveContext::new(Topology::pcie(4), &profiles);
    let mut bufs: Vec<FlatVec> = (0..4)
        .map(|d| FlatVec::F32(vec![d as f32 * 0.25; len]))
        .collect();
    let mut model_ar = 0.0;
    let host_ar = median_secs(3, || {
        model_ar = allreduce_flat(
            &mut bufs,
            &[0.25; 4],
            Algorithm::MultiStreamRing { partitions: 4 },
            &ctx,
            &[SimTime::ZERO; 4],
        )
        .duration();
    });

    let calib = |model: f64, host: f64| (model / model_gemm) / (host / host_gemm);
    Calibration {
        spmm: calib(model_spmm, host_spmm),
        gemm_nt: calib(model_nt, host_nt),
        allreduce: calib(model_ar, host_ar),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_fma_loops_compute_the_same_chains() {
        // x <- x*a + b from 1.0, 80 chains: the vector and the portable loop
        // agree to rounding (fused vs unfused multiply-add).
        let (p, v) = (fma_chains_portable(1000), fma_chains(1000));
        assert!((p - v).abs() / p < 1e-4, "{p} vs {v}");
        assert!(p > 0.0 && p < 80.0);
    }

    #[test]
    fn filled_is_deterministic_and_small() {
        let a = filled(3, 5, 7);
        assert_eq!(a, filled(3, 5, 7));
        assert!(a.as_slice().iter().all(|x| x.abs() <= 0.05));
        assert_ne!(a, filled(3, 5, 8));
    }
}
