//! All-reduce collectives for single-server multi-GPU model merging.
//!
//! The paper implements model merging as an all-reduce because NCCL "lacks
//! support for multi-streams — which precludes the overlap between model
//! transfer and reduction computation" (§IV). This crate reproduces their
//! replacement: naive (gather-to-root), **tree**, **ring**, and the
//! **multi-stream partitioned ring** they settle on, where the model is split
//! into `P` partitions, each assigned to its own stream and starting its ring
//! at a different GPU, so transfer and reduction overlap completely.
//!
//! Every algorithm does **real arithmetic** — after a call, every device
//! buffer holds the weighted sum of all inputs — and returns simulated
//! timing derived from [`asgd_gpusim`]'s topology and device profiles, so
//! the ring-vs-tree and multi-stream claims can be benchmarked.
//!
//! # Example
//!
//! ```
//! use asgd_collective::{allreduce, Algorithm, CollectiveContext};
//! use asgd_gpusim::{profile, SimTime, Topology};
//!
//! let profiles = profile::homogeneous_server(4);
//! let ctx = CollectiveContext::new(Topology::pcie(4), &profiles);
//! let mut bufs = vec![vec![1.0f32; 64], vec![2.0; 64], vec![3.0; 64], vec![4.0; 64]];
//! let weights = [0.25f64; 4];
//! let timing = allreduce(
//!     &mut bufs,
//!     &weights,
//!     Algorithm::MultiStreamRing { partitions: 4 },
//!     &ctx,
//!     &[SimTime::ZERO; 4],
//! );
//! for b in &bufs {
//!     assert!((b[0] - 2.5).abs() < 1e-6); // 0.25·(1+2+3+4)
//! }
//! assert!(timing.end.secs() > 0.0);
//! ```

pub mod algorithms;
pub mod hierarchical;
pub mod sparse;
pub mod tiles;
pub mod timing;

pub use algorithms::{allreduce, allreduce_flat, allreduce_flat_serial, Algorithm};
pub use hierarchical::{
    hierarchical_allreduce_flat, hierarchical_allreduce_flat_serial, InterNode,
};
pub use sparse::{
    dense_schedule, gather_delta, scatter_delta, sparse_merge_timing, union_rows, SparseLayout,
    SparseMergePlan, SparseMergeTiming, DEFAULT_MAX_DENSITY,
};
pub use tiles::{
    allreduce_tiled, split_shares, tile_shares, ReducePlan, Shares, Src, TilePart, MAX_DEVICES,
    TILE_ELEMS,
};
pub use timing::{AllReduceTiming, CollectiveContext};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use asgd_gpusim::{profile, SimTime, Topology};

    fn ctx(n: usize) -> CollectiveContext {
        CollectiveContext::new(Topology::pcie(n), &profile::homogeneous_server(n))
    }

    fn buffers(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|d| {
                (0..len)
                    .map(|i| (d * len + i) as f32 * 0.01 - 1.5)
                    .collect()
            })
            .collect()
    }

    fn expected(bufs: &[Vec<f32>], weights: &[f64]) -> Vec<f32> {
        let len = bufs[0].len();
        (0..len)
            .map(|i| {
                bufs.iter()
                    .zip(weights)
                    .map(|(b, &w)| b[i] as f64 * w)
                    .sum::<f64>() as f32
            })
            .collect()
    }

    #[test]
    fn all_algorithms_agree_with_reference() {
        for n in [1usize, 2, 3, 4, 6] {
            for algo in [
                Algorithm::Naive,
                Algorithm::Tree,
                Algorithm::Ring,
                Algorithm::MultiStreamRing {
                    partitions: n.max(1),
                },
            ] {
                let mut bufs = buffers(n, 103);
                let weights: Vec<f64> = (1..=n)
                    .map(|i| i as f64 / (n * (n + 1) / 2) as f64)
                    .collect();
                let want = expected(&bufs, &weights);
                allreduce(&mut bufs, &weights, algo, &ctx(n), &vec![SimTime::ZERO; n]);
                for b in &bufs {
                    for (got, want) in b.iter().zip(&want) {
                        assert!((got - want).abs() < 1e-4, "{algo:?} n={n}: {got} != {want}");
                    }
                }
            }
        }
    }

    #[test]
    fn stragglers_delay_the_collective() {
        let n = 4;
        let mut bufs = buffers(n, 64);
        let weights = vec![0.25f64; 4];
        let arrivals = [SimTime(0.0), SimTime(0.0), SimTime(5.0), SimTime(0.0)];
        let t = allreduce(&mut bufs, &weights, Algorithm::Ring, &ctx(n), &arrivals);
        assert!(t.start.secs() >= 5.0, "collective must wait for stragglers");
        assert!(t.end.secs() > t.start.secs());
    }

    #[test]
    fn multi_stream_ring_beats_single_stream_tree_on_large_models() {
        // §IV: "the multi-stream ring-based all-reduce function performs
        // model merging at least twice as fast" as the single-stream tree.
        let n = 4;
        let len = 4_000_000; // 16 MB per replica: bandwidth-bound.
        let weights = vec![0.25f64; 4];
        let run = |algo| {
            let mut bufs: Vec<Vec<f32>> = (0..n).map(|d| vec![d as f32; len]).collect();
            allreduce(&mut bufs, &weights, algo, &ctx(n), &vec![SimTime::ZERO; n]).duration()
        };
        let tree = run(Algorithm::Tree);
        let msr = run(Algorithm::MultiStreamRing { partitions: 4 });
        assert!(
            msr * 2.0 <= tree,
            "multi-stream ring {msr} not 2x faster than tree {tree}"
        );
    }

    #[test]
    fn tree_beats_ring_on_tiny_models() {
        // Latency-bound regime: fewer sequential steps wins.
        let n = 8;
        let len = 32;
        let weights = vec![1.0 / n as f64; n];
        let run = |algo| {
            let mut bufs: Vec<Vec<f32>> = (0..n).map(|d| vec![d as f32; len]).collect();
            allreduce(&mut bufs, &weights, algo, &ctx(n), &vec![SimTime::ZERO; n]).duration()
        };
        assert!(run(Algorithm::Tree) < run(Algorithm::Ring));
    }
}
