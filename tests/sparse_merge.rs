//! Sparse delta merge acceptance suite.
//!
//! The reduction contract (see `DESIGN.md`, "Sparse delta merge"): with
//! `sparse_merge` on, the merged model is **bit-identical** to the dense
//! flat path at any thread count, in both precisions, over the flat and the
//! hierarchical (cluster) schedules — only the *simulated timing* of the
//! merge stage changes. These tests run paired dense/sparse configurations
//! over the same `(seed, config)` and compare final models and per-record
//! statistics bit-for-bit, including under fault injection (survivor-subset
//! unions) and under property-based randomization of fleet shape, precision,
//! and density threshold.

use adaptive_sgd::collective::InterNode;
use adaptive_sgd::core::metrics::RunResult;
use adaptive_sgd::core::{
    algorithms,
    trainer::{RunConfig, SampledSoftmax, Trainer},
    ClusterConfig,
};
use adaptive_sgd::data::{generate, DatasetSpec, XmlDataset};
use adaptive_sgd::gpusim::profile::heterogeneous_server;
use adaptive_sgd::gpusim::FaultPlan;
use adaptive_sgd::tensor::Precision;
use proptest::prelude::*;

const MEGAS: usize = 4;

fn dataset() -> XmlDataset {
    generate(&DatasetSpec::tiny("sparse-merge"), 17)
}

/// Base sampled-softmax config; `sparse_merge` stays off (the dense
/// reference) until a test flips it.
fn config(megas: usize) -> RunConfig {
    let mut c = RunConfig::paper_defaults(64, 8); // 512-sample mega-batches
    c.hidden = 16;
    c.base_lr = 0.2;
    c.mega_batch_limit = Some(megas);
    c.overhead_scale = 0.001;
    c.sampled_softmax = Some(SampledSoftmax::defaults(12));
    // The tiny dataset's union density exceeds the production threshold;
    // force the sparse schedule so these tests exercise it (the fallback is
    // covered by the proptest below and the trainer unit tests).
    c.sparse_max_density = 1.0;
    c
}

fn run_with(cfg: RunConfig, n_gpus: usize) -> RunResult {
    Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(n_gpus),
        cfg,
    )
    .run(&dataset())
}

/// Runs the same config dense and sparse, asserts whole-run bit-identity,
/// and returns the sparse result for further stats checks.
fn assert_sparse_equals_dense(mut cfg: RunConfig, n_gpus: usize) -> RunResult {
    cfg.trace = true;
    let mut sparse_cfg = cfg.clone();
    sparse_cfg.sparse_merge = true;
    let dense = run_with(cfg, n_gpus);
    let sparse = run_with(sparse_cfg, n_gpus);

    assert_eq!(
        dense.final_model, sparse.final_model,
        "sparse merge changed the merged model bits"
    );
    // The sparse schedule legitimately changes merge *durations* (that's the
    // point), which shifts absolute timestamps; the dispatch *trajectory* —
    // which replica runs which batch at which size — must be unchanged.
    fn trajectory(r: &RunResult) -> Vec<&str> {
        r.trace
            .lines()
            .map(|l| l.split_once("] ").map_or(l, |(_, rest)| rest))
            .collect()
    }
    assert_eq!(
        trajectory(&dense),
        trajectory(&sparse),
        "sparse merge changed the dispatch trajectory"
    );
    assert_eq!(dense.records.len(), sparse.records.len());
    for (d, s) in dense.records.iter().zip(&sparse.records) {
        assert_eq!(d.mean_loss.to_bits(), s.mean_loss.to_bits());
        assert_eq!(d.accuracy.to_bits(), s.accuracy.to_bits());
        assert_eq!(d.updates, s.updates);
        assert_eq!(d.merge_weights, s.merge_weights);
    }
    assert!(dense.sparse_merge.is_none());
    let stats = sparse
        .sparse_merge
        .as_ref()
        .expect("sparse run must report stats");
    assert_eq!(stats.merges, MEGAS as u64);
    sparse
}

fn cluster(servers: usize, per: usize) -> ClusterConfig {
    ClusterConfig {
        servers,
        devices_per_server: per,
        inter: InterNode::Ring,
    }
}

#[test]
fn flat_f32_is_bit_identical() {
    let sparse = assert_sparse_equals_dense(config(MEGAS), 3);
    let stats = sparse.sparse_merge.unwrap();
    assert_eq!(stats.fallbacks, 0, "density 1.0 must never fall back");
}

#[test]
fn flat_bf16_is_bit_identical() {
    let mut cfg = config(MEGAS);
    cfg.precision = Precision::Bf16;
    assert_sparse_equals_dense(cfg, 3);
}

#[test]
fn cluster_f32_is_bit_identical() {
    let mut cfg = config(MEGAS);
    cfg.cluster = Some(cluster(2, 2));
    assert_sparse_equals_dense(cfg, 4);
}

/// A dense-softmax replica holds every class and the `W₁` rows its
/// batches touched: with `sparse_merge` on, its run is the run with it off,
/// bit for bit in the model and the records, flat at f32 and in a 2×2
/// cluster at bf16.
#[test]
fn dense_softmax_is_bit_identical() {
    let mut cfg = config(MEGAS);
    cfg.sampled_softmax = None;
    assert_sparse_equals_dense(cfg.clone(), 3);
    cfg.precision = Precision::Bf16;
    cfg.cluster = Some(cluster(2, 2));
    assert_sparse_equals_dense(cfg, 4);
}

#[test]
fn sparse_moves_fewer_bytes_when_labels_dwarf_candidates() {
    // The tiny spec's 40 labels make every candidate union near-dense; the
    // traffic win needs the production regime, where the label space dwarfs
    // the sampled candidate sets. A 1%-scale Amazon-670k twin (≈6.7k labels)
    // is enough to see it, and the bit-identity contract must still hold.
    let ds = generate(&DatasetSpec::amazon_670k(0.01), 17);
    let mut cfg = config(2);
    cfg.sparse_max_density = adaptive_sgd::collective::DEFAULT_MAX_DENSITY;
    let mut sparse_cfg = cfg.clone();
    sparse_cfg.sparse_merge = true;
    let run = |c: RunConfig| {
        Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(3), c).run(&ds)
    };
    let dense = run(cfg);
    let sparse = run(sparse_cfg);
    assert_eq!(dense.final_model, sparse.final_model);
    let stats = sparse.sparse_merge.unwrap();
    assert_eq!(stats.fallbacks, 0, "unions must stay under the threshold");
    assert!(
        stats.sparse_bytes * 2 < stats.dense_bytes,
        "expected ≥2x byte reduction at 1% Amazon scale: sparse {} vs dense {}",
        stats.sparse_bytes,
        stats.dense_bytes
    );
}

#[test]
fn cluster_bf16_is_bit_identical() {
    let mut cfg = config(MEGAS);
    cfg.precision = Precision::Bf16;
    cfg.cluster = Some(cluster(2, 2));
    assert_sparse_equals_dense(cfg, 4);
}

#[test]
fn sparse_runs_are_bit_identical_across_thread_counts() {
    // The charged timing is thread-count independent and the arithmetic is
    // the dense reduction's: ASGD_THREADS must not leak into the result.
    let run_threads = |threads: usize| {
        adaptive_sgd::tensor::parallel::override_threads(threads);
        let mut cfg = config(MEGAS);
        cfg.sparse_merge = true;
        cfg.trace = true;
        let r = run_with(cfg, 3);
        adaptive_sgd::tensor::parallel::override_threads(0);
        r
    };
    let a = run_threads(1);
    let b = run_threads(8);
    assert_eq!(a.final_model, b.final_model);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.sparse_merge, b.sparse_merge);
}

#[test]
fn device_loss_mid_run_stays_bit_identical_to_dense() {
    // Survivor-subset unions: the sparse gather addresses only the alive
    // replicas and the union shrinks accordingly — and the merged bits must
    // still match the dense faulted run exactly.
    let mut cfg = config(MEGAS);
    cfg.fault_plan = Some(FaultPlan::new().device_loss(1, 6, 0));
    let sparse = assert_sparse_equals_dense(cfg, 4);
    assert_eq!(sparse.chaos.lost_gpus, vec![0]);
    assert!(sparse.chaos.redispatched_batches >= 1);
}

#[test]
fn server_loss_mid_run_stays_bit_identical_to_dense() {
    let mut cfg = config(MEGAS);
    cfg.cluster = Some(cluster(3, 2));
    cfg.fault_plan = Some(FaultPlan::new().server_loss(1, 4, 0));
    let sparse = assert_sparse_equals_dense(cfg, 6);
    assert_eq!(sparse.chaos.lost_gpus, vec![0, 1], "whole node must die");
}

#[test]
fn faulted_sparse_runs_are_bit_identical_across_re_runs() {
    let run_once = || {
        let mut cfg = config(MEGAS);
        cfg.sparse_merge = true;
        cfg.trace = true;
        cfg.fault_plan = Some(FaultPlan::new().device_loss(1, 6, 0));
        run_with(cfg, 4)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.final_model, b.final_model);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.chaos, b.chaos);
    assert_eq!(a.sparse_merge, b.sparse_merge);
}

#[test]
fn merge_oom_under_sparse_merge_keeps_the_contract() {
    // The OOM serial fallback reduces the same flat buffers; the sparse
    // timing charge sits on top of either reduction path unchanged.
    let mut cfg = config(MEGAS);
    cfg.fault_plan = Some(FaultPlan::new().merge_oom(1));
    let sparse = assert_sparse_equals_dense(cfg, 3);
    assert_eq!(sparse.chaos.serial_fallback_merges, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline contract, property-tested: over random fleet sizes,
    /// precisions, density thresholds (including ones forcing the dense
    /// fallback), and flat/hierarchical schedules, the sparse run's merged
    /// model is bit-identical to the dense run's.
    #[test]
    fn sparse_matches_dense_over_random_shapes(
        n_gpus in 2usize..=4,
        bf16 in prop_oneof![Just(false), Just(true)],
        clustered in prop_oneof![Just(false), Just(true)],
        max_density in prop_oneof![Just(0.0), Just(0.5), Just(1.0)],
        seed in 0u64..4,
    ) {
        let mut cfg = config(2);
        cfg.seed = 1000 + seed;
        cfg.sparse_max_density = max_density;
        if bf16 {
            cfg.precision = Precision::Bf16;
        }
        // A cluster needs servers × per == n_gpus; 2 servers of n/2 only
        // divides evenly for even fleets.
        let n = if clustered { n_gpus & !1 } else { n_gpus }.max(2);
        if clustered {
            cfg.cluster = Some(cluster(2, n / 2));
        }
        let mut sparse_cfg = cfg.clone();
        sparse_cfg.sparse_merge = true;
        let dense = run_with(cfg, n);
        let sparse = run_with(sparse_cfg, n);
        prop_assert_eq!(&dense.final_model, &sparse.final_model);
        for (d, s) in dense.records.iter().zip(&sparse.records) {
            prop_assert_eq!(d.mean_loss.to_bits(), s.mean_loss.to_bits());
            prop_assert_eq!(d.accuracy.to_bits(), s.accuracy.to_bits());
        }
        let stats = sparse.sparse_merge.expect("stats must be reported");
        if max_density == 0.0 {
            // Impossible threshold: every merge falls back to dense bytes.
            prop_assert_eq!(stats.fallbacks, stats.merges);
            prop_assert_eq!(stats.sparse_bytes, stats.dense_bytes);
        }
    }
}
