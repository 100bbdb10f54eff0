//! Golden determinism gate (tier-1): a fixed-seed run must reproduce
//! checked-in checksums of its dispatch trace and final model, byte for
//! byte, on every machine and at every `ASGD_THREADS` setting.
//!
//! The trainer's contract is that scheduling consumes only virtual device
//! clocks and seeded RNG, and that all floating-point reductions fix their
//! association order — so these values are constants of the codebase, not
//! of the host. If a change legitimately alters the numerics (new kernel
//! order, different merge arithmetic), re-derive the constants by running
//! this test and copying the printed values; an *unintentional* mismatch is
//! a determinism regression.

use adaptive_sgd::collective::InterNode;
use adaptive_sgd::core::{
    algorithms,
    trainer::{RunConfig, Trainer},
    ClusterConfig,
};
use adaptive_sgd::data::{generate, DatasetSpec};
use adaptive_sgd::gpusim::profile::heterogeneous_server;
use adaptive_sgd::stats::fnv1a;

fn golden_run() -> adaptive_sgd::core::metrics::RunResult {
    golden_run_on(3)
}

fn golden_run_on(managers: usize) -> adaptive_sgd::core::metrics::RunResult {
    let ds = generate(&DatasetSpec::tiny("golden"), 5);
    let mut cfg = RunConfig::paper_defaults(64, 8);
    cfg.hidden = 16;
    cfg.base_lr = 0.2;
    cfg.seed = 42;
    cfg.mega_batch_limit = Some(3);
    cfg.overhead_scale = 0.001;
    cfg.trace = true;
    Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(managers),
        cfg,
    )
    .run(&ds)
}

const GOLDEN_TRACE_FNV: u64 = 0x63a8_f15d_ffcb_a276;
const GOLDEN_MODEL_FNV: u64 = 0x47e2_857a_2f16_1107;

#[test]
fn fixed_seed_run_matches_checked_in_checksums() {
    let result = golden_run();
    let trace_fnv = fnv1a(result.trace.bytes());
    let model_fnv = fnv1a(result.final_model.iter().flat_map(|w| w.to_le_bytes()));
    assert!(!result.trace.is_empty(), "trace capture was disabled");
    assert!(
        trace_fnv == GOLDEN_TRACE_FNV && model_fnv == GOLDEN_MODEL_FNV,
        "golden checksums diverged:\n  trace: got {trace_fnv:#018x}, want {GOLDEN_TRACE_FNV:#018x}\n  model: got {model_fnv:#018x}, want {GOLDEN_MODEL_FNV:#018x}\n\
         If this change is *supposed* to alter the numerics or the trace \
         format, update the constants in tests/determinism_golden.rs."
    );
}

/// The same fixed-seed run over a simulated 2-server × 3-device cluster:
/// the two-level hierarchical merge (intra-node pool, inter-node ring over
/// the slow ethernet link) must be just as much a constant of the codebase
/// as the single-server path — scheduling consumes only virtual clocks, and
/// the hierarchical schedule never changes the reduction's arithmetic
/// association (see `asgd-collective::hierarchical`, "The reduction
/// contract").
fn cluster_golden_run() -> adaptive_sgd::core::metrics::RunResult {
    let ds = generate(&DatasetSpec::tiny("golden"), 5);
    let mut cfg = RunConfig::paper_defaults(64, 8);
    cfg.hidden = 16;
    cfg.base_lr = 0.2;
    cfg.seed = 42;
    cfg.mega_batch_limit = Some(3);
    cfg.overhead_scale = 0.001;
    cfg.trace = true;
    cfg.cluster = Some(ClusterConfig {
        servers: 2,
        devices_per_server: 3,
        inter: InterNode::Ring,
    });
    Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(6), cfg).run(&ds)
}

const CLUSTER_TRACE_FNV: u64 = 0x4e72_e7e3_1dd0_b96b;
const CLUSTER_MODEL_FNV: u64 = 0x0523_0ee1_1826_c900;

#[test]
fn cluster_fixed_seed_run_matches_checked_in_checksums() {
    let result = cluster_golden_run();
    let trace_fnv = fnv1a(result.trace.bytes());
    let model_fnv = fnv1a(result.final_model.iter().flat_map(|w| w.to_le_bytes()));
    assert!(!result.trace.is_empty(), "trace capture was disabled");
    assert!(
        trace_fnv == CLUSTER_TRACE_FNV && model_fnv == CLUSTER_MODEL_FNV,
        "cluster golden checksums diverged:\n  trace: got {trace_fnv:#018x}, want {CLUSTER_TRACE_FNV:#018x}\n  model: got {model_fnv:#018x}, want {CLUSTER_MODEL_FNV:#018x}\n\
         If this change is *supposed* to alter the numerics or the trace \
         format, update the constants in tests/determinism_golden.rs."
    );
}

#[test]
fn cluster_golden_run_is_thread_invariant() {
    // The in-process twin of ci.sh's 64×4 `probe cluster` gate: the worker
    // pool size must never leak into a clustered run, however the intra-node
    // and inter-node phases interleave on the host.
    adaptive_sgd::tensor::parallel::override_threads(1);
    let a = cluster_golden_run();
    adaptive_sgd::tensor::parallel::override_threads(8);
    let b = cluster_golden_run();
    adaptive_sgd::tensor::parallel::override_threads(0);
    assert_eq!(a.trace, b.trace, "cluster trace depends on thread count");
    assert_eq!(
        a.final_model, b.final_model,
        "cluster model bits depend on thread count"
    );
}

#[test]
fn run_is_thread_invariant_with_fewer_as_many_and_more_managers_than_threads() {
    // The replica threads of a training phase share one kernel pool and
    // split it by how many of them are mid-kernel at that instant — a race
    // by design. Whatever it hands each of them (every lane, a share, one
    // inline chunk), and however 1, 2, 4 or 6 replicas compare to 1, 2 or 8
    // pool threads, the run is the same run.
    for managers in [1usize, 2, 4, 6] {
        let run = |threads: usize| {
            adaptive_sgd::tensor::parallel::override_threads(threads);
            let r = golden_run_on(managers);
            adaptive_sgd::tensor::parallel::override_threads(0);
            r
        };
        let one = run(1);
        for threads in [2usize, 8] {
            let other = run(threads);
            assert_eq!(
                one.trace, other.trace,
                "{managers} managers, {threads} threads"
            );
            assert!(
                one.final_model
                    .iter()
                    .zip(other.final_model.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{managers} managers: model bits differ between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn golden_run_is_stable_within_a_process() {
    // The cheaper sibling check: two in-process runs agree exactly. A
    // failure here (with the checksum test passing) means nondeterminism
    // crept in *between* runs — a stateful cache or pool leak.
    let a = golden_run();
    let b = golden_run();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.final_model, b.final_model);
}
