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
//!
//! `W₂` is stored class-major since the model constants below were last
//! re-cut. Every run whose merge sums each element in an order that does not
//! depend on its flat index — one device, two devices, `Naive` and `Tree` —
//! is pinned by the FNV its final model had in the hidden-major layout
//! (`hidden_major_fnv`), so those constants are the same numbers as before
//! the layout changed. The ring all-reduces fix an element's summation order
//! by its flat index, so over three or more devices their merges moved once,
//! with the layout.

use adaptive_sgd::collective::{Algorithm, InterNode};
use adaptive_sgd::core::{
    algorithms,
    trainer::{RunConfig, SampledSoftmax, Trainer},
    ClusterConfig,
};
use adaptive_sgd::data::{generate, DatasetSpec};
use adaptive_sgd::gpusim::profile::heterogeneous_server;
use adaptive_sgd::gpusim::FaultPlan;
use adaptive_sgd::model::MlpConfig;
use adaptive_sgd::stats::fnv1a;
use adaptive_sgd::tensor::Precision;

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
const GOLDEN_MODEL_FNV: u64 = 0xee46_1051_fcba_3f2b;

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
const CLUSTER_MODEL_FNV: u64 = 0x30fd_80ab_40b9_e5ed;

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

/// What a run of the golden configuration merges and trains through.
#[derive(Debug, Clone, Copy)]
enum Path {
    Dense,
    /// Sampled softmax and the sparse delta merge.
    SampledSparse,
    Bf16,
    /// A merge OOM (serial fallback), then a device loss.
    Faulted,
}

/// The golden configuration on `gpus` devices, merged by `algo`, and the
/// architecture it trains.
fn layout_run(gpus: usize, algo: Algorithm, path: Path) -> (Vec<f32>, MlpConfig) {
    let ds = generate(&DatasetSpec::tiny("golden"), 5);
    let mut cfg = RunConfig::paper_defaults(64, 8);
    cfg.hidden = 16;
    cfg.base_lr = 0.2;
    cfg.seed = 42;
    cfg.mega_batch_limit = Some(3);
    cfg.overhead_scale = 0.001;
    match path {
        Path::Dense => {}
        Path::SampledSparse => {
            cfg.sampled_softmax = Some(SampledSoftmax::defaults(16));
            cfg.sparse_merge = true;
            cfg.sparse_max_density = 1.0;
        }
        Path::Bf16 => cfg.precision = Precision::Bf16,
        Path::Faulted => {
            cfg.fault_plan = Some(FaultPlan::new().merge_oom(0).device_loss(1, 3, 1));
        }
    }
    let mut spec = algorithms::adaptive_sgd();
    spec.allreduce = algo;
    let config = MlpConfig {
        num_features: ds.num_features,
        hidden: cfg.hidden,
        num_classes: ds.num_labels,
    };
    let r = Trainer::new(spec, heterogeneous_server(gpus), cfg).run(&ds);
    (r.final_model.to_vec(), config)
}

/// FNV of `model` with `W₂` put back hidden-major (`hidden × num_classes`,
/// the layout before `W₂` was stored class-major): every other block is
/// where it was.
fn hidden_major_fnv(model: &[f32], config: &MlpConfig) -> u64 {
    let [_, _, w2, _] = config.block_ranges();
    let (h, classes) = (config.hidden, config.num_classes);
    let mut old = model.to_vec();
    for c in 0..classes {
        for k in 0..h {
            old[w2.start + k * classes + c] = model[w2.start + c * h + k];
        }
    }
    fnv1a(old.iter().flat_map(|w| w.to_le_bytes()))
}

/// Runs that no flat-index summation order reaches — one device, two
/// devices (one add per element, which commutes), the `Naive` and `Tree`
/// merges; dense, sampled with the sparse merge, bf16, through a merge OOM
/// and a device loss — train the same model as before `W₂` was stored
/// class-major: in the hidden-major layout, each final model's FNV is the
/// one the hidden-major code computed for it.
#[test]
fn class_major_w2_is_the_hidden_major_model_permuted() {
    let ring = Algorithm::MultiStreamRing { partitions: 4 };
    for (gpus, algo, path, hidden_major) in [
        (1, ring, Path::Dense, 0x0c48_c593_4f15_67fb),
        (2, ring, Path::Dense, 0x3518_1c97_142b_9c48),
        (3, Algorithm::Naive, Path::Dense, 0xe2e5_bb0f_dffc_2228),
        (4, Algorithm::Tree, Path::Dense, 0xc384_923f_a066_1c28),
        (1, ring, Path::SampledSparse, 0x3279_6279_de76_3f7f),
        (2, ring, Path::SampledSparse, 0x10a7_9665_8238_af5e),
        (
            3,
            Algorithm::Naive,
            Path::SampledSparse,
            0x1a07_0983_5b30_56a7,
        ),
        (4, Algorithm::Tree, Path::Bf16, 0x504b_8478_065d_e0df),
        (3, Algorithm::Naive, Path::Faulted, 0x48ba_12c5_b2c5_dd15),
    ] {
        let (model, config) = layout_run(gpus, algo, path);
        assert_eq!(
            hidden_major_fnv(&model, &config),
            hidden_major,
            "{gpus} devices, {algo:?}, {path:?}"
        );
    }
}
