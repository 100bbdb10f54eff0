//! A census of the model-sized buffers one `Trainer::run` allocates.
//!
//! A counting global allocator tallies every allocation of at least one f32
//! model (`param_len × 4` bytes) made while a run is in progress. A run
//! holds exactly one per replica, the global model and its momentum memory
//! (DESIGN.md, "Model-sized buffers"): at f32 the redistribution payload is
//! the global model itself, and the final model leaves the run as the
//! resumable state's global model, one allocation shared by both. At bf16
//! the payload is the one extra buffer, half a model in size.
//!
//! A replica's `Workspace` holds no copy of `W₂` either: `W₂` is stored
//! once, class-major, in the model, and a workspace at the sampled
//! benchmark's shape allocates nothing as large as `W₂`.
//!
//! Every case runs inside one `#[test]` so no other test's allocations land
//! in the count.

use adaptive_sgd::collective::InterNode;
use adaptive_sgd::core::trainer::{RunConfig, SampledSoftmax, Trainer};
use adaptive_sgd::core::{algorithms, ClusterConfig, RunResult};
use adaptive_sgd::data::{generate, DatasetSpec, XmlDataset};
use adaptive_sgd::gpusim::profile::heterogeneous_server;
use adaptive_sgd::gpusim::FaultPlan;
use adaptive_sgd::model::{MlpConfig, Workspace};
use adaptive_sgd::tensor::Precision;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting allocations of `WATCH` bytes or more and
/// of exactly `EXACT` bytes (each `usize::MAX` while no run is watched).
struct Census;

static WATCH: AtomicUsize = AtomicUsize::new(usize::MAX);
static EXACT: AtomicUsize = AtomicUsize::new(usize::MAX);
static AT_LEAST: AtomicUsize = AtomicUsize::new(0);
static EXACTLY: AtomicUsize = AtomicUsize::new(0);

fn note(bytes: usize) {
    if bytes >= WATCH.load(Ordering::SeqCst) {
        AT_LEAST.fetch_add(1, Ordering::SeqCst);
    }
    if bytes == EXACT.load(Ordering::SeqCst) {
        EXACTLY.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Census = Census;

/// Wide enough that the model dwarfs every other buffer of the run (eval
/// logits, a sparse delta, the LSH tables), small enough for a debug
/// build.
fn dataset() -> XmlDataset {
    let spec = DatasetSpec {
        num_features: 8_000,
        num_labels: 1_000,
        train_samples: 320,
        test_samples: 64,
        ..DatasetSpec::tiny("model-buffers")
    };
    generate(&spec, 11)
}

fn config(precision: Precision) -> RunConfig {
    let mut c = RunConfig::paper_defaults(32, 4);
    c.hidden = 16;
    c.mega_batch_limit = Some(3);
    c.eval_chunk = 64;
    c.overhead_scale = 0.001;
    c.precision = precision;
    c
}

/// `(allocations ≥ one f32 model, allocations of exactly one bf16 model)`
/// made by one run of `cfg` on `gpus` devices, and its result.
fn census(ds: &XmlDataset, cfg: RunConfig, gpus: usize) -> (usize, usize, RunResult) {
    let param_len = MlpConfig {
        num_features: ds.num_features,
        hidden: cfg.hidden,
        num_classes: ds.num_labels,
    }
    .param_len();
    let trainer = Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(gpus), cfg);
    AT_LEAST.store(0, Ordering::SeqCst);
    EXACTLY.store(0, Ordering::SeqCst);
    EXACT.store(param_len * 2, Ordering::SeqCst);
    WATCH.store(param_len * 4, Ordering::SeqCst);
    let result = trainer.run(ds);
    WATCH.store(usize::MAX, Ordering::SeqCst);
    EXACT.store(usize::MAX, Ordering::SeqCst);
    (
        AT_LEAST.load(Ordering::SeqCst),
        EXACTLY.load(Ordering::SeqCst),
        result,
    )
}

/// Allocations of `W₂`'s size or more that `Workspace::new` makes at the
/// sampled benchmark's shape (135,909 features, 64 hidden, 67,009 classes:
/// `W₂` is 17 MB).
fn workspace_census() -> usize {
    let config = MlpConfig {
        num_features: 135_909,
        hidden: 64,
        num_classes: 67_009,
    };
    AT_LEAST.store(0, Ordering::SeqCst);
    WATCH.store(config.hidden * config.num_classes * 4, Ordering::SeqCst);
    let ws = Workspace::new(&config);
    WATCH.store(usize::MAX, Ordering::SeqCst);
    drop(ws);
    AT_LEAST.load(Ordering::SeqCst)
}

#[test]
fn a_run_allocates_each_model_sized_buffer_once() {
    assert_eq!(
        workspace_census(),
        0,
        "a workspace holds no W2-sized buffer: W2 lives in the model alone"
    );
    let ds = dataset();

    let mut sampled = config(Precision::F32);
    sampled.sampled_softmax = Some(SampledSoftmax::defaults(16));
    sampled.sparse_merge = true;
    sampled.sparse_max_density = 1.0;
    let dense = config(Precision::F32);
    let mut cluster = config(Precision::Bf16);
    cluster.cluster = Some(ClusterConfig {
        servers: 2,
        devices_per_server: 2,
        inter: InterNode::Ring,
    });
    cluster.fault_plan = Some(FaultPlan::new().merge_oom(0).device_loss(1, 2, 3));

    for (what, cfg, n, bf16_payloads) in [
        ("sampled + sparse merge, f32", sampled, 3, 0),
        ("dense, f32", dense, 3, 0),
        ("2x2 cluster with faults, bf16", cluster, 4, 1),
    ] {
        let (at_least, exactly, r) = census(&ds, cfg, n);
        assert_eq!(r.records.len(), 3, "{what}: the run trained");
        assert_eq!(
            at_least,
            n + 2,
            "{what}: one buffer per replica, the global model and its momentum memory"
        );
        assert_eq!(exactly, bf16_payloads, "{what}: bf16 payloads");
        let state = r
            .final_state
            .as_ref()
            .expect("gpu trainer keeps a snapshot");
        assert!(
            Arc::ptr_eq(&r.final_model, &state.global),
            "{what}: the final model and the resumable state share one allocation"
        );
    }
}
