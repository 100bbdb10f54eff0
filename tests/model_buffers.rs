//! A census of the model-sized buffers one `Trainer::run` allocates.
//!
//! A counting global allocator tallies every allocation of at least one f32
//! model (`param_len × 4` bytes) made while a run is in progress. A run
//! holds exactly the global model and its momentum memory (DESIGN.md,
//! "Model-sized buffers"): every replica is an overlay on the buffer it
//! imported and holds only the rows it changed — a dense-softmax one also
//! every class, a CROSSBOW one every row — in slot buffers of one block
//! each, so none is as large as one model. At f32 the redistribution payload
//! is the global model itself, and the final model leaves the run as the
//! resumable state's global model, one allocation shared by both. At bf16
//! the payload is the one extra buffer, half a model in size.
//!
//! A replica's `Workspace` holds no copy of `W₂` either: `W₂` is stored
//! once, class-major, in the model, and a workspace at the sampled
//! benchmark's shape allocates nothing as large as `W₂`.
//!
//! A warm merge allocates nothing at all: the fused pass's second run over
//! the same live set reuses its compiled reduction and tile sums, and the
//! LSH index's second sync reuses both index buffers.
//!
//! Every case runs inside one `#[test]` so no other test's allocations land
//! in the count.

use adaptive_sgd::collective::{Algorithm, CollectiveContext, InterNode};
use adaptive_sgd::core::merging::{FusedMerge, MergeInput, MergeScratch};
use adaptive_sgd::core::trainer::arena::IndexArena;
use adaptive_sgd::core::trainer::{RunConfig, SampledSoftmax, Trainer, TrainerSpec};
use adaptive_sgd::core::{algorithms, ClusterConfig, RunResult};
use adaptive_sgd::data::{generate, DatasetSpec, XmlDataset};
use adaptive_sgd::gpusim::profile::heterogeneous_server;
use adaptive_sgd::gpusim::{FaultPlan, SimTime, Topology};
use adaptive_sgd::model::{Mlp, MlpConfig, Overlay, Workspace};
use adaptive_sgd::sparse::CsrMatrix;
use adaptive_sgd::tensor::{FlatRef, Precision};
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
fn census(
    ds: &XmlDataset,
    spec: TrainerSpec,
    cfg: RunConfig,
    gpus: usize,
) -> (usize, usize, RunResult) {
    let param_len = MlpConfig {
        num_features: ds.num_features,
        hidden: cfg.hidden,
        num_classes: ds.num_labels,
    }
    .param_len();
    let trainer = Trainer::new(spec, heterogeneous_server(gpus), cfg);
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

/// Allocations of any size made by `f`.
fn allocations(f: impl FnOnce()) -> usize {
    AT_LEAST.store(0, Ordering::SeqCst);
    WATCH.store(1, Ordering::SeqCst);
    f();
    WATCH.store(usize::MAX, Ordering::SeqCst);
    AT_LEAST.load(Ordering::SeqCst)
}

/// One sampled batch for replica `d` over `config`: its rows, labels and
/// candidate classes (every label plus every 50th class).
fn batch(config: &MlpConfig, d: usize) -> (CsrMatrix, Vec<Vec<u32>>, Vec<u32>) {
    let (features, classes) = (config.num_features, config.num_classes);
    let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..8)
        .map(|i| {
            let mut idx: Vec<u32> = (0..5)
                .map(|j| ((d * 7 + i * 13 + j * 101) % features) as u32)
                .collect();
            idx.sort_unstable();
            idx.dedup();
            let val = vec![1.0; idx.len()];
            (idx, val)
        })
        .collect();
    let labels: Vec<Vec<u32>> = (0..8)
        .map(|i| vec![((d * 31 + i * 17) % classes) as u32])
        .collect();
    let mut cand: Vec<u32> = labels.iter().flatten().copied().collect();
    cand.extend((0..classes as u32).step_by(50));
    cand.sort_unstable();
    cand.dedup();
    let x = CsrMatrix::from_rows(features, &rows).expect("valid batch");
    (x, labels, cand)
}

/// `[(allocations of a fused merge, of its LSH sync)]` of three merges of
/// three sampled replicas at f32, the way the trainer runs them: each
/// overlay trains a batch over the global model, the merge reads the
/// overlays in place with a momentum update (which swaps the buffers), the
/// index is synced against the momentum memory, and the overlays import
/// the new model.
fn warm_merge_census() -> Vec<(usize, usize)> {
    let config = MlpConfig {
        num_features: 3_000,
        hidden: 16,
        num_classes: 2_000,
    };
    let base = Mlp::init(&config, 5);
    let mut global = base.as_flat().to_vec();
    let mut prev = global.clone();
    let k = 3;
    let ctx = CollectiveContext::new(Topology::pcie(k), &heterogeneous_server(k));
    let arrivals = vec![SimTime::ZERO; k];
    let fused = FusedMerge {
        weights: &[0.5, 0.3, 0.2],
        gamma: Some(0.9),
        algo: Algorithm::MultiStreamRing { partitions: k },
        inter: None,
        ctx: &ctx,
        arrivals: &arrivals,
        pooled: true,
    };
    let mut overlays: Vec<Overlay> = (0..k)
        .map(|_| Overlay::new(&config, FlatRef::F32(&global)))
        .collect();
    let mut ws = Workspace::new(&config);
    let mut scratch = MergeScratch::default();
    let mut arena = IndexArena::new(&SampledSoftmax::defaults(8), &base);
    let (mut sq, mut counts) = (0.0, Vec::new());
    for _ in 0..3 {
        for (d, o) in overlays.iter_mut().enumerate() {
            o.import(FlatRef::F32(&global));
            let (mut x, labels, cand) = batch(&config, d);
            o.train_batch_sampled_ws(FlatRef::F32(&global), &mut x, &labels, &cand, 0.1, &mut ws);
        }
        let views: Vec<&Overlay> = overlays.iter().collect();
        let merged = allocations(|| {
            fused.run(
                &mut scratch,
                MergeInput::Overlays(&views),
                None,
                &mut global,
                &mut prev,
                Some(&mut sq),
            );
        });
        let synced = allocations(|| {
            arena.sync(FlatRef::F32(&global), Some(&prev));
        });
        counts.push((merged, synced));
    }
    counts
}

#[test]
fn a_run_allocates_each_model_sized_buffer_once() {
    assert_eq!(
        workspace_census(),
        0,
        "a workspace holds no W2-sized buffer: W2 lives in the model alone"
    );
    let merges = warm_merge_census();
    assert!(
        merges[0].0 > 0 && merges[0].1 > 0,
        "the census sees the first merge compile its reduction and the first sync fill its buffer"
    );
    assert_eq!(
        merges[1],
        (0, 0),
        "a warm fused merge and a warm LSH sync allocate nothing"
    );
    let ds = dataset();

    let mut sampled = config(Precision::F32);
    sampled.sampled_softmax = Some(SampledSoftmax::defaults(16));
    sampled.sparse_merge = true;
    sampled.sparse_max_density = 1.0;
    let sampled_bf16 = RunConfig {
        precision: Precision::Bf16,
        ..sampled.clone()
    };
    let dense = config(Precision::F32);
    let mut cluster = config(Precision::Bf16);
    cluster.cluster = Some(ClusterConfig {
        servers: 2,
        devices_per_server: 2,
        inter: InterNode::Ring,
    });
    cluster.fault_plan = Some(FaultPlan::new().merge_oom(0).device_loss(1, 2, 3));

    // (what, algorithm, config, replicas, bf16 payloads)
    let adaptive = algorithms::adaptive_sgd;
    for (what, spec, cfg, n, bf16_payloads) in [
        ("sampled + sparse merge, f32", adaptive(), sampled, 3, 0),
        (
            "sampled + sparse merge, bf16",
            adaptive(),
            sampled_bf16,
            3,
            1,
        ),
        ("dense, f32", adaptive(), dense.clone(), 3, 0),
        ("2x2 cluster with faults, bf16", adaptive(), cluster, 4, 1),
        (
            "CROSSBOW, dense, f32",
            algorithms::crossbow_sma(),
            dense,
            3,
            0,
        ),
    ] {
        let (at_least, exactly, r) = census(&ds, spec, cfg, n);
        assert_eq!(r.records.len(), 3, "{what}: the run trained");
        assert_eq!(
            at_least, 2,
            "{what}: the global model and its momentum memory, and no replica"
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
