//! One function per artifact `run_all` regenerates (Table I, Figures 1–6,
//! ablations, §IV's simulated claims, the `BENCH_*.json` rows), and the
//! table of them.
//!
//! Every function returns the CSV / JSON / trace text it generates, so
//! `run_all` can both print it and persist it under `results/` and the tests
//! can read it.

use crate::{grid_learning_rate, Env};
use asgd_core::slide::{SlideConfig, SlideTrainer};
use asgd_core::trainer::{MergeRule, Trainer};
use asgd_core::{algorithms, RunResult};
use asgd_data::{DatasetSpec, DatasetStats};
use asgd_gpusim::device::build_server;
use asgd_gpusim::profile::heterogeneous_server;
use asgd_model::workload::epoch_kernels;
use asgd_model::MlpConfig;
use asgd_stats::StreamingSummary;
use std::fmt::Write as _;

/// One artifact: its file name under the output directory and the function
/// that generates its contents.
pub type Artifact = (&'static str, fn(&Env) -> String);

/// Everything `run_all` regenerates, in run order.
pub const ARTIFACTS: [Artifact; 15] = [
    ("table1.csv", table1),
    ("merge_stage.csv", merge_stage),
    ("BENCH_full_scale.json", bench_full_scale_json),
    ("BENCH_merge.json", bench_merge_json),
    ("BENCH_cluster.json", bench_cluster_json),
    ("BENCH_sparse_merge.json", bench_sparse_merge_json),
    ("BENCH_serve.json", bench_serve_json),
    ("BENCH_autoscale.json", bench_autoscale_json),
    ("sec4_claims.csv", sec4_claims),
    ("fig1.csv", fig1),
    ("fig2_trace.txt", fig2_trace),
    ("fig4.csv", fig4),
    ("fig5.csv", fig5),
    ("fig6.csv", fig6),
    ("ablations.csv", ablations),
];

/// The artifacts whose name contains one of `filters` (all of them when
/// there are none).
///
/// # Errors
/// A filter that matches no artifact — a typo must not run nothing and exit
/// 0 — listing the valid names.
pub fn select(filters: &[String]) -> Result<Vec<Artifact>, String> {
    let matches = |f: &String, name: &str| name.contains(f.as_str());
    if let Some(f) = filters
        .iter()
        .find(|f| !ARTIFACTS.iter().any(|(name, _)| matches(f, name)))
    {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "{f:?} matches no artifact; the artifacts are: {}",
            names.join(", ")
        ));
    }
    Ok(ARTIFACTS
        .into_iter()
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| matches(f, name)))
        .collect())
}

/// The members of a JSON array, one object per line.
fn json_rows(rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
    rows.join(",\n") + "\n"
}

/// A `BENCH_*.json` document that is its name and one array of row objects.
fn bench_json(bench: &str, rows: impl IntoIterator<Item = String>) -> String {
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"rows\": [\n{}  ]\n}}\n",
        json_rows(rows)
    )
}

/// **Table I** — dataset statistics of the synthetic twins next to the
/// paper's full-scale reference values.
pub fn table1(env: &Env) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", DatasetStats::csv_header());
    for spec in env.dataset_specs() {
        let ds = env.dataset(&spec);
        let _ = writeln!(out, "{}", DatasetStats::compute(&ds).csv_row());
    }
    // The paper's reference rows for shape comparison.
    out.push_str("amazon-670k@1.0 (paper),135909,670091,490449,153025,76.0,5.0\n");
    out.push_str("delicious-200k@1.0 (paper),782585,205443,196606,100095,302.0,75.0\n");
    out
}

/// **Figure 1** — per-GPU epoch time on an *identical* batch across the
/// 4-V100 heterogeneous server; the paper reports a gap of up to 32%.
pub fn fig1(env: &Env) -> String {
    let spec = &env.dataset_specs()[0];
    let ds = env.dataset(spec);
    let mconfig = MlpConfig {
        num_features: ds.num_features,
        hidden: env.hidden,
        num_classes: ds.num_labels,
    };
    let batch = env.b_max.min(ds.train.len());
    let ids: Vec<usize> = (0..batch).collect();
    let nnz: usize = ids.iter().map(|&i| ds.train.features.row_nnz(i)).sum();
    let kinds = epoch_kernels(&mconfig, batch, nnz);
    let profiles: Vec<_> = heterogeneous_server(4)
        .into_iter()
        .map(|p| p.with_overhead_scale(env.scale))
        .collect();
    let mut devices = build_server(&profiles, env.seed);

    let mut out = String::from("gpu,mean_epoch_us,std_us,min_us,max_us\n");
    let mut means = StreamingSummary::new();
    for (i, d) in devices.iter_mut().enumerate() {
        let mut s = StreamingSummary::new();
        for _ in 0..200 {
            s.record(d.execute_all(&kinds) * 1e6);
        }
        let _ = writeln!(
            out,
            "{i},{:.3},{:.3},{:.3},{:.3}",
            s.mean(),
            s.std_dev(),
            s.min().unwrap(),
            s.max().unwrap()
        );
        means.record(s.mean());
    }
    let _ = writeln!(
        out,
        "# fastest-to-slowest gap: {:.1}% (paper: up to 32%)",
        means.relative_gap().unwrap() * 100.0
    );
    out
}

/// **Figure 2** — the dynamic-scheduling dispatch timeline on two
/// heterogeneous GPUs over two mega-batches (the paper's illustration,
/// reproduced as a machine-readable trace).
pub fn fig2_trace(env: &Env) -> String {
    let spec = &env.dataset_specs()[0];
    let ds = env.dataset(spec);
    let lr = grid_learning_rate(env, &ds);
    let mut config = env.run_config(lr);
    config.mega_batch_limit = Some(2);
    config.trace = true;
    let profiles = vec![
        asgd_gpusim::DeviceProfile::v100("gpu-fast").with_overhead_scale(env.scale),
        asgd_gpusim::DeviceProfile::v100("gpu-slow")
            .with_speed(0.62)
            .with_overhead_scale(env.scale),
    ];
    let result = Trainer::new(algorithms::adaptive_sgd(), profiles, config).run(&ds);
    result.trace
}

/// **§IV claims** (`sec4_claims.csv`) — the two *simulated* tables behind the
/// paper's implementation section, both pure cost-model outputs.
///
/// `allreduce` rows: the simulated duration of one model merge on 4
/// homogeneous PCIe GPUs per algorithm and model size (elements) — the claim
/// is that the multi-stream partitioned ring merges at least 2× faster than
/// the single-stream tree once the model is bandwidth-bound. `fusion` rows:
/// per-epoch kernel-launch overhead at the full Amazon-670k shape with and
/// without kernel fusion as the number of concurrently launching GPU
/// managers grows — the saving grows with the contention.
pub fn sec4_claims(_env: &Env) -> String {
    use asgd_collective::{dense_schedule, Algorithm, CollectiveContext};
    use asgd_gpusim::fusion::{epoch_launch_overhead, FusionPolicy, LaunchModel};
    use asgd_gpusim::profile::homogeneous_server;
    use asgd_gpusim::Topology;

    let mut out = String::from("claim,size,variant,sim_us\n");
    let n = 4;
    let ctx = CollectiveContext::new(Topology::pcie(n), &homogeneous_server(n));
    let algorithms = [
        ("naive", Algorithm::Naive),
        ("tree", Algorithm::Tree),
        ("ring", Algorithm::Ring),
        (
            "multi_stream_ring",
            Algorithm::MultiStreamRing { partitions: n },
        ),
    ];
    for len in [1usize << 16, 1 << 20, 1 << 22] {
        for (name, algo) in algorithms {
            // The collective's own step walk, run without buffers: exactly
            // the duration `allreduce` reports for f32 models of this length.
            let (secs, _bytes) = dense_schedule(algo, &ctx, len, 4);
            let _ = writeln!(out, "allreduce,{len},{name},{:.3}", secs * 1e6);
        }
    }

    let config = MlpConfig {
        num_features: 135_909,
        hidden: 128,
        num_classes: 670_091,
    };
    let kernels = epoch_kernels(&config, 256, 256 * 76);
    let model = LaunchModel::default_cuda();
    for managers in [1usize, 2, 4, 8] {
        for (name, policy) in [
            ("unfused", FusionPolicy::Unfused),
            ("fused", FusionPolicy::Fused),
        ] {
            let t = epoch_launch_overhead(&kernels, policy, &model, managers);
            let _ = writeln!(out, "fusion,{managers},{name},{:.3}", t * 1e6);
        }
    }
    out
}

/// **Full-label-scale training step** (`BENCH_full_scale.json`) — the
/// tentpole measurement of the sampled-softmax path: one replica's
/// `train_batch` wall-clock at the REAL Amazon-670k label space
/// (`135,909 × 128 × 670,091`), dense versus LSH-sampled, next to the dense
/// step at the 1/100 label space (`670,091 / 100 ≈ 6.7k`) every other
/// experiment runs at. The dense full-scale row is the path the sampled
/// softmax replaces; the sampled row carries `speedup_vs_dense_full`
/// (acceptance floor: ≥ 5x). Hardcoded full shape, hidden 128 — the
/// `merge_stage` methodology, not the `ASGD_SCALE` twin.
pub fn bench_full_scale_json(env: &Env) -> String {
    use asgd_core::trainer::SampledSoftmax;
    use asgd_model::{Mlp, Workspace};
    use asgd_slide::CandidateSampler;
    use asgd_sparse::CsrMatrix;

    let features = 135_909usize;
    let hidden = 128usize;
    let full_classes = 670_091usize;
    let small_classes = DatasetSpec::amazon_670k(0.01).num_labels;
    let batch = 64usize;
    let nnz_per_row = 76usize;
    let labels_per_row = 5usize;

    // Deterministic synthetic batch: Table I per-sample statistics at the
    // full feature space, no full-corpus generation needed.
    let mut state = env.seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..batch)
        .map(|_| {
            let mut cols: Vec<u32> = (0..nnz_per_row)
                .map(|_| (next() % features as u64) as u32)
                .collect();
            cols.sort_unstable();
            cols.dedup();
            let vals: Vec<f32> = cols
                .iter()
                .map(|&c| ((c % 17) as f32 - 8.0) / 8.0 + 1.5)
                .collect();
            (cols, vals)
        })
        .collect();
    let x = CsrMatrix::from_rows(features, &rows).unwrap();
    let raw_labels: Vec<Vec<u32>> = (0..batch)
        .map(|_| {
            let mut l: Vec<u32> = (0..labels_per_row)
                .map(|_| (next() % full_classes as u64) as u32)
                .collect();
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    let sampled_cfg = env.sampled.unwrap_or_else(|| SampledSoftmax::defaults(64));

    struct Row {
        mode: &'static str,
        classes: usize,
        candidates: Option<usize>,
        steps: usize,
        ns_per_iter: f64,
    }

    fn time_steps(steps: usize, mut f: impl FnMut()) -> f64 {
        f(); // warm up buffers and the worker pool
        let t0 = std::time::Instant::now();
        for _ in 0..steps {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / steps as f64
    }
    let config_at = |num_classes| MlpConfig {
        num_features: features,
        hidden,
        num_classes,
    };
    let dense_row = |classes: usize, labels: &[Vec<u32>], steps: usize| {
        let config = config_at(classes);
        let mut model = Mlp::init(&config, env.seed);
        let mut ws = Workspace::new(&config);
        let ns_per_iter = time_steps(steps, || {
            model.train_batch_ws(&x, labels, 1e-3, &mut ws);
        });
        Row {
            mode: "dense",
            classes,
            candidates: None,
            steps,
            ns_per_iter,
        }
    };

    // Dense step at the 1/100 label space: the shape every other artifact
    // trains at, included as the cost yardstick.
    let small_labels: Vec<Vec<u32>> = raw_labels
        .iter()
        .map(|l| {
            let mut s: Vec<u32> = l.iter().map(|&v| v % small_classes as u32).collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let mut out_rows = vec![dense_row(small_classes, &small_labels, 8)];

    // Dense and sampled steps at the full 670k label space. The dense arm is
    // the path being replaced — a few steps are enough for a stable median
    // and keep the row affordable.
    out_rows.push(dense_row(full_classes, &raw_labels, 3));
    {
        let config = config_at(full_classes);
        let mut model = Mlp::init(&config, env.seed);
        let mut ws = Workspace::new(&config);
        let mut sampler = CandidateSampler::new(
            sampled_cfg.tables,
            sampled_cfg.k_bits,
            hidden,
            sampled_cfg.neg_samples,
            sampled_cfg.seed,
        );
        sampler.rebuild(model.w2());
        let label_views: Vec<&[u32]> = raw_labels.iter().map(|l| l.as_slice()).collect();
        let candidates = sampler.select(&label_views, env.seed).len();
        let steps = 8;
        let mut step_seed = env.seed;
        let ns_per_iter = time_steps(steps, || {
            let cand = sampler.select(&label_views, step_seed).to_vec();
            step_seed = step_seed.wrapping_add(1);
            model.train_batch_sampled_ws(&x, &raw_labels, &cand, 1e-3, &mut ws);
        });
        out_rows.push(Row {
            mode: "sampled",
            classes: full_classes,
            candidates: Some(candidates),
            steps,
            ns_per_iter,
        });
    }

    let dense_full_ns = out_rows
        .iter()
        .find(|r| r.mode == "dense" && r.classes == full_classes)
        .map(|r| r.ns_per_iter);
    let rows = out_rows.iter().map(|r| {
        let mut row = format!(
            "{{\"mode\": \"{}\", \"shape\": \"{features}x{hidden}x{}\", \
             \"batch\": {batch}, \"steps\": {}, \"ns_per_iter\": {:.0}, \
             \"samples_per_s\": {:.1}",
            r.mode,
            r.classes,
            r.steps,
            r.ns_per_iter,
            batch as f64 / (r.ns_per_iter / 1e9)
        );
        if let Some(c) = r.candidates {
            let _ = write!(row, ", \"candidates\": {c}");
        }
        if r.mode == "sampled" {
            if let Some(dense_ns) = dense_full_ns {
                let _ = write!(
                    row,
                    ", \"speedup_vs_dense_full\": {:.2}",
                    dense_ns / r.ns_per_iter
                );
            }
        }
        row + "}"
    });
    bench_json("full_scale", rows)
}

/// **Merge-stage throughput** — the scheduler-side merge (read every
/// replica's flat parameters, weighted all-reduce, momentum global update,
/// redistribute + load) at the 13.1 M-parameter shape of the wall-clock
/// benchmark's `train_sampled_merge` with 4 replicas: the trainer's path
/// ([`arena_merge`]: one fused pass over the replicas in place, every
/// replica importing `global` — or, at bf16, one persistent payload) against the allocate-per-merge path over the
/// step-by-step library functions, plus the bf16 arena (half the bytes
/// through reduce/redistribute, each replica tile narrowed as it loads,
/// f32 accumulation, one round point per store). Median of 20 individually timed merges; the `merges` column
/// records that iteration count.
pub fn merge_stage(env: &Env) -> String {
    let mut out = String::from(
        "variant,params,replicas,merges,ms_per_merge,mparams_per_s,sim_collective_ms,sim_mb_moved\n",
    );
    for r in measured_merge_rows(env) {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.3},{:.1},{:.3},{:.3}",
            r.variant,
            r.params,
            r.replicas,
            r.merges,
            r.ns_per_iter / 1e6,
            r.throughput / 1e6,
            r.sim_collective_ms,
            r.sim_bytes_moved as f64 / 1e6
        );
    }
    out
}

/// One timed merge-stage variant, shared by the CSV and `BENCH_merge.json`.
struct MergeStageRow {
    variant: &'static str,
    shape: String,
    params: usize,
    replicas: usize,
    merges: usize,
    ns_per_iter: f64,
    /// replica-parameters merged per second (`params * replicas / t`).
    throughput: f64,
    /// Simulated collective time per merge (deterministic — the cost model
    /// charges per byte, so the bf16 arena's halved wire format halves this
    /// exactly, independent of the benchmark host).
    sim_collective_ms: f64,
    /// Bytes moved over simulated peer links by one all-reduce.
    sim_bytes_moved: usize,
}

/// One process-wide measurement pass shared by the CSV and JSON emitters:
/// the merge stage takes minutes to time and the host is noisy, so emitting
/// both artifacts from separate passes would let them disagree.
fn measured_merge_rows(env: &Env) -> &'static [MergeStageRow] {
    static ROWS: std::sync::OnceLock<Vec<MergeStageRow>> = std::sync::OnceLock::new();
    ROWS.get_or_init(|| measure_merge_stage(env))
}

/// One scheduler-side merge the way the trainer runs it: one fused pass
/// reads every replica where it lives, reduces them, applies the momentum
/// update and (a bf16 merge) leaves the narrowed payload in the recycled
/// `bf16_payload`, and every replica imports that one payload — at f32,
/// `global` in place.
fn arena_merge(
    replicas: &mut [asgd_model::Mlp],
    mut bf16_payload: Option<&mut [u16]>,
    global: &mut Vec<f32>,
    prev_global: &mut Vec<f32>,
    ctx: &asgd_collective::CollectiveContext,
    scratch: &mut asgd_core::merging::MergeScratch,
) -> asgd_collective::AllReduceTiming {
    use asgd_core::merging::{FusedMerge, MergeInput};
    let n = replicas.len();
    let params: Vec<&[f32]> = replicas.iter().map(asgd_model::Mlp::as_flat).collect();
    let timing = FusedMerge {
        weights: &vec![1.0 / n as f64; n],
        gamma: Some(0.9),
        algo: asgd_collective::Algorithm::MultiStreamRing { partitions: 4 },
        inter: None,
        ctx,
        arrivals: &vec![asgd_gpusim::SimTime::ZERO; n],
        pooled: true,
    }
    .run(
        scratch,
        MergeInput::Dense(&params),
        bf16_payload.as_deref_mut(),
        global,
        prev_global,
        None,
    );
    let payload = match bf16_payload {
        Some(p) => asgd_tensor::FlatRef::Bf16(p),
        None => asgd_tensor::FlatRef::F32(global),
    };
    for r in replicas.iter_mut() {
        r.read_flat_buf(payload);
    }
    timing
}

fn measure_merge_stage(env: &Env) -> Vec<MergeStageRow> {
    use asgd_collective::{allreduce_flat, Algorithm, CollectiveContext};
    use asgd_core::merging::apply_global_update_flat;
    use asgd_gpusim::{SimTime, Topology};
    use asgd_model::Mlp;
    use asgd_tensor::{FlatVec, Precision};

    // The shape `train_sampled_merge` of the wall-clock benchmark runs
    // (13.1 M parameters), NOT the `ASGD_SCALE` twin. At the scaled shape
    // (~180k params) a merge finishes inside its fixed overheads (pool
    // dispatch, simulated-timing bookkeeping), which is how an earlier
    // artifact recorded the arena at parity with alloc-per-merge. Hence:
    // hardcoded full shape, per-iteration timing, median of 20.
    let config = MlpConfig {
        num_features: 135_909,
        hidden: 64,
        num_classes: 67_009,
    };
    let n = 4;
    let params = config.param_len();
    let shape = format!(
        "{}x{}x{} x{n}",
        config.num_features, config.hidden, config.num_classes
    );
    let ctx = CollectiveContext::new(Topology::pcie(n), &heterogeneous_server(n));
    let iters = 20;

    let mut rows = Vec::new();
    for variant in ["arena", "alloc_per_merge", "arena_bf16"] {
        let precision = if variant == "arena_bf16" {
            Precision::Bf16
        } else {
            Precision::F32
        };
        let mut replicas: Vec<Mlp> = (0..n)
            .map(|g| Mlp::init(&config, env.seed + g as u64))
            .collect();
        let mut global = replicas[0].to_flat();
        let mut prev_global = global.clone();
        let mut payload = (precision == Precision::Bf16).then(|| vec![0u16; params]);
        // The trainer's merge keeps its compiled reduction from merge to
        // merge; so does this one.
        let mut scratch = asgd_core::merging::MergeScratch::default();
        let mut run_merge = |replicas: &mut [Mlp],
                             global: &mut Vec<f32>,
                             prev_global: &mut Vec<f32>,
                             payload: &mut Option<Vec<u16>>| {
            if variant == "alloc_per_merge" {
                let mut fresh: Vec<FlatVec> =
                    replicas.iter().map(|r| FlatVec::F32(r.to_flat())).collect();
                let timing = allreduce_flat(
                    &mut fresh,
                    &vec![1.0 / n as f64; n],
                    Algorithm::MultiStreamRing { partitions: 4 },
                    &ctx,
                    &vec![SimTime::ZERO; n],
                );
                apply_global_update_flat(&fresh[0], global, prev_global, 0.9);
                for r in replicas.iter_mut() {
                    let flat = global.clone();
                    r.load_flat(&flat);
                }
                timing
            } else {
                arena_merge(
                    replicas,
                    payload.as_deref_mut(),
                    global,
                    prev_global,
                    &ctx,
                    &mut scratch,
                )
            }
        };
        // Warm up (and capture the simulated collective timing, which is a
        // pure function of the shape/precision — identical every iteration).
        let timing = run_merge(&mut replicas, &mut global, &mut prev_global, &mut payload);
        let mut times = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = std::time::Instant::now();
            run_merge(&mut replicas, &mut global, &mut prev_global, &mut payload);
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times[iters / 2];
        rows.push(MergeStageRow {
            variant,
            shape: shape.clone(),
            params,
            replicas: n,
            merges: iters,
            ns_per_iter: median * 1e9,
            throughput: (params * n) as f64 / median,
            sim_collective_ms: timing.duration() * 1e3,
            sim_bytes_moved: timing.bytes_moved,
        });
    }
    rows
}

/// Machine-readable twin of the `merge_stage` CSV: one JSON object per
/// variant with `ns_per_iter` (median of one full merge) and
/// replica-parameters/s throughput. The `arena_bf16` row carries its
/// speedup over the f32 arena — the mixed-precision acceptance ratio.
pub fn bench_merge_json(env: &Env) -> String {
    let rows = measured_merge_rows(env);
    let arena_f32 = rows.iter().find(|r| r.variant == "arena");
    let json = rows.iter().map(|r| {
        let mut row = format!(
            "{{\"variant\": \"{}\", \"shape\": \"{}\", \"params\": {}, \
             \"replicas\": {}, \"ns_per_iter\": {:.0}, \"throughput\": {:.0}, \
             \"throughput_unit\": \"replica_params_per_s\", \
             \"sim_collective_ms\": {:.3}, \"sim_bytes_moved\": {}",
            r.variant,
            r.shape,
            r.params,
            r.replicas,
            r.ns_per_iter,
            r.throughput,
            r.sim_collective_ms,
            r.sim_bytes_moved
        );
        if let Some(f32) = arena_f32.filter(|_| r.variant == "arena_bf16") {
            let _ = write!(
                row,
                ", \"speedup_vs_arena_f32\": {:.2}, \
                 \"sim_collective_speedup_vs_arena_f32\": {:.2}",
                f32.ns_per_iter / r.ns_per_iter,
                f32.sim_collective_ms / r.sim_collective_ms
            );
        }
        row + "}"
    });
    bench_json("merge_stage", json)
}

/// **Cluster merge scaling** (`BENCH_cluster.json`) — the simulated
/// wall-clock of one full-fleet model merge on an ethernet cluster
/// (`ClusterTopology::ethernet`: PCIe inside each server, a 3 GB/s
/// inter-node link between them), scaled from 1×4 to 64×4 replicas.
/// Each row pits the flat single-level all-reduce (every hop that crosses
/// a server boundary pays the slow link) against the two-level hierarchical
/// schedule (intra-node pool → one inter-node ring/tree over per-server lead
/// buffers → intra-node broadcast). Arithmetic is pinned to the flat
/// reduction order (see `asgd-collective::hierarchical`), so the row also
/// asserts the merged bits are identical across all three schedules —
/// topology choice is a scheduling optimization, never a numeric one.
pub fn bench_cluster_json(env: &Env) -> String {
    use asgd_collective::{
        allreduce_flat, hierarchical_allreduce_flat, Algorithm, CollectiveContext, InterNode,
    };
    use asgd_gpusim::{ClusterTopology, SimTime};
    use asgd_tensor::FlatVec;

    let len = 1usize << 16;
    let shapes: [(usize, usize); 4] = [(1, 4), (4, 4), (16, 4), (64, 4)];

    // Deterministic pseudo-random buffers, seeded per (replica, element).
    let fill = |n: usize| -> Vec<FlatVec> {
        let seed = |d| env.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(d as u64 + 1);
        (0..n)
            .map(|d| FlatVec::F32(crate::lcg_fill(seed(d), len)))
            .collect()
    };

    let rows = shapes.iter().map(|&(servers, per)| {
        let n = servers * per;
        let profiles = heterogeneous_server(n);
        let ctx = CollectiveContext::cluster(&ClusterTopology::ethernet(servers, per), &profiles);
        let weights = vec![1.0 / n as f64; n];
        let arrivals = vec![SimTime::ZERO; n];
        let algo = Algorithm::MultiStreamRing {
            partitions: per.min(4),
        };
        // One merge per schedule over identical inputs: its timing and the
        // merged bits device 0 ends up with.
        let merge = |inter: Option<InterNode>| {
            let mut bufs = fill(n);
            let timing = match inter {
                None => allreduce_flat(&mut bufs, &weights, algo, &ctx, &arrivals),
                Some(inter) => {
                    hierarchical_allreduce_flat(&mut bufs, &weights, algo, inter, &ctx, &arrivals)
                }
            };
            let bits: Vec<u32> = (0..len).map(|i| bufs[0].get_f32(i).to_bits()).collect();
            (timing, bits)
        };
        let (flat, flat_bits) = merge(None);
        let (ring, ring_bits) = merge(Some(InterNode::Ring));
        let (tree, tree_bits) = merge(Some(InterNode::Tree));
        assert_eq!(
            flat_bits, ring_bits,
            "hierarchical ring changed merge bits at {servers}x{per}"
        );
        assert_eq!(
            flat_bits, tree_bits,
            "hierarchical tree changed merge bits at {servers}x{per}"
        );
        format!(
            "{{\"servers\": {servers}, \"devices_per_server\": {per}, \"replicas\": {n}, \
             \"elems\": {len}, \"flat_ms\": {:.3}, \"hier_ring_ms\": {:.3}, \
             \"hier_tree_ms\": {:.3}, \"flat_bytes\": {}, \"hier_ring_bytes\": {}, \
             \"hier_tree_bytes\": {}, \"ring_speedup_vs_flat\": {:.2}, \
             \"tree_speedup_vs_flat\": {:.2}, \"bits_equal_flat\": true}}",
            flat.duration() * 1e3,
            ring.duration() * 1e3,
            tree.duration() * 1e3,
            flat.bytes_moved,
            ring.bytes_moved,
            tree.bytes_moved,
            flat.duration() / ring.duration(),
            flat.duration() / tree.duration(),
        )
    });
    bench_json("cluster_merge", rows)
}

/// **Sparse delta merge** (`BENCH_sparse_merge.json`) — the headline traffic
/// numbers of the sparse delta all-reduce next to its correctness gate.
///
/// `full_scale` rows price one mega-batch merge at the full Amazon-670k
/// sampled-softmax shape (no training; the touched-row sets are drawn from
/// the dataset spec's Zipf feature/label distributions at the paper's batch
/// shape, then priced through `sparse_merge_timing` against the exact dense
/// schedule mirror). The flat f32 row asserts the ≥10x simulated-byte
/// reduction the sparse path exists for.
///
/// `runs` rows are paired *real* dense/sparse training runs at the env's
/// scale — f32 and bf16, flat and a 2×2 cluster — each asserting the merged
/// model is bit-identical to the dense path (`bits_equal_dense`), with the
/// per-run traffic accounting from [`asgd_core::SparseMergeStats`].
pub fn bench_sparse_merge_json(env: &Env) -> String {
    use asgd_collective::{
        dense_schedule, sparse_merge_timing, Algorithm, AllReduceTiming, CollectiveContext,
        InterNode, SparseLayout, SparseMergePlan, DEFAULT_MAX_DENSITY,
    };
    use asgd_core::trainer::SampledSoftmax;
    use asgd_core::ClusterConfig;
    use asgd_gpusim::{ClusterTopology, SimTime, Topology};
    use asgd_stats::Zipf;
    use asgd_tensor::Precision;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let spec = DatasetSpec::amazon_670k(1.0);
    let (features, classes, hidden) = (spec.num_features, spec.num_labels, 128usize);
    let layout = SparseLayout::new(features, hidden, classes);
    let flat_len = layout.param_len();
    // The repo's paper-default merge cadence ([`RunConfig::paper_defaults`]):
    // 8 batches of ≤64 samples per replica between merges. The touched-row
    // sets mirror the synthetic generator's mechanism (see
    // `asgd-data::synthetic`): per sample ~5 Zipf labels; each of its ~76
    // features comes from a label's fixed prototype pool with probability
    // 1 − noise, else from the global feature Zipf. Per batch the sampled
    // softmax dirties the positives plus 64 negative candidates.
    let (batches, b) = (8usize, 64usize);
    let feat_zipf = Zipf::new(features as u64, spec.feature_zipf_s).unwrap();
    let label_zipf = Zipf::new(classes as u64, spec.label_zipf_s).unwrap();
    let proto_pool = |label: u64| -> Vec<u32> {
        // Per-label RNG, like the generator: the pool is a fixed property
        // of the label, shared by every sample carrying it.
        let mut lr = StdRng::seed_from_u64(env.seed ^ label.wrapping_mul(0x9E37_79B9));
        (0..spec.prototype_size)
            .map(|_| feat_zipf.sample(&mut lr) as u32 - 1)
            .collect()
    };
    let touched = |replica: usize| -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(env.seed ^ (replica as u64).wrapping_mul(0x9E37));
        let mut pools: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
        let mut marks = vec![0u64; (features + classes).div_ceil(64)];
        for _ in 0..batches {
            let mut batch_candidates: Vec<u64> = Vec::new();
            for _ in 0..b {
                let labels: Vec<u64> = (0..5).map(|_| label_zipf.sample(&mut rng)).collect();
                batch_candidates.extend_from_slice(&labels);
                for _ in 0..76 {
                    let f = if rng.gen::<f64>() >= spec.noise_fraction {
                        let l = labels[rng.gen_range(0..labels.len())];
                        let pool = pools.entry(l).or_insert_with(|| proto_pool(l));
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        feat_zipf.sample(&mut rng) as u32 - 1
                    };
                    marks[f as usize / 64] |= 1 << (f % 64);
                }
            }
            // Negative candidates ride the same label popularity the LSH
            // buckets concentrate on.
            batch_candidates.extend((0..64).map(|_| label_zipf.sample(&mut rng)));
            for c in batch_candidates {
                let row = features + c as usize - 1;
                marks[row / 64] |= 1 << (row % 64);
            }
        }
        let mut rows = Vec::new();
        for (w, &word) in marks.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                rows.push((w * 64 + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
            }
        }
        rows
    };

    let shapes: [(&str, usize, usize); 2] = [("flat", 1, 8), ("cluster", 4, 4)];
    let mut first_ratio = None;
    let mut full_scale = Vec::new();
    for (name, servers, per) in shapes {
        let n = servers * per;
        let profiles = heterogeneous_server(n);
        let ctx = if servers == 1 {
            CollectiveContext::new(Topology::pcie(n), &profiles)
        } else {
            CollectiveContext::cluster(&ClusterTopology::ethernet(servers, per), &profiles)
        };
        let sets: Vec<Vec<u32>> = (0..n).map(touched).collect();
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let arrivals = vec![SimTime::ZERO; n];
        let algo = Algorithm::MultiStreamRing { partitions: 4 };
        for elem_bytes in [4usize, 2] {
            let (dense_secs, dense_bytes) = dense_schedule(algo, &ctx, flat_len, elem_bytes);
            let dense = AllReduceTiming {
                start: SimTime::ZERO,
                end: SimTime(dense_secs),
                bytes_moved: dense_bytes,
            };
            let plan = SparseMergePlan {
                algo,
                inter: (servers > 1).then_some(InterNode::Ring),
                elem_bytes,
                max_density: DEFAULT_MAX_DENSITY,
            };
            let s = sparse_merge_timing(&layout, &refs, &plan, &ctx, &arrivals, dense);
            assert!(!s.fell_back, "full-scale unions must stay sparse");
            let ratio = dense_bytes as f64 / s.timing.bytes_moved as f64;
            first_ratio.get_or_insert(ratio);
            full_scale.push(format!(
                "{{\"topology\": \"{name}\", \"replicas\": {n}, \
                 \"elem_bytes\": {elem_bytes}, \"flat_elems\": {flat_len}, \
                 \"union_rows\": {}, \"density\": {:.4}, \
                 \"dense_bytes\": {dense_bytes}, \"sparse_bytes\": {}, \
                 \"bytes_ratio\": {ratio:.1}, \"dense_ms\": {:.3}, \"sparse_ms\": {:.3}}}",
                s.union_rows,
                s.density,
                s.timing.bytes_moved,
                dense_secs * 1e3,
                s.timing.duration() * 1e3,
            ));
        }
    }
    assert!(
        first_ratio.unwrap() >= 10.0,
        "sparse merge must cut simulated merge bytes >= 10x at Amazon-670k \
         shape, got {:.1}x",
        first_ratio.unwrap()
    );

    // Paired real runs: the bit-identity gate at the env's scale.
    let dataset = env.dataset(&DatasetSpec::amazon_670k(env.scale.clamp(0.0005, 0.02)));
    let cluster_2x2 = Some(ClusterConfig {
        servers: 2,
        devices_per_server: 2,
        inter: InterNode::Ring,
    });
    let combos: [(&str, Precision, Option<ClusterConfig>, usize); 4] = [
        ("flat", Precision::F32, None, 3),
        ("flat", Precision::Bf16, None, 3),
        ("cluster2x2", Precision::F32, cluster_2x2, 4),
        ("cluster2x2", Precision::Bf16, cluster_2x2, 4),
    ];
    let runs = combos.into_iter().map(|(name, precision, cluster, n)| {
        let mut cfg = env.run_config(0.1);
        cfg.mega_batch_limit = Some(env.mega_limit.min(6));
        cfg.precision = precision;
        cfg.cluster = cluster;
        cfg.sampled_softmax = Some(env.sampled.unwrap_or_else(|| SampledSoftmax::defaults(64)));
        // Small-scale unions are dense; force the sparse schedule so the
        // gate exercises it (full-scale rows above carry the perf claim).
        cfg.sparse_max_density = 1.0;
        cfg.sparse_merge = false;
        let mut sparse_cfg = cfg.clone();
        sparse_cfg.sparse_merge = true;
        let run =
            |c| Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(n), c).run(&dataset);
        let dense = run(cfg);
        let sparse = run(sparse_cfg);
        assert_eq!(
            dense.final_model, sparse.final_model,
            "sparse merge changed the merged bits ({name}, {precision:?})"
        );
        let stats = sparse
            .sparse_merge
            .as_ref()
            .expect("sparse run must report stats");
        let sim_time = |r: &RunResult| r.records.last().map_or(0.0, |rec| rec.sim_time);
        format!(
            "{{\"topology\": \"{name}\", \"precision\": \"{precision:?}\", \
             \"replicas\": {n}, \"merges\": {}, \"fallbacks\": {}, \
             \"dense_bytes\": {}, \"sparse_bytes\": {}, \"bytes_ratio\": {:.2}, \
             \"dense_sim_s\": {:.6}, \"sparse_sim_s\": {:.6}, \
             \"bits_equal_dense\": true}}",
            stats.merges,
            stats.fallbacks,
            stats.dense_bytes,
            stats.sparse_bytes,
            stats.bytes_ratio(),
            sim_time(&dense),
            sim_time(&sparse),
        )
    });
    format!(
        "{{\n  \"bench\": \"sparse_merge\",\n  \"full_scale\": [\n{}  ],\n  \"runs\": [\n{}  ]\n}}\n",
        json_rows(full_scale),
        json_rows(runs)
    )
}

/// **Serving tail latency** (`BENCH_serve.json`) — the online-inference twin
/// of the training-side batch-size experiments: the wide-head serving
/// testbed (many classes, tiny hidden layer, so per-request softmax/top-k
/// cost dominates per-batch flat cost; see DESIGN.md, "Serving subsystem")
/// on a 2-fast/2-slow fleet, served once with the adaptive SLO controller
/// and once with the fixed `b_max` baseline. Latency and throughput are
/// simulated time, so every row is exact and deterministic. The load
/// constants are tuned at the default `ASGD_SCALE = 0.01` and scale
/// linearly with it (per-request cost is proportional to the head width).
pub fn bench_serve_json(env: &Env) -> String {
    use asgd_gpusim::profile::two_tier_server;
    use asgd_gpusim::FaultPlan;
    use asgd_model::Mlp;
    use asgd_serve::{open_loop_stream, serve, ServeConfig};

    let spec = DatasetSpec::amazon_670k(3.0 * env.scale);
    let ds = env.dataset(&spec);
    let config = MlpConfig {
        num_features: ds.num_features,
        hidden: 8,
        num_classes: ds.num_labels,
    };
    let model = Mlp::init(&config, env.seed);
    let pool = &ds.test.features;
    let profiles: Vec<_> = two_tier_server(2, 2, 0.25)
        .into_iter()
        .map(|p| p.with_overhead_scale(0.05))
        .collect();
    let rate_rps = 4.0e6 * 0.01 / env.scale;
    let slo_s = 1.5e-3 * env.scale;
    // 2400 requests: long enough that the post-engagement tail (the
    // controller needs a window of dispatches before it moves) dominates
    // the p99 estimate, short enough to stay a smoke-affordable row.
    let requests = open_loop_stream(env.seed, 2400, rate_rps, pool.rows());
    let adaptive_cfg = ServeConfig::paper_defaults(64, slo_s);
    let sessions = [
        ("adaptive", adaptive_cfg.clone()),
        ("fixed", adaptive_cfg.fixed_batch()),
    ];

    let rows = sessions.iter().map(|(mode, cfg)| {
        let o = serve(&model, &profiles, pool, &requests, &FaultPlan::new(), cfg);
        let stats = o.fleet_latency();
        let us = |q: &asgd_stats::P2Quantile| q.value().unwrap_or(0.0) * 1e6;
        let final_b: Vec<usize> = o.replicas.iter().map(|r| r.final_b).collect();
        format!(
            "{{\"mode\": \"{mode}\", \"dataset\": \"{}\", \"requests\": {}, \
             \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \
             \"throughput_rps\": {:.1}, \"throughput_unit\": \"requests_per_sim_s\", \
             \"final_b\": {final_b:?}, \"served\": {}, \"lost\": {}}}",
            ds.name,
            requests.len(),
            us(&stats.p50),
            us(&stats.p95),
            us(&stats.p99),
            o.throughput_rps(),
            o.served,
            o.lost
        )
    });
    bench_json("serve", rows)
}

/// **BENCH_autoscale** — the multi-tenant fleet scenario (weight-dedup
/// registry, Zipf prediction cache, hedged requests) served three ways over
/// the same diurnal/bursty stream: elastic autoscaling (floor `r_min`,
/// ceiling every slot), static-min (pinned at the floor), and static-max
/// (pinned at every slot). The acceptance summary encodes the claim the
/// subsystem exists to make: elastic holds the p99 SLO that static-min
/// misses, at ≥1.3× less device-seconds than static-max, with the Zipf head
/// hitting the cache more than half the time. Everything is simulated time,
/// so every row — and the acceptance booleans — is deterministic.
pub fn bench_autoscale_json(env: &Env) -> String {
    use crate::fleet::{FleetKnobs, FleetScenario};

    let scenario = FleetScenario::build(env.seed, FleetKnobs::default());
    let slo_s = scenario.slo_s();
    let sessions = scenario.baselines();
    let rows = sessions.iter().map(|(mode, o)| {
        let p = |q: f64| o.latency_percentile(q).unwrap_or(0.0) * 1e6;
        let peak = o
            .trajectory
            .iter()
            .map(|d| d.replicas)
            .max()
            .unwrap_or(o.replicas.iter().filter(|r| r.commissioned).count());
        format!(
            "{{\"mode\": \"{mode}\", \"requests\": {}, \"p50_us\": {:.3}, \
             \"p99_us\": {:.3}, \"slo_met\": {}, \"device_seconds\": {:.9}, \
             \"peak_replicas\": {peak}, \"cache_hit_rate\": {:.4}, \
             \"hedges\": {}, \"served\": {}, \"lost\": {}}}",
            scenario.requests.len(),
            p(0.50),
            p(0.99),
            o.latency_percentile(0.99).unwrap_or(0.0) <= slo_s,
            o.device_seconds(),
            o.cache.hit_rate(),
            o.hedge.issued,
            o.served,
            o.lost
        )
    });
    let p99 = |o: &asgd_serve::FleetOutcome| o.latency_percentile(0.99).unwrap_or(0.0);
    let [(_, auto), (_, smin), (_, smax)] = &sessions;
    let cost_ratio = smax.device_seconds() / auto.device_seconds();
    format!(
        "{{\n  \"bench\": \"autoscale\",\n  \"rows\": [\n{}  ],\n  \
         \"slo_us\": {:.3},\n  \"dedup_ratio\": {:.4},\n  \
         \"cost_ratio_staticmax_over_elastic\": {cost_ratio:.4},\n  \
         \"elastic_meets_slo\": {},\n  \"staticmin_misses_slo\": {},\n  \
         \"cost_ratio_ok\": {},\n  \"cache_hit_ok\": {}\n}}\n",
        json_rows(rows),
        slo_s * 1e6,
        scenario.registry.dedup_stats().ratio(),
        p99(auto) <= slo_s,
        p99(smin) > slo_s,
        cost_ratio >= 1.3,
        auto.cache.hit_rate() > 0.5
    )
}

/// Formats one run's curve as CSV rows tagged with dataset/gpus/algorithm.
fn curve_rows(out: &mut String, dataset: &str, gpus: usize, result: &RunResult) {
    for r in &result.records {
        let _ = writeln!(
            out,
            "{dataset},{gpus},{},{},{:.6},{:.4},{:.4},{:.5}",
            result.name, r.merge_index, r.sim_time, r.epochs, r.accuracy, r.mean_loss
        );
    }
}

const CURVE_HEADER: &str = "dataset,gpus,algorithm,merge,sim_time,epochs,accuracy,mean_loss\n";

/// **Figure 4** — time-to-accuracy of Adaptive vs Elastic vs CROSSBOW vs
/// TensorFlow for 1/2/4 GPUs on both datasets. Every algorithm runs for the
/// same simulated time (the §V-A methodology): the budget is what Adaptive
/// needs for `env.mega_limit` mega-batches.
pub fn fig4(env: &Env) -> String {
    let mut out = String::from(CURVE_HEADER);
    for spec in env.dataset_specs() {
        let ds = env.dataset(&spec);
        let lr = grid_learning_rate(env, &ds);
        for gpus in [1usize, 2, 4] {
            // Adaptive sets the time budget.
            let adaptive = env.run(algorithms::adaptive_sgd(), gpus, &ds, lr);
            let budget = adaptive.records.last().map(|r| r.sim_time).unwrap_or(1e-3);
            curve_rows(&mut out, &spec.name, gpus, &adaptive);
            for algo in [
                algorithms::elastic_sgd(),
                algorithms::crossbow_sma(),
                algorithms::tensorflow_sync(),
            ] {
                // On one GPU Elastic degenerates to the same mini-batch SGD
                // as Adaptive (the paper plots them as one curve).
                if gpus == 1 && algo.name == "elastic-sgd" {
                    continue;
                }
                let mut config = env.run_config(lr);
                // CROSSBOW's blend dirties every row: its baseline merges
                // dense whatever `ASGD_SPARSE_MERGE` asks of the others.
                config.sparse_merge &= !matches!(algo.merge_rule, MergeRule::Crossbow { .. });
                config.mega_batch_limit = Some(env.mega_limit * 40);
                config.time_limit = Some(budget);
                let result = Trainer::new(algo, heterogeneous_server(gpus), config).run(&ds);
                curve_rows(&mut out, &spec.name, gpus, &result);
            }
        }
    }
    out
}

/// **Figure 5** — scalability: Adaptive SGD on 1/2/4 GPUs vs the SLIDE CPU
/// baseline, reporting both time-to-accuracy (5a: `sim_time` column) and
/// statistical efficiency (5b: `epochs` column).
pub fn fig5(env: &Env) -> String {
    let mut out = String::from(CURVE_HEADER);
    for spec in env.dataset_specs() {
        let ds = env.dataset(&spec);
        let lr = grid_learning_rate(env, &ds);
        // The 1-GPU run sets the shared time budget (§V-A: every
        // configuration runs for the same amount of time); multi-GPU runs
        // then fit more mega-batches into the same window.
        let one = env.run(algorithms::adaptive_sgd(), 1, &ds, lr);
        let slowest_budget = one.records.last().map(|r| r.sim_time).unwrap_or(1e-3);
        let mut gpu_samples = one
            .records
            .last()
            .map(|r| (r.epochs * ds.train.len() as f64) as u64)
            .unwrap_or(0);
        curve_rows(&mut out, &spec.name, 1, &one);
        for gpus in [2usize, 4] {
            let mut config = env.run_config(lr);
            config.mega_batch_limit = Some(env.mega_limit * 40);
            config.time_limit = Some(slowest_budget);
            let result = Trainer::new(
                algorithms::adaptive_sgd(),
                heterogeneous_server(gpus),
                config,
            )
            .run(&ds);
            if let Some(r) = result.records.last() {
                gpu_samples = gpu_samples.max((r.epochs * ds.train.len() as f64) as u64);
            }
            curve_rows(&mut out, &spec.name, gpus, &result);
        }
        // SLIDE gets the same simulated time budget as the slowest GPU
        // configuration (and a generous sample cap as a safety stop).
        let mut slide_cfg = SlideConfig::defaults(env.b_max * env.batches_per_mega);
        slide_cfg.hidden = env.hidden;
        slide_cfg.seed = env.seed;
        slide_cfg.lr = lr * slide_cfg.batch_size as f64 / env.b_max as f64;
        slide_cfg.k_bits = ((ds.num_labels as f64 / 16.0).log2().round() as usize).clamp(3, 12);
        slide_cfg.time_limit = Some(slowest_budget);
        slide_cfg.sample_limit = Some(gpu_samples.max(1) * 4);
        let slide = SlideTrainer::new(slide_cfg).run(&ds);
        curve_rows(&mut out, &spec.name, 0, &slide);
    }
    out
}

/// **Figure 6a** — per-GPU batch size evolution across mega-batches, and
/// **Figure 6b** — perturbation activation per mega-batch. One CSV.
pub fn fig6(env: &Env) -> String {
    let spec = &env.dataset_specs()[0];
    let ds = env.dataset(spec);
    let lr = grid_learning_rate(env, &ds);
    let mut config = env.run_config(lr);
    config.mega_batch_limit = Some(env.mega_limit * 2);
    let result = Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(4), config).run(&ds);
    let mut out = String::from(
        "mega_batch,b_gpu0,b_gpu1,b_gpu2,b_gpu3,u_gpu0,u_gpu1,u_gpu2,u_gpu3,perturbed\n",
    );
    for r in &result.records {
        let b: Vec<String> = r.batch_sizes.iter().map(|x| format!("{:.1}", x)).collect();
        let u: Vec<String> = r.updates.iter().map(|x| x.to_string()).collect();
        let _ = writeln!(
            out,
            "{},{},{},{}",
            r.merge_index,
            b.join(","),
            u.join(","),
            u8::from(r.perturbed)
        );
    }
    let _ = writeln!(
        out,
        "# perturbation frequency: {:.1}% of merges (paper: very high)",
        result.perturbation_frequency() * 100.0
    );
    out
}

/// **Ablations** (DESIGN.md §6) — each Adaptive SGD mechanism removed in
/// isolation, on the Amazon-like dataset with 4 GPUs.
pub fn ablations(env: &Env) -> String {
    let spec = &env.dataset_specs()[0];
    let ds = env.dataset(spec);
    let lr = grid_learning_rate(env, &ds);
    let mut out =
        String::from("variant,best_accuracy,final_sim_time,time_to_80pct_best,perturbation_freq\n");
    let variants = vec![
        algorithms::adaptive_sgd(),
        algorithms::adaptive_without_scaling(),
        algorithms::adaptive_multiplicative_scaling(),
        algorithms::adaptive_product_normalization(),
        algorithms::adaptive_without_perturbation(),
        algorithms::adaptive_with_plain_average(),
        algorithms::elastic_sgd(),
    ];
    let results: Vec<RunResult> = variants
        .into_iter()
        .map(|v| env.run(v, 4, &ds, lr))
        .collect();
    let best_overall = results
        .iter()
        .map(|r| r.best_accuracy())
        .fold(0.0f64, f64::max);
    for r in &results {
        let tta = r
            .time_to_accuracy(best_overall * 0.8)
            .map(|t| format!("{t:.6}"))
            .unwrap_or_else(|| "never".into());
        let _ = writeln!(
            out,
            "{},{:.4},{:.6},{},{:.2}",
            r.name,
            r.best_accuracy(),
            r.records.last().map(|x| x.sim_time).unwrap_or(0.0),
            tta,
            r.perturbation_frequency()
        );
    }
    out
}

/// Summarizes a fig4/fig5 CSV into per-(dataset,gpus,algorithm) one-liners:
/// best accuracy and earliest time a shared target was reached.
pub fn summarize_curves(csv: &str) -> String {
    use std::collections::BTreeMap;
    let mut best: BTreeMap<(String, String, String), (f64, f64)> = BTreeMap::new();
    for line in csv.lines().skip(1) {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() < 8 {
            continue;
        }
        let key = (f[0].to_string(), f[1].to_string(), f[2].to_string());
        let time: f64 = f[4].parse().unwrap_or(0.0);
        let acc: f64 = f[6].parse().unwrap_or(0.0);
        let e = best.entry(key).or_insert((0.0, 0.0));
        if acc > e.0 {
            *e = (acc, time);
        }
    }
    let mut out = String::from("dataset,gpus,algorithm,best_accuracy,time_of_best\n");
    for ((d, g, a), (acc, t)) in best {
        let _ = writeln!(out, "{d},{g},{a},{acc:.4},{t:.6}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_both_datasets_and_reference_rows() {
        let env = Env::smoke();
        let csv = table1(&env);
        assert!(csv.contains("amazon-670k@0.001"));
        assert!(csv.contains("delicious-200k@0.001"));
        assert!(csv.contains("(paper)"));
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn fig1_reports_four_gpus_and_a_gap() {
        let env = Env::smoke();
        let csv = fig1(&env);
        assert_eq!(
            csv.lines().filter(|l| !l.starts_with(['g', '#'])).count(),
            4
        );
        assert!(csv.contains("gap"));
    }

    #[test]
    fn fig2_trace_shows_dispatch_and_merges() {
        let env = Env::smoke();
        let trace = fig2_trace(&env);
        assert!(trace.contains("batch 0"));
        assert!(trace.contains("merge"));
        assert!(trace.contains("gpu0"));
        assert!(trace.contains("gpu1"));
    }

    #[test]
    fn fig6_tracks_batch_sizes_and_perturbation() {
        let env = Env::smoke();
        let csv = fig6(&env);
        let data_rows = csv.lines().filter(|l| !l.starts_with(['m', '#'])).count();
        assert_eq!(data_rows, env.mega_limit * 2);
        assert!(csv.contains("perturbation frequency"));
    }

    /// `(size, variant) -> sim_us` of one claim's rows.
    fn claim_rows(csv: &str, claim: &str) -> std::collections::HashMap<(u64, String), f64> {
        csv.lines()
            .filter_map(|l| l.strip_prefix(claim)?.strip_prefix(','))
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                (
                    (f[0].parse().unwrap(), f[1].to_string()),
                    f[2].parse().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn sec4_claims_hold() {
        let csv = sec4_claims(&Env::smoke());
        assert_eq!(csv.lines().count(), 1 + 3 * 4 + 4 * 2);
        // §IV: the multi-stream ring merges a bandwidth-bound model at least
        // twice as fast as the single-stream tree.
        let merge = claim_rows(&csv, "allreduce");
        let at = |variant: &str| merge[&(1 << 22, variant.to_string())];
        assert!(at("multi_stream_ring") * 2.0 <= at("tree"), "{csv}");
        assert!(at("ring") < at("tree") && at("tree") < at("naive"), "{csv}");
        // Fusion always saves, and saves more the more managers contend.
        let launch = claim_rows(&csv, "fusion");
        let saving = |m: u64| {
            let at = |variant: &str| launch[&(m, variant.to_string())];
            1.0 - at("fused") / at("unfused")
        };
        assert!(saving(1) > 0.0, "{csv}");
        for (few, many) in [(1, 2), (2, 4), (4, 8)] {
            assert!(
                saving(few) < saving(many),
                "{few} vs {many} managers: {csv}"
            );
        }
    }

    #[test]
    fn select_filters_by_substring_and_refuses_a_filter_matching_nothing() {
        let names = |filters: &[&str]| -> Result<Vec<&str>, String> {
            let filters: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
            Ok(select(&filters)?
                .into_iter()
                .map(|(name, _)| name)
                .collect())
        };
        assert_eq!(names(&[]).unwrap().len(), ARTIFACTS.len());
        assert_eq!(names(&["fig2_trace"]).unwrap(), ["fig2_trace.txt"]);
        assert_eq!(
            names(&["merge_stage", "BENCH_merge"]).unwrap(),
            ["merge_stage.csv", "BENCH_merge.json"]
        );
        let err = names(&["fig4", "BENCH_autoscal_"]).unwrap_err();
        assert!(err.contains("\"BENCH_autoscal_\""), "{err}");
        assert!(err.contains("BENCH_autoscale.json") && err.contains("sec4_claims.csv"));
    }

    #[test]
    fn bench_serve_reports_both_modes_with_zero_loss() {
        let env = Env::smoke();
        let json = bench_serve_json(&env);
        assert!(json.contains("\"mode\": \"adaptive\""));
        assert!(json.contains("\"mode\": \"fixed\""));
        assert!(json.contains("\"served\": 2400"));
        assert!(!json.contains("\"lost\": 1"), "no request may be lost");
    }

    #[test]
    fn bench_sparse_merge_smoke() {
        let env = Env::smoke();
        let json = bench_sparse_merge_json(&env);
        // The ≥10x full-scale byte reduction and every run's bit-identity
        // are asserted inside the experiment; here just check the shape.
        assert_eq!(
            json.matches("\"bits_equal_dense\": true").count(),
            4,
            "all four precision x topology gates must report"
        );
        assert_eq!(json.matches("\"topology\"").count(), 8);
        assert!(json.contains("\"bench\": \"sparse_merge\""));
    }

    #[test]
    fn bench_cluster_hierarchical_beats_flat_on_multi_server_shapes() {
        fn field(row: &str, key: &str) -> f64 {
            let start = row.find(key).expect(key) + key.len();
            let rest = &row[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().expect(key)
        }
        let env = Env::smoke();
        let json = bench_cluster_json(&env);
        let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"servers\"")).collect();
        assert_eq!(rows.len(), 4, "expected the 1x4 .. 64x4 scaling table");
        for row in rows {
            let servers = field(row, "\"servers\": ");
            let flat = field(row, "\"flat_ms\": ");
            let ring = field(row, "\"hier_ring_ms\": ");
            let tree = field(row, "\"hier_tree_ms\": ");
            assert!(row.contains("\"bits_equal_flat\": true"));
            if servers > 1.0 {
                assert!(
                    ring < flat && tree < flat,
                    "hierarchical must beat flat once hops cross the slow link: {row}"
                );
            } else {
                // The single-server row *is* the flat baseline by construction.
                assert_eq!(ring, flat);
                assert_eq!(tree, flat);
            }
        }
    }

    #[test]
    fn summarize_curves_aggregates() {
        let csv = "dataset,gpus,algorithm,merge,sim_time,epochs,accuracy,mean_loss\n\
                   a,2,x,0,1.0,0.5,0.2,1.0\n\
                   a,2,x,1,2.0,1.0,0.5,0.8\n\
                   a,2,y,0,1.5,0.5,0.3,0.9\n";
        let s = summarize_curves(csv);
        assert!(s.contains("a,2,x,0.5000,2.000000"));
        assert!(s.contains("a,2,y,0.3000,1.500000"));
    }
}
