//! Sparse-merge determinism probe: one sampled-softmax training run executed
//! twice — dense merge path and sparse delta merge path — rendered to a
//! deterministic report that *contains* the bit-identity verdict.
//!
//! The CI gate runs this binary under different `ASGD_THREADS` settings and
//! build profiles (in separate processes, so each gets its own worker pool)
//! and byte-diffs the reports against each other and the checked-in
//! `results/sparse_merge_probe_7.txt`: the sparse delta merge promises the
//! merged model is bit-identical to the dense flat reduction (see DESIGN.md,
//! "Sparse delta merge") — only the merge stage's simulated timing and byte
//! accounting change, and those are pure functions of the run seed too. The
//! default fault plan replays device losses through the survivor-subset
//! union path, so degraded merges are part of the gated trajectory.
//!
//! Environment (on top of the shared `ASGD_*` variables):
//!   ASGD_SERVERS             server nodes (default 1 = flat single server)
//!   ASGD_DEVICES_PER_SERVER  devices per node (default 4)
//!   ASGD_FAULT_SEED          seed for `FaultPlan::random[_cluster]`
//!                            (default 7; `none` disables faults)
//!   ASGD_PRECISION           merge-arena storage tier, `f32` (default) or
//!                            `bf16`; bf16 artifacts get a `_bf16` suffix,
//!                            cluster artifacts an `_SxM` shape tag before it

use asgd_collective::InterNode;
use asgd_core::trainer::SampledSoftmax;
use asgd_core::{ClusterConfig, RunResult};
use asgd_stats::{fnv, fnv1a};

fn main() {
    let env = asgd_bench::Env::from_env();
    let servers: usize = asgd_bench::env_knob("ASGD_SERVERS", 1);
    let per: usize = asgd_bench::env_knob("ASGD_DEVICES_PER_SERVER", 4);
    let n_gpus = servers.max(1) * per;
    let fault_seed = asgd_bench::knob(
        "ASGD_FAULT_SEED",
        asgd_bench::env_text("ASGD_FAULT_SEED").as_deref(),
        Some(7u64),
        |t| match t {
            "none" => Some(None),
            _ => t.parse().ok().map(Some),
        },
    );
    let precision = asgd_bench::env_precision(asgd_tensor::Precision::F32);

    let dataset = env.dataset(&asgd_bench::Env::dataset_specs(&env)[0]);
    let mut config = env.run_config(0.2);
    config.trace = true;
    config.precision = precision;
    config.sampled_softmax = Some(env.sampled.unwrap_or_else(|| SampledSoftmax::defaults(64)));
    // Probe-scale unions are dense (tiny label space), which would send
    // every merge through the dense fallback; force the sparse schedule so
    // the golden gates the path under test. Traffic claims live in
    // BENCH_sparse_merge.json, not here.
    config.sparse_max_density = 1.0;
    if servers > 1 {
        config.cluster = Some(ClusterConfig {
            servers,
            devices_per_server: per,
            inter: InterNode::Ring,
        });
    }
    let plan = fault_seed.map(|seed| {
        if servers > 1 {
            asgd_gpusim::FaultPlan::random_cluster(seed, servers, per, env.mega_limit)
        } else {
            asgd_gpusim::FaultPlan::random(seed, n_gpus, env.mega_limit)
        }
    });
    config.fault_plan = plan.clone();

    let run = |sparse: bool| -> RunResult {
        let mut c = config.clone();
        c.sparse_merge = sparse;
        asgd_core::trainer::Trainer::new(
            asgd_core::algorithms::adaptive_sgd(),
            asgd_gpusim::profile::heterogeneous_server(n_gpus),
            c,
        )
        .run(&dataset)
    };
    let dense = run(false);
    let sparse = run(true);
    assert_eq!(
        dense.final_model, sparse.final_model,
        "sparse delta merge broke the bit-identity contract"
    );

    let mut report = String::new();
    report.push_str(&format!(
        "sparse-merge probe: fault seed {fault_seed:?}, {servers}x{per} ({n_gpus} gpus), \
         {} megas, {} merge arena\n",
        env.mega_limit,
        precision.name()
    ));
    for e in plan.iter().flat_map(|p| p.events()) {
        report.push_str(&format!("plan: {e:?}\n"));
    }
    report.push_str(&sparse.chaos.render());
    for r in &sparse.records {
        report.push_str(&format!(
            "merge {} time {:.9} loss {:.9} acc {:.6} updates {:?}\n",
            r.merge_index, r.sim_time, r.mean_loss, r.accuracy, r.updates
        ));
    }
    let stats = sparse.sparse_merge.as_ref().expect("sparse stats");
    report.push_str(&format!(
        "sparse merges {} fallbacks {} sparse_bytes {} dense_bytes {} ratio {:.3}\n",
        stats.merges,
        stats.fallbacks,
        stats.sparse_bytes,
        stats.dense_bytes,
        stats.bytes_ratio()
    ));
    report.push_str(&format!(
        "dense model fnv {:#018x}\n",
        fnv::fnv1a_f32(&dense.final_model)
    ));
    report.push_str(&format!(
        "sparse model fnv {:#018x}\n",
        fnv::fnv1a_f32(&sparse.final_model)
    ));
    report.push_str("models bit-identical true\n");
    report.push_str(&format!(
        "sparse trace fnv {:#018x}\n",
        fnv1a(sparse.trace.bytes())
    ));

    print!("{report}");
    let suffix = match precision {
        asgd_tensor::Precision::F32 => String::new(),
        _ => format!("_{}", precision.name()),
    };
    let seed_tag = fault_seed.map_or_else(|| "none".into(), |s| s.to_string());
    // A cluster run names its shape, so it never lands on the flat golden.
    let shape = if servers > 1 {
        format!("_{servers}x{per}")
    } else {
        String::new()
    };
    let path = env.write_artifact(
        &format!("sparse_merge_probe_{seed_tag}{shape}{suffix}.txt"),
        &report,
    );
    eprintln!("wrote {path:?}");
}
