//! Cluster determinism probe: one faulted training run over a simulated
//! multi-node cluster (hierarchical two-level merge), rendered to a
//! deterministic report.
//!
//! The CI gate runs this binary at the full 64×4 shape under different
//! `ASGD_THREADS` settings (in separate processes, so each gets its own
//! worker pool) and byte-diffs the reports: a clustered run must be a pure
//! function of `(run seed, fault seed, cluster shape)`, independent of host
//! parallelism and of how the intra-node and inter-node phases interleave.
//! The fault plan comes from `FaultPlan::random_cluster`, so whole-server
//! losses and inter-node stalls are part of the gated trajectory.
//!
//! Environment (on top of the shared `ASGD_*` variables):
//!   ASGD_SERVERS             number of server nodes (default 4)
//!   ASGD_DEVICES_PER_SERVER  devices on each node (default 4)
//!   ASGD_FAULT_SEED          seed for `FaultPlan::random_cluster` (default 7)
//!   ASGD_INTER               inter-node schedule, `ring` (default) or `tree`
//!   ASGD_PRECISION           merge-arena storage tier, `f32` (default) or
//!                            `bf16`; bf16 artifacts get a `_bf16` suffix

use asgd_collective::InterNode;
use asgd_core::ClusterConfig;
use asgd_stats::fnv1a;

fn main() {
    let env = asgd_bench::Env::from_env();
    let fault_seed: u64 = asgd_bench::env_knob("ASGD_FAULT_SEED", 7);
    let servers: usize = asgd_bench::env_knob("ASGD_SERVERS", 4);
    let per: usize = asgd_bench::env_knob("ASGD_DEVICES_PER_SERVER", 4);
    let n_gpus = servers * per;
    let shapes = [("ring", InterNode::Ring), ("tree", InterNode::Tree)];
    let inter = asgd_bench::env_word("ASGD_INTER", InterNode::Ring, &shapes);
    let precision = asgd_bench::env_precision(asgd_tensor::Precision::F32);

    let dataset = env.dataset(&asgd_bench::Env::dataset_specs(&env)[0]);
    let plan = asgd_gpusim::FaultPlan::random_cluster(fault_seed, servers, per, env.mega_limit);
    let mut config = env.run_config(0.2);
    config.trace = true;
    config.fault_plan = Some(plan.clone());
    config.precision = precision;
    config.cluster = Some(ClusterConfig {
        servers,
        devices_per_server: per,
        inter,
    });
    let result = asgd_core::trainer::Trainer::new(
        asgd_core::algorithms::adaptive_sgd(),
        asgd_gpusim::profile::heterogeneous_server(n_gpus),
        config,
    )
    .run(&dataset);

    let mut report = String::new();
    report.push_str(&format!(
        "cluster probe: fault seed {fault_seed}, {servers}x{per} cluster ({n_gpus} gpus), \
         {inter:?} inter-node, {} megas, {} merge arena\n",
        env.mega_limit,
        precision.name()
    ));
    for e in plan.events() {
        report.push_str(&format!("plan: {e:?}\n"));
    }
    report.push_str(&result.chaos.render());
    for r in &result.records {
        report.push_str(&format!(
            "merge {} time {:.9} loss {:.9} acc {:.6} updates {:?}\n",
            r.merge_index, r.sim_time, r.mean_loss, r.accuracy, r.updates
        ));
    }
    report.push_str(&format!(
        "trace fnv {:#018x}\n",
        fnv1a(result.trace.bytes())
    ));
    report.push_str(&format!(
        "model fnv {:#018x}\n",
        fnv1a(result.final_model.iter().flat_map(|w| w.to_le_bytes()))
    ));

    print!("{report}");
    let suffix = match precision {
        asgd_tensor::Precision::F32 => String::new(),
        _ => format!("_{}", precision.name()),
    };
    let path = env.write_artifact(
        &format!("cluster_probe_{fault_seed}_{servers}x{per}{suffix}.txt"),
        &report,
    );
    eprintln!("wrote {path:?}");
}
