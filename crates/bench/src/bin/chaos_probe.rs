//! Chaos determinism probe: one faulted training run, rendered to a
//! deterministic report.
//!
//! The CI gate runs this binary with the same `ASGD_FAULT_SEED` under
//! different `ASGD_THREADS` settings (in separate processes, so each gets
//! its own worker pool) and byte-diffs the reports: a faulted run must be a
//! pure function of `(run seed, fault seed)`, independent of host
//! parallelism. A diff is a determinism regression; the logged fault seed
//! reproduces it exactly.
//!
//! Environment (on top of the shared `ASGD_*` variables):
//!   ASGD_FAULT_SEED   seed for `FaultPlan::random` (default 7)
//!   ASGD_FAULT_GPUS   server size (default 4)
//!   ASGD_PRECISION    merge-arena storage tier, `f32` (default) or `bf16`;
//!                     bf16 artifacts get a `_bf16` name suffix so the two
//!                     tiers keep separate goldens

use asgd_stats::fnv1a;

fn main() {
    let env = asgd_bench::Env::from_env();
    let fault_seed: u64 = asgd_bench::env_knob("ASGD_FAULT_SEED", 7);
    let n_gpus: usize = asgd_bench::env_knob("ASGD_FAULT_GPUS", 4);
    let precision = asgd_bench::env_precision(asgd_tensor::Precision::F32);

    let dataset = env.dataset(&asgd_bench::Env::dataset_specs(&env)[0]);
    let plan = asgd_gpusim::FaultPlan::random(fault_seed, n_gpus, env.mega_limit);
    let mut config = env.run_config(0.2);
    config.trace = true;
    config.fault_plan = Some(plan.clone());
    config.precision = precision;
    let result = asgd_core::trainer::Trainer::new(
        asgd_core::algorithms::adaptive_sgd(),
        asgd_gpusim::profile::heterogeneous_server(n_gpus),
        config,
    )
    .run(&dataset);

    let mut report = String::new();
    report.push_str(&format!(
        "chaos probe: fault seed {fault_seed}, {n_gpus} gpus, {} megas, {} merge arena\n",
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
    let path = env.write_artifact(&format!("chaos_probe_{fault_seed}{suffix}.txt"), &report);
    eprintln!("wrote {path:?}");
}
