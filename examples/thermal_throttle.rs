//! Runtime heterogeneity: a GPU thermally throttles mid-training and
//! Adaptive SGD re-balances batch sizes around it — the scenario static
//! partitioning cannot handle.
//!
//! ```text
//! cargo run --release --example thermal_throttle
//! ```

use adaptive_sgd::core::{
    algorithms,
    trainer::{RunConfig, Trainer},
};
use adaptive_sgd::data::{generate, DatasetSpec};
use adaptive_sgd::gpusim::faults::FaultPlan;
use adaptive_sgd::gpusim::profile::homogeneous_server;

fn main() {
    let scale = 0.005;
    let dataset = generate(&DatasetSpec::amazon_670k(scale), 7);

    let mut config = RunConfig::paper_defaults(64, 16);
    config.hidden = 64;
    config.base_lr = 0.1;
    config.mega_batch_limit = Some(16);
    config.overhead_scale = scale;
    // GPU 2 drops to 45% speed at mega-batch 5 and recovers at 12.
    config.fault_plan = Some(
        FaultPlan::new()
            .speed_change(5, 0, 2, 0.45)
            .speed_change(12, 0, 2, 1.0),
    );

    println!("4 identical GPUs; GPU 2 throttles to 45% at mega-batch 5, recovers at 12\n");
    for (name, spec) in [
        ("adaptive-sgd", algorithms::adaptive_sgd()),
        ("elastic-sgd", algorithms::elastic_sgd()),
    ] {
        let result = Trainer::new(spec, homogeneous_server(4), config.clone()).run(&dataset);
        println!("{name}:");
        println!("  mega | sim time (s) | batch sizes           | updates");
        for r in &result.records {
            println!(
                "  {:>4} | {:>12.5} | {:<21} | {:?}",
                r.merge_index,
                r.sim_time,
                format!(
                    "{:?}",
                    r.batch_sizes
                        .iter()
                        .map(|b| b.round() as i64)
                        .collect::<Vec<_>>()
                ),
                r.updates
            );
        }
        println!(
            "  total simulated time: {:.5}s, best accuracy {:.4}\n",
            result.records.last().unwrap().sim_time,
            result.best_accuracy()
        );
    }
    println!(
        "Adaptive shrinks GPU 2's batches during the throttle window and \
         restores them after recovery;\nElastic keeps equal batches and pays \
         the straggler penalty every mega-batch."
    );
}
