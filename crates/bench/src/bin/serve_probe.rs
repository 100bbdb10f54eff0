//! Serve determinism probe: one end-to-end train → checkpoint → serve
//! session on a 2-fast/2-slow fleet, rendered to a deterministic report.
//!
//! The CI gate runs this binary with the same `(request seed, fault seed)`
//! under different `ASGD_THREADS` settings (in separate processes, so each
//! gets its own worker pool) and byte-diffs the reports: a serving run must
//! be a pure function of its seeds, independent of host parallelism. The
//! report carries the per-replica micro-batch trajectories, p50/p95/p99
//! latency (per replica and fleet-wide), throughput, the fault log, and an
//! FNV checksum of every served prediction — so a diff catches scheduler
//! *and* numeric divergence alike.
//!
//! The workload is the serving testbed from DESIGN.md: a wide-head
//! classifier (amazon-670k twin at scale 0.1, hidden width 8) where
//! per-request softmax/top-k cost dominates per-batch flat cost — the shape
//! in which micro-batch size is the latency knob. The probe serves the same
//! stream twice, adaptive and fixed-batch, and reports the p99 ratio.
//!
//! Environment (on top of the shared `ASGD_*` variables):
//!   ASGD_SERVE_SEED       request-stream seed           (default 11)
//!   ASGD_SLO_MS           per-request latency SLO, ms   (default 0.05)
//!   ASGD_FAULT_SEED       seed for `FaultPlan::random`  (default 7)
//!   ASGD_SERVE_RPS        offered load, requests/s      (default 1.6e6)
//!   ASGD_SERVE_REQUESTS   stream length                 (default 2000)

use asgd_core::trainer::{RunConfig, Trainer};
use asgd_core::{algorithms, load_model};
use asgd_data::DatasetSpec;
use asgd_gpusim::profile::{homogeneous_server, two_tier_server};
use asgd_gpusim::FaultPlan;
use asgd_model::MlpConfig;
use asgd_serve::{open_loop_stream, serve, LatencyStats, ServeConfig, ServeOutcome};
use asgd_stats::fnv1a;
use std::fmt::Write as _;

/// Dataset scale of the serving twin (wide head: ~67k classes).
const SERVE_SCALE: f64 = 0.1;
/// Hidden width of the serving twin (tiny, so per-request cost dominates).
const SERVE_HIDDEN: usize = 8;
/// Fast devices / slow devices / slow-tier speed factor.
const FLEET: (usize, usize, f64) = (2, 2, 0.25);
/// Maximum (and fixed-baseline) micro-batch size.
const B_MAX: usize = 64;

fn quantiles_us(stats: &LatencyStats) -> (f64, f64, f64) {
    let v = |q: &asgd_stats::P2Quantile| q.value().unwrap_or(0.0) * 1e6;
    (v(&stats.p50), v(&stats.p95), v(&stats.p99))
}

fn render(report: &mut String, label: &str, outcome: &ServeOutcome) {
    let _ = writeln!(report, "[{label}]");
    for line in &outcome.fault_log {
        let _ = writeln!(report, "fault: {line}");
    }
    for (i, r) in outcome.replicas.iter().enumerate() {
        let (p50, p95, p99) = quantiles_us(&r.stats);
        let _ = writeln!(
            report,
            "replica {i} {} alive={} served={} batches={} final_b={} \
             p50_us={p50:.9} p95_us={p95:.9} p99_us={p99:.9}",
            r.name, r.alive, r.served, r.batches, r.final_b
        );
        let _ = writeln!(report, "replica {i} trajectory {:?}", r.trajectory);
    }
    let (p50, p95, p99) = quantiles_us(&outcome.fleet_latency());
    let _ = writeln!(
        report,
        "fleet p50_us={p50:.9} p95_us={p95:.9} p99_us={p99:.9} \
         throughput_rps={:.3} makespan_s={:.9} served={} lost={}",
        outcome.throughput_rps(),
        outcome.makespan_s,
        outcome.served,
        outcome.lost
    );
    let _ = writeln!(
        report,
        "predictions fnv {:#018x}",
        fnv1a(outcome.predictions.iter().flat_map(|p| p.to_le_bytes()))
    );
}

fn main() {
    let env = asgd_bench::Env::from_env();
    use asgd_bench::env_knob as var;
    let serve_seed: u64 = var("ASGD_SERVE_SEED", 11);
    let slo_ms: f64 = var("ASGD_SLO_MS", 0.05);
    let fault_seed: u64 = var("ASGD_FAULT_SEED", 7);
    let rate_rps: f64 = var("ASGD_SERVE_RPS", 1.6e6);
    let n_requests: usize = var("ASGD_SERVE_REQUESTS", 2000);

    // Train the serving twin for two mega-batches and hand the model over
    // exactly as production would: TrainingState → serveable checkpoint
    // bytes → `load_model`.
    let ds = asgd_data::generate(&DatasetSpec::amazon_670k(SERVE_SCALE), env.seed ^ 0xD5);
    let mconfig = MlpConfig {
        num_features: ds.num_features,
        hidden: SERVE_HIDDEN,
        num_classes: ds.num_labels,
    };
    let mut tconfig = RunConfig::paper_defaults(48, 24);
    tconfig.hidden = SERVE_HIDDEN;
    tconfig.base_lr = 0.1;
    tconfig.seed = env.seed;
    tconfig.mega_batch_limit = Some(2);
    tconfig.overhead_scale = SERVE_SCALE;
    let trained = Trainer::new(algorithms::adaptive_sgd(), homogeneous_server(2), tconfig).run(&ds);
    let state = trained.final_state.expect("gpu trainer keeps a snapshot");
    let model = load_model(state.export_model(&mconfig)).expect("serveable checkpoint decodes");

    let (fast, slow, slow_factor) = FLEET;
    let profiles: Vec<_> = two_tier_server(fast, slow, slow_factor)
        .into_iter()
        .map(|p| p.with_overhead_scale(0.05))
        .collect();
    let pool = &ds.test.features;
    let requests = open_loop_stream(serve_seed, n_requests, rate_rps, pool.rows());
    // ~3 controller windows cover the stream's early-to-mid life, so the
    // random plan's mid-run events (including the device loss) actually fire.
    let plan = FaultPlan::random(fault_seed, profiles.len(), 3);
    let config = ServeConfig::paper_defaults(B_MAX, slo_ms * 1e-3);

    // One faulted session (the chaos artifact: degradation + zero loss) and
    // one fault-free adaptive/fixed pair (the SLO-controller comparison).
    let faulted = serve(&model, &profiles, pool, &requests, &plan, &config);
    let adaptive = serve(
        &model,
        &profiles,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    let fixed = serve(
        &model,
        &profiles,
        pool,
        &requests,
        &FaultPlan::new(),
        &config.clone().fixed_batch(),
    );

    let mut report = String::new();
    let _ = writeln!(
        report,
        "serve probe: request seed {serve_seed}, fault seed {fault_seed}, \
         slo {slo_ms} ms, rate {rate_rps} rps, {n_requests} requests, \
         {fast}+{slow} devices (slow x{slow_factor})"
    );
    let _ = writeln!(
        report,
        "model: {} h{SERVE_HIDDEN}, trained 2 megas, checkpoint roundtrip",
        ds.name
    );
    for e in plan.events() {
        let _ = writeln!(report, "plan: {e:?}");
    }
    render(&mut report, "adaptive under faults", &faulted);
    render(&mut report, "adaptive", &adaptive);
    render(&mut report, "fixed-batch baseline", &fixed);
    let a99 = adaptive.fleet_latency().p99.value().unwrap_or(0.0);
    let f99 = fixed.fleet_latency().p99.value().unwrap_or(0.0);
    let _ = writeln!(
        report,
        "slo controller: adaptive p99 {:.9} us vs fixed {:.9} us (fixed/adaptive {:.4})",
        a99 * 1e6,
        f99 * 1e6,
        f99 / a99
    );
    let _ = writeln!(
        report,
        "degradation: faulted run served {} of {} requests, lost {}",
        faulted.served,
        requests.len(),
        faulted.lost
    );

    print!("{report}");
    let path = env.write_artifact(
        &format!("serve_probe_{serve_seed}_{fault_seed}.txt"),
        &report,
    );
    eprintln!("wrote {path:?}");
}
