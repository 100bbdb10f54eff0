//! The two serving scenarios over the testbed of [`crate::fleet`] (the
//! shape in which micro-batch size is the latency knob).
//!
//! `serve`: one train → checkpoint → serve session on a 2-fast/2-slow
//! server, served three ways over the same stream — adaptive under faults
//! (the chaos artifact: degradation, zero loss), adaptive and fixed-batch
//! fault-free (the SLO-controller comparison).
//!
//! `autoscale`: the multi-tenant fleet (weight-dedup registry, Zipf
//! prediction cache, hedged requests) served four ways — elastic under
//! faults, elastic fault-free, and the two static baselines the autoscaler
//! is judged against: static-min (the elastic floor, misses the SLO at peak)
//! and static-max (every slot, holds the SLO but pays for idle troughs).
//!
//! Both reports carry the fault log, per-replica lines, exact latency
//! percentiles and an FNV checksum of every served prediction, so a diff
//! catches scheduler *and* numeric divergence alike.

use super::{fnv_line, plan_lines, suffix, Probe};
use crate::fleet::{serving_twin, FleetKnobs, FleetScenario, FLEET_B_MAX, FLEET_SLOTS};
use crate::{Env, Knobs};
use asgd_gpusim::profile::two_tier_server;
use asgd_gpusim::FaultPlan;
use asgd_serve::{
    open_loop_stream, serve as serve_session, FleetOutcome, LatencyStats, ServeConfig, ServeOutcome,
};
use asgd_stats::fnv::fnv1a_u32;
use asgd_tensor::Precision;
use std::fmt::Write as _;

/// Fast devices / slow devices / slow-tier speed factor of the `serve` server.
const TIERS: (usize, usize, f64) = (2, 2, 0.25);

pub(super) fn serve<'a>(env: &'a Env, k: Knobs) -> Probe<'a> {
    let serve_seed: u64 = k.get("ASGD_SERVE_SEED", 11);
    let slo_ms: f64 = k.get("ASGD_SLO_MS", 0.05);
    let fault_seed: u64 = k.get("ASGD_FAULT_SEED", 7);
    let rate_rps: f64 = k.get("ASGD_SERVE_RPS", 1.6e6);
    let n_requests: usize = k.get("ASGD_SERVE_REQUESTS", 2000);
    let report = move || {
        let (ds, mconfig, model) = serving_twin(env.seed, Precision::F32);
        let (fast, slow, slow_factor) = TIERS;
        let profiles: Vec<_> = two_tier_server(fast, slow, slow_factor)
            .into_iter()
            .map(|p| p.with_overhead_scale(0.05))
            .collect();
        let pool = &ds.test.features;
        let requests = open_loop_stream(serve_seed, n_requests, rate_rps, pool.rows());
        // ~3 controller windows cover the stream's early-to-mid life, so the
        // random plan's mid-run events (including the device loss) actually
        // fire.
        let plan = FaultPlan::random(fault_seed, profiles.len(), 3);
        let config = ServeConfig::paper_defaults(FLEET_B_MAX, slo_ms * 1e-3);
        // One faulted session (the chaos artifact: degradation + zero loss)
        // and one fault-free adaptive/fixed pair (the SLO-controller
        // comparison).
        let session = |plan: &FaultPlan, config: &ServeConfig| {
            serve_session(&model, &profiles, pool, &requests, plan, config)
        };
        let calm = FaultPlan::new();
        let faulted = session(&plan, &config);
        let adaptive = session(&calm, &config);
        let fixed = session(&calm, &config.clone().fixed_batch());

        let mut out = format!(
            "serve probe: request seed {serve_seed}, fault seed {fault_seed}, \
             slo {slo_ms} ms, rate {rate_rps} rps, {n_requests} requests, \
             {fast}+{slow} devices (slow x{slow_factor})\n"
        );
        let _ = writeln!(
            out,
            "model: {} h{}, trained 2 megas, checkpoint roundtrip",
            ds.name, mconfig.hidden
        );
        plan_lines(&mut out, &plan);
        render_serve(&mut out, "adaptive under faults", &faulted);
        render_serve(&mut out, "adaptive", &adaptive);
        render_serve(&mut out, "fixed-batch baseline", &fixed);
        let a99 = adaptive.fleet_latency().p99.value().unwrap_or(0.0);
        let f99 = fixed.fleet_latency().p99.value().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "slo controller: adaptive p99 {:.9} us vs fixed {:.9} us (fixed/adaptive {:.4})",
            a99 * 1e6,
            f99 * 1e6,
            f99 / a99
        );
        let _ = writeln!(
            out,
            "degradation: faulted run served {} of {} requests, lost {}",
            faulted.served,
            requests.len(),
            faulted.lost
        );
        out
    };
    Probe {
        artifact: format!("serve_probe_{serve_seed}_{fault_seed}.txt"),
        report: Box::new(report),
    }
}

fn quantiles_us(stats: &LatencyStats) -> (f64, f64, f64) {
    let v = |q: &asgd_stats::P2Quantile| q.value().unwrap_or(0.0) * 1e6;
    (v(&stats.p50), v(&stats.p95), v(&stats.p99))
}

/// A session's `[label]` line and what the faults did to it.
fn session_head(out: &mut String, label: &str, fault_log: &[String]) {
    let _ = writeln!(out, "[{label}]");
    for line in fault_log {
        let _ = writeln!(out, "fault: {line}");
    }
}

fn render_serve(out: &mut String, label: &str, o: &ServeOutcome) {
    session_head(out, label, &o.fault_log);
    for (i, r) in o.replicas.iter().enumerate() {
        let (p50, p95, p99) = quantiles_us(&r.stats);
        let _ = writeln!(
            out,
            "replica {i} {} alive={} served={} batches={} final_b={} \
             p50_us={p50:.9} p95_us={p95:.9} p99_us={p99:.9}",
            r.name, r.alive, r.served, r.batches, r.final_b
        );
        let _ = writeln!(out, "replica {i} trajectory {:?}", r.trajectory);
    }
    let (p50, p95, p99) = quantiles_us(&o.fleet_latency());
    let _ = writeln!(
        out,
        "fleet p50_us={p50:.9} p95_us={p95:.9} p99_us={p99:.9} \
         throughput_rps={:.3} makespan_s={:.9} served={} lost={}",
        o.throughput_rps(),
        o.makespan_s,
        o.served,
        o.lost
    );
    fnv_line(out, "predictions", fnv1a_u32(&o.predictions));
}

pub(super) fn autoscale<'a>(env: &'a Env, k: Knobs) -> Probe<'a> {
    let knobs = FleetKnobs::read(k);
    let artifact = format!(
        "autoscale_probe_{}_{}{}.txt",
        knobs.serve_seed,
        knobs.fault_seed,
        suffix(knobs.precision)
    );
    let report = move || {
        let scenario = FleetScenario::build(env.seed, knobs.clone());
        let plan = FaultPlan::random(knobs.fault_seed, FLEET_SLOTS, 3);
        let faulted = scenario.run(&scenario.auto_config(), &plan);
        let baselines = scenario.baselines();

        let registry = &scenario.registry;
        let d = registry.dedup_stats();
        let mut out = format!(
            "autoscale probe: load seed {}, fault seed {}, {} tenants on {} \
             versions, zipf {}, cache {}, hedge q {}, r_min {}, slo {} ms, \
             rate {} rps, {} requests, {} slots on {} servers, {}\n",
            knobs.serve_seed,
            knobs.fault_seed,
            knobs.tenants,
            registry.len(),
            knobs.zipf_s,
            knobs.cache_cap,
            knobs.hedge_q,
            knobs.r_min,
            knobs.slo_ms,
            knobs.base_rps,
            scenario.requests.len(),
            FLEET_SLOTS,
            scenario.topo.servers(),
            knobs.precision.name(),
        );
        let _ = writeln!(
            out,
            "registry: {} versions, {} distinct models, {} logical bytes, \
             {} stored bytes, dedup ratio {:.4}",
            registry.len(),
            registry.distinct_models(),
            d.bytes_logical,
            d.bytes_stored,
            d.ratio()
        );
        plan_lines(&mut out, &plan);
        render_fleet(&mut out, "elastic under faults", &faulted);
        for (label, outcome) in &baselines {
            render_fleet(&mut out, label, outcome);
        }
        let [(_, auto), (_, static_min), (_, static_max)] = &baselines;

        let slo = scenario.slo_s();
        let p99 = |o: &FleetOutcome| o.latency_percentile(0.99).unwrap_or(0.0);
        let verdict = |o: &FleetOutcome| if p99(o) <= slo { "met" } else { "MISSED" };
        let _ = writeln!(
            out,
            "slo {:.3} us: elastic p99 {:.9} us ({}), static-min p99 {:.9} us \
             ({}), static-max p99 {:.9} us ({})",
            slo * 1e6,
            p99(auto) * 1e6,
            verdict(auto),
            p99(static_min) * 1e6,
            verdict(static_min),
            p99(static_max) * 1e6,
            verdict(static_max),
        );
        let _ = writeln!(
            out,
            "cost: elastic {:.9} device-s vs static-min {:.9} vs static-max \
             {:.9} (static-max/elastic {:.4})",
            auto.device_seconds(),
            static_min.device_seconds(),
            static_max.device_seconds(),
            static_max.device_seconds() / auto.device_seconds()
        );
        let _ = writeln!(
            out,
            "degradation: faulted elastic served {} of {} requests, lost {}",
            faulted.served,
            scenario.requests.len(),
            faulted.lost
        );
        out
    };
    Probe {
        artifact,
        report: Box::new(report),
    }
}

fn render_fleet(out: &mut String, label: &str, o: &FleetOutcome) {
    session_head(out, label, &o.fault_log);
    for (i, r) in o.replicas.iter().enumerate() {
        let _ = writeln!(
            out,
            "slot {i} {} server={} alive={} commissioned={} served={} \
             batches={} final_b={} device_s={:.9}",
            r.name,
            r.server,
            r.alive,
            r.commissioned,
            r.served,
            r.batches,
            r.final_b,
            r.device_seconds
        );
    }
    if !o.trajectory.is_empty() {
        let traj: Vec<(u64, usize, usize)> = o
            .trajectory
            .iter()
            .map(|d| (d.window, d.depth, d.replicas))
            .collect();
        let _ = writeln!(out, "autoscale trajectory {traj:?}");
    }
    let _ = writeln!(
        out,
        "cache hits={} misses={} insertions={} evictions={} hit_rate={:.6}",
        o.cache.hits,
        o.cache.misses,
        o.cache.insertions,
        o.cache.evictions,
        o.cache.hit_rate()
    );
    let _ = writeln!(
        out,
        "hedge issued={} wins={} losses={} cancelled_s={:.9}",
        o.hedge.issued, o.hedge.wins, o.hedge.losses, o.hedge.cancelled_s
    );
    let p = |q: f64| o.latency_percentile(q).unwrap_or(0.0) * 1e6;
    let _ = writeln!(
        out,
        "fleet p50_us={:.9} p95_us={:.9} p99_us={:.9} throughput_rps={:.3} \
         makespan_s={:.9} device_s={:.9} served={} lost={}",
        p(0.50),
        p(0.95),
        p(0.99),
        o.throughput_rps(),
        o.makespan_s,
        o.device_seconds(),
        o.served,
        o.lost
    );
    fnv_line(out, "predictions", fnv1a_u32(&o.predictions));
}
