//! The metric tables: every end-to-end metric with its unit, direction and
//! regression bound, every per-layer metric with its unit, and the record a
//! run writes.
//!
//! Two clocks, always labelled: a metric whose name starts `sim_` or
//! contains `.sim_` / `_sim_` counts virtual device seconds or simulated bytes
//! from `asgd-gpusim` (a pure function of the seeds; the cost model is
//! unvalidated against real GPUs, so no error figure is given). Every other
//! time is host wall clock.

use crate::json::Json;
use crate::stats::Summary;
use std::collections::BTreeMap;

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base median.
    Rel(f64),
    /// Absolute amount, in the metric's unit (0 = any worsening).
    Abs(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applies {
    Train,
    Serve,
    All,
}

#[derive(Debug, Clone, Copy)]
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Bound,
    pub applies: Applies,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: Bound,
    applies: Applies,
) -> E2eDef {
    E2eDef {
        name,
        unit,
        higher_is_better,
        bound,
        applies,
    }
}

/// The twelve end-to-end metrics. A metric is reported only on the workloads
/// it applies to: absent, never zero.
pub const E2E: [E2eDef; 12] = [
    e2e("setup_s", "s", false, Bound::Rel(0.25), Applies::All),
    e2e(
        "train_samples_per_s",
        "1/s",
        true,
        Bound::Rel(0.10),
        Applies::Train,
    ),
    e2e(
        "sim_s_per_mega",
        "s",
        false,
        Bound::Rel(0.01),
        Applies::Train,
    ),
    e2e("best_top1", "share", true, Bound::Abs(0.01), Applies::Train),
    e2e(
        "serve_requests_per_s",
        "1/s",
        true,
        Bound::Rel(0.10),
        Applies::Serve,
    ),
    e2e(
        "serve_sim_p50_us",
        "us",
        false,
        Bound::Rel(0.01),
        Applies::Serve,
    ),
    e2e(
        "serve_sim_p99_us",
        "us",
        false,
        Bound::Rel(0.01),
        Applies::Serve,
    ),
    e2e(
        "serve_sim_device_s",
        "s",
        false,
        Bound::Rel(0.01),
        Applies::Serve,
    ),
    e2e(
        "slo_met_share",
        "share",
        true,
        Bound::Abs(0.005),
        Applies::Serve,
    ),
    e2e(
        "failed_share",
        "share",
        false,
        Bound::Abs(0.0),
        Applies::All,
    ),
    e2e("peak_rss_mb", "MB", false, Bound::Rel(0.10), Applies::All),
    e2e(
        "determinism_ok",
        "count",
        true,
        Bound::Abs(0.0),
        Applies::All,
    ),
];

/// Names of the end-to-end metrics a workload of `kind` reports.
pub fn e2e_names(kind: Applies) -> Vec<&'static str> {
    E2E.iter()
        .filter(|d| d.applies == Applies::All || d.applies == kind)
        .map(|d| d.name)
        .collect()
}

/// The end-to-end metrics of `BENCHMARK.json`, as `(name, unit,
/// higher_is_better, bound)`. Its contract wants every metric on every
/// workload and never zero, so the per-kind pairs above are folded into one
/// name each (`items_per_s` is `train_samples_per_s` or
/// `serve_requests_per_s`; `sim_us_per_item` is the simulated seconds of the
/// run, or its simulated device-seconds, per sample or request), and the two
/// that read 0 or a constant at the baseline (`failed_share`,
/// `determinism_ok`) travel as `failed` / `correct` of the result line.
///
/// The bounds are wider than `compare`'s because the driver measures each
/// metric's spread over ten *different* input seeds and rejects a benchmark
/// whose spread exceeds the bound: on the 2-core sandbox that spread was
/// 2-5 % of `items_per_s` in quiet phases and 10-20 % while a neighbour was
/// busy (set-up time moved 25-35 % in the same minutes), 5 % of the fleet's
/// `sim_us_per_item` and 5 % of its `peak_rss_mb`.
pub const CONTRACT_E2E: [(&str, &str, bool, f64); 4] = [
    ("setup_s", "s", false, 0.25),
    ("items_per_s", "1/s", true, 0.25),
    ("sim_us_per_item", "us", false, 0.15),
    ("peak_rss_mb", "MB", false, 0.15),
];

/// Seconds one run of the `BENCHMARK.json` command measures.
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
pub fn manifest() -> Json {
    let better = |higher: bool| Json::str(if higher { "higher" } else { "lower" });
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmarks/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmarks")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Json::obj([("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                CONTRACT_E2E
                    .iter()
                    .map(|&(name, unit, higher, bound)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", better(higher)),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, higher)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", better(higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `(name, unit, higher_is_better)` of every per-layer metric, layer = crate.
/// A workload that never enters a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("data.generate.busy_s", "s", false),
    ("data.next_batch.busy_s", "s", false),
    ("data.next_batch.calls", "count", false),
    ("sparse.spmm.busy_s", "s", false),
    ("sparse.spmm.gflops", "GFLOP/s", true),
    ("sparse.spmm.nnz_per_batch", "count", false),
    ("sparse.spmm.nnz_per_batch_max", "count", false),
    ("sparse.spmm_tn_acc.busy_s", "s", false),
    ("sparse.spmm_tn_acc.gflops", "GFLOP/s", true),
    ("tensor.gemm.busy_s", "s", false),
    ("tensor.gemm.gflops", "GFLOP/s", true),
    ("tensor.gemm.peak_share", "share", true),
    ("tensor.gemm_tn.busy_s", "s", false),
    ("tensor.gemm_tn.gflops", "GFLOP/s", true),
    ("tensor.gemm_tn.peak_share", "share", true),
    ("tensor.gemm_nt.busy_s", "s", false),
    ("tensor.gemm_nt.gflops", "GFLOP/s", true),
    ("tensor.gemm_nt.peak_share", "share", true),
    ("tensor.gemm_nt_gather.busy_s", "s", false),
    ("tensor.gemm_nt_gather.gflops", "GFLOP/s", true),
    ("tensor.gemm_nt_gather.peak_share", "share", true),
    ("tensor.gemm_nn_gather.busy_s", "s", false),
    ("tensor.gemm_nn_gather.gflops", "GFLOP/s", true),
    ("tensor.gemm_nn_gather.peak_share", "share", true),
    ("tensor.bf16_narrow.busy_s", "s", false),
    ("tensor.bf16_narrow.gbs", "GB/s", true),
    ("tensor.bf16_widen.busy_s", "s", false),
    ("tensor.bf16_widen.gbs", "GB/s", true),
    ("model.train_step.busy_s", "s", false),
    ("model.train_step.calls", "count", false),
    ("model.train_step.unattributed_share", "share", false),
    ("model.export_flat.busy_s", "s", false),
    ("model.export_delta.busy_s", "s", false),
    ("model.import_flat.busy_s", "s", false),
    ("model.sync_w2t.busy_s", "s", false),
    ("model.eval.busy_s", "s", false),
    ("model.eval.calls", "count", false),
    ("model.predict_topk.busy_s", "s", false),
    ("model.predict_topk.calls", "count", false),
    ("slide.rebuild.busy_s", "s", false),
    ("slide.rebuild.calls", "count", false),
    ("slide.select.busy_s", "s", false),
    ("slide.select.calls", "count", false),
    ("slide.select.candidates_mean", "count", false),
    ("collective.allreduce.busy_s", "s", false),
    ("collective.allreduce.calls", "count", false),
    ("collective.allreduce.sim_s", "s", false),
    ("collective.allreduce.sim_bytes", "B", false),
    ("collective.union_rows.busy_s", "s", false),
    ("collective.scatter_delta.busy_s", "s", false),
    ("collective.gather_delta.busy_s", "s", false),
    ("collective.sparse.union_density", "share", false),
    ("collective.sparse.fallbacks", "count", false),
    ("collective.sparse.sim_bytes_ratio", "ratio", false),
    ("core.merge_weights.busy_s", "s", false),
    ("core.apply_global.busy_s", "s", false),
    ("core.redistribute.busy_s", "s", false),
    ("core.run.fixed_s", "s", false),
    ("core.run.per_mega_s", "s", false),
    ("core.run.unattributed_s", "s", false),
    ("core.sched.update_imbalance", "ratio", false),
    ("core.chaos.redispatched_batches", "count", false),
    ("core.chaos.discarded_batches", "count", false),
    ("core.chaos.serial_fallback_merges", "count", false),
    ("core.chaos.lost_devices", "count", false),
    ("serve.loadgen.busy_s", "s", false),
    ("serve.registry.register.busy_s", "s", false),
    ("serve.registry.dedup_ratio", "ratio", true),
    ("serve.batch.select.busy_s", "s", false),
    ("serve.batch.mean_size", "count", true),
    ("serve.cache.lookup.busy_s", "s", false),
    ("serve.cache.insert.busy_s", "s", false),
    ("serve.cache.hit_rate", "share", true),
    ("serve.cache.evictions", "count", false),
    ("serve.hedge.issued", "count", false),
    ("serve.hedge.wasted_share", "share", false),
    ("serve.autoscale.decisions", "count", false),
    ("serve.queue.sim_wait_p50_us", "us", false),
    ("serve.queue.sim_wait_p99_us", "us", false),
    ("serve.refused", "count", false),
    ("serve.run.unattributed_s", "s", false),
    ("host.peak_gflops", "GFLOP/s", true),
    ("host.stream_gbs", "GB/s", true),
    ("gpusim.calib.spmm", "ratio", false),
    ("gpusim.calib.gemm_nt", "ratio", false),
    ("gpusim.calib.allreduce", "ratio", false),
    ("trace.replay_wall_s", "s", false),
    ("trace.overhead_share", "share", false),
];

/// Unit of a per-layer metric, if the name is in the table.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1)
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Stat {
    pub fn timed(name: &str, unit: &'static str, values: &[f64]) -> Self {
        Stat {
            name: name.to_string(),
            unit,
            summary: Summary::of(values),
        }
    }

    pub fn single(name: &str, unit: &'static str, value: f64) -> Self {
        Stat {
            name: name.to_string(),
            unit,
            summary: Summary::single(value),
        }
    }

    /// `name unit median q1 q3 min max n`, one line per metric.
    pub fn line(&self) -> String {
        let s = &self.summary;
        format!(
            "{} {} {} q1={} q3={} min={} max={} n={}",
            self.name, self.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
        )
    }

    pub fn to_json(&self) -> Json {
        let s = &self.summary;
        Json::obj([
            ("unit", Json::str(self.unit)),
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            ("n", Json::Num(s.n as f64)),
        ])
    }

    /// `{"value": median, "unit": unit}` — the contract's result line.
    pub fn to_contract_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.summary.median)),
            ("unit", Json::str(self.unit)),
        ])
    }
}

/// The per-layer values of one traced run. Every name must be in
/// [`PER_LAYER`]; a name never set reads 0 (the workload did not enter that
/// layer).
#[derive(Debug, Default)]
pub struct Sheet(BTreeMap<&'static str, f64>);

impl Sheet {
    /// # Panics
    /// Panics on a name outside [`PER_LAYER`]: a typo must not become a
    /// silently missing metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(known.0, value);
    }

    /// Sets `name` if the table has it (span names without a metric of that
    /// suffix are skipped).
    pub fn set_if_listed(&mut self, name: &str, value: f64) {
        if layer_unit(name).is_some() {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, in table order.
    pub fn stats(&self) -> Vec<Stat> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Stat::single(name, unit, self.get(name)))
            .collect()
    }
}

/// One correctness check the benchmark makes on the program's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Check { name, ok, detail }
    }
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16 characters.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = E2E
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in names {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        for (name, unit, _, bound) in CONTRACT_E2E {
            assert!(valid_name(name) && valid_unit(unit));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest_and_within_the_contract() {
        let text = include_str!("../../../BENCHMARK.json");
        assert_eq!(
            Json::parse(text).unwrap(),
            manifest(),
            "run `asgd-e2e manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
        for (name, why) in crate::workloads::WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let setup = CONTRACT_E2E[0];
        assert_eq!((setup.0, setup.1, setup.2), ("setup_s", "s", false));
        assert!(
            CONTRACT_E2E.iter().all(|m| m.3 <= setup.3),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn sheet_defaults_to_zero_and_refuses_unknown_names() {
        let mut sheet = Sheet::default();
        sheet.set("host.peak_gflops", 12.5);
        sheet.set_if_listed("replay.cycle.busy_s", 1.0);
        let stats = sheet.stats();
        assert_eq!(stats.len(), PER_LAYER.len());
        assert_eq!(sheet.get("host.peak_gflops"), 12.5);
        assert_eq!(sheet.get("slide.rebuild.busy_s"), 0.0);
        assert!(std::panic::catch_unwind(move || sheet.set("host.peak_gflop", 1.0)).is_err());
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("core.run.per_mega_s"));
        assert!(valid_name("9lives-x_y.z"));
        assert!(!valid_unit("requests per s"));
        assert!(valid_unit("GFLOP/s"));
    }

    #[test]
    fn sim_metrics_are_recognisable_by_name() {
        let sim = |n: &str| n.starts_with("sim_") || n.contains(".sim_") || n.contains("_sim_");
        for d in E2E {
            let expect = matches!(
                d.name,
                "sim_s_per_mega" | "serve_sim_p50_us" | "serve_sim_p99_us" | "serve_sim_device_s"
            );
            assert_eq!(sim(d.name), expect, "{}", d.name);
        }
    }
}
