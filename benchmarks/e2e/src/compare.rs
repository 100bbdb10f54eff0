//! `asgd-e2e compare A.json B.json`: applies the end-to-end bounds to two
//! suite files, one row per (workload, metric).

use crate::json::Json;
use crate::metrics::{Bound, E2eDef, E2E};
use crate::stats::Summary;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the two sets cannot
    /// be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against the base A. The bound and the spread are both taken as a
/// share of A's median (`Bound::Rel`) or in the metric's unit (`Bound::Abs`).
pub fn verdict(def: &E2eDef, a: &Summary, b: &Summary) -> Verdict {
    let (scale, bound) = match def.bound {
        Bound::Rel(r) => (a.median.abs(), r),
        Bound::Abs(x) => (1.0, x),
    };
    let spread = a.iqr().max(b.iqr()) / scale;
    if spread > bound {
        // Still decided when every run of B reads better than every run of A.
        let all_better = if def.higher_is_better {
            b.min > a.max
        } else {
            b.max < a.min
        };
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if def.higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    } / scale;
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub verdict: Verdict,
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let f = |k: &str| metric.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: f("n")? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

/// One row for every (workload, end-to-end metric) both suites hold; a pair
/// only one of them holds is an error, since a metric that vanished must not
/// pass as unchanged.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |s: &Json| {
        s.get("workloads")
            .map(|w| w.entries().to_vec())
            .ok_or("suite file has no \"workloads\"")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, ra) in &wa {
        let rb = &wb
            .iter()
            .find(|(n, _)| n == name)
            .ok_or(format!("workload {name} is missing from B"))?
            .1;
        for def in &E2E {
            let get = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(summary_of)
            };
            match (get(ra), get(rb)) {
                (Some(sa), Some(sb)) => rows.push(Row {
                    workload: name.clone(),
                    metric: def.name,
                    unit: def.unit,
                    verdict: verdict(def, &sa, &sb),
                    a: sa,
                    b: sb,
                }),
                (None, None) => {}
                _ => return Err(format!("{name}: {} is in only one suite", def.name)),
            }
        }
    }
    if let Some((name, _)) = wb.iter().find(|(n, _)| !wa.iter().any(|(m, _)| m == n)) {
        return Err(format!("workload {name} is missing from A"));
    }
    Ok(rows)
}

/// Six decimals for everyday magnitudes, scientific notation beyond them.
fn num(x: f64) -> String {
    if x == 0.0 || (1e-3..1e9).contains(&x.abs()) {
        format!("{x:.6}")
    } else {
        format!("{x:.5e}")
    }
}

/// The table: both medians, both quartile ranges, the ratio with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload metric unit A.median [A.q1..A.q3] B.median [B.q1..B.q3] B/A verdict"
    );
    for r in rows {
        let ratio = if r.a.median == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:.4}", r.b.median / r.a.median)
        };
        let _ = writeln!(
            out,
            "{} {} {} {} [{}..{}] {} [{}..{}] {ratio} (base A = {}) {}",
            r.workload,
            r.metric,
            r.unit,
            num(r.a.median),
            num(r.a.q1),
            num(r.a.q3),
            num(r.b.median),
            num(r.b.q1),
            num(r.b.q3),
            num(r.a.median),
            r.verdict.word()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} rows: {} ok, {} regressed, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Stat;

    fn def(name: &str) -> &'static E2eDef {
        E2E.iter().find(|d| d.name == name).expect("known metric")
    }

    fn around(median: f64, half_iqr: f64) -> Summary {
        Summary {
            n: 5,
            min: median - 2.0 * half_iqr,
            q1: median - half_iqr,
            median,
            q3: median + half_iqr,
            max: median + 2.0 * half_iqr,
        }
    }

    #[test]
    fn relative_bound_higher_is_better() {
        let d = def("train_samples_per_s"); // -10 %
        let a = around(1000.0, 10.0);
        assert_eq!(verdict(d, &a, &around(950.0, 10.0)), Verdict::Ok);
        assert_eq!(verdict(d, &a, &around(890.0, 10.0)), Verdict::Regressed);
        assert_eq!(verdict(d, &a, &around(2000.0, 10.0)), Verdict::Ok);
    }

    #[test]
    fn relative_bound_lower_is_better() {
        let d = def("peak_rss_mb"); // +10 %
        let a = around(100.0, 0.5);
        assert_eq!(verdict(d, &a, &around(109.0, 0.5)), Verdict::Ok);
        assert_eq!(verdict(d, &a, &around(111.0, 0.5)), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_run() {
        let d = def("train_samples_per_s");
        let a = around(1000.0, 80.0); // IQR 160 = 16 % > 10 %
        assert_eq!(verdict(d, &a, &around(1000.0, 5.0)), Verdict::Unresolved);
        assert_eq!(verdict(d, &a, &around(800.0, 5.0)), Verdict::Unresolved);
        // B's slowest run (1380) beats A's fastest (1160).
        assert_eq!(verdict(d, &a, &around(1400.0, 10.0)), Verdict::Ok);
        // The wide spread may be B's own.
        assert_eq!(verdict(d, &around(1000.0, 5.0), &a), Verdict::Unresolved);
        // Lower-is-better twin of the every-run rule.
        let d = def("setup_s");
        let a = around(10.0, 2.0);
        assert_eq!(verdict(d, &a, &around(4.0, 0.5)), Verdict::Ok);
        assert_eq!(verdict(d, &a, &around(9.0, 0.5)), Verdict::Unresolved);
    }

    #[test]
    fn absolute_bounds_and_any_worsening() {
        let d = def("best_top1"); // -0.01 absolute
        let one = Summary::single;
        assert_eq!(verdict(d, &one(0.30), &one(0.295)), Verdict::Ok);
        assert_eq!(verdict(d, &one(0.30), &one(0.28)), Verdict::Regressed);
        let d = def("failed_share"); // any increase
        assert_eq!(verdict(d, &one(0.0), &one(0.0)), Verdict::Ok);
        assert_eq!(verdict(d, &one(0.0), &one(0.001)), Verdict::Regressed);
        let d = def("determinism_ok"); // any drop
        assert_eq!(verdict(d, &one(1.0), &one(1.0)), Verdict::Ok);
        assert_eq!(verdict(d, &one(1.0), &one(0.0)), Verdict::Regressed);
        let d = def("sim_s_per_mega"); // +1 %, exact repeat expected
        assert_eq!(verdict(d, &one(2.0), &one(2.0)), Verdict::Ok);
        assert_eq!(verdict(d, &one(2.0), &one(2.03)), Verdict::Regressed);
    }

    fn suite(rate: f64, rss: f64) -> Json {
        let metrics = Json::obj([
            (
                "train_samples_per_s",
                Stat::timed("x", "1/s", &[rate, rate * 1.01]).to_json(),
            ),
            ("peak_rss_mb", Stat::single("x", "MB", rss).to_json()),
        ]);
        Json::obj([(
            "workloads",
            Json::obj([("train_dense_compute", Json::obj([("metrics", metrics)]))]),
        )])
    }

    #[test]
    fn compare_walks_suites_and_renders_ratio_with_base() {
        let rows = compare(&suite(1000.0, 50.0), &suite(800.0, 50.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "train_samples_per_s");
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        let text = render(&rows);
        assert!(
            text.contains("0.8000 (base A = 1005.000000) regressed"),
            "{text}"
        );
        assert!(text.contains("2 rows: 1 ok, 1 regressed, 0 unresolved"));
    }

    #[test]
    fn a_metric_in_only_one_suite_is_an_error() {
        let a = suite(1000.0, 50.0);
        let Json::Obj(mut top) = suite(1000.0, 50.0) else {
            unreachable!()
        };
        top[0].1 = Json::obj([(
            "train_dense_compute",
            Json::obj([("metrics", Json::obj::<String>([]))]),
        )]);
        assert!(compare(&a, &Json::Obj(top)).is_err());
        assert!(compare(&a, &Json::obj([("workloads", Json::obj::<String>([]))])).is_err());
    }
}
