//! The determinism probes: seven scenarios behind one entry point.
//!
//! A probe runs one slice of the system end to end and renders everything
//! observable about it — fault log, per-merge rows, FNV checksums of traces,
//! models and predictions — to a deterministic text report. ci.sh's gate
//! table runs `probe <scenario>` at `ASGD_THREADS=1` and `=8` (separate
//! processes, so each gets its own worker pool) and in the debug profile,
//! and byte-diffs the reports against each other and the checked-in golden
//! under `results/`: a report must be a pure function of its seeds. A diff
//! is a determinism regression; the seeds in the header reproduce it.
//!
//! | scenario | pins (DESIGN.md section) | knobs on top of [`Env`] |
//! |---|---|---|
//! | `chaos` | a faulted run, f32 and bf16 merge arena ("Fault model & degradation semantics") | `ASGD_FAULT_SEED` (7), `ASGD_FAULT_GPUS` (4), `ASGD_PRECISION` |
//! | `cluster` | the hierarchical multi-node merge, whole-server losses and inter-node stalls in the plan ("Cluster topology & hierarchical merge") | `ASGD_FAULT_SEED` (7), `ASGD_SERVERS` (4), `ASGD_DEVICES_PER_SERVER` (4), `ASGD_INTER` (`ring`/`tree`), `ASGD_PRECISION` |
//! | `sampled` | the LSH-sampled training path ("Sampled softmax & sparse output path") | `ASGD_LSH_TABLES`, `ASGD_NEG_SAMPLES` (16 here) |
//! | `sparse_merge` | sparse delta merge == dense merge, bit for bit, survivor-subset unions included ("Sparse delta merge") | `ASGD_FAULT_SEED` (7, or `none`), `ASGD_SERVERS` (1 = flat), `ASGD_DEVICES_PER_SERVER` (4), `ASGD_PRECISION` |
//! | `serve` | train → checkpoint → serve, faulted and clean ("Serving subsystem") | `ASGD_SERVE_SEED` (11), `ASGD_FAULT_SEED` (7), `ASGD_SLO_MS`, `ASGD_SERVE_RPS`, `ASGD_SERVE_REQUESTS` |
//! | `autoscale` | the multi-tenant fleet: registry dedup, cache, hedging, autoscaling, faults ("Serving subsystem") | see [`crate::fleet::FleetKnobs`] |
//! | `kernel` | blocked GEMM/SpMM micro-kernels, fused epilogues, bf16 conversions ("Kernel layer") | — |
//!
//! Artifact names carry what selects a golden: seeds, a cluster's `SxM`
//! shape, and a `_bf16` suffix off the default storage tier.

mod kernel;
mod serving;
mod training;

use crate::{Env, Knobs};
use asgd_gpusim::FaultPlan;
use asgd_tensor::Precision;
use std::fmt::Write as _;

/// The scenarios [`run`] knows.
pub const SCENARIOS: [&str; 7] = [
    "chaos",
    "cluster",
    "sampled",
    "sparse_merge",
    "serve",
    "autoscale",
    "kernel",
];

/// A declared probe: every knob resolved (a typo aborts before any work is
/// done) and the artifact named; the work itself is still to run.
pub struct Probe<'a> {
    /// File name of the report under the output directory.
    pub artifact: String,
    report: Box<dyn FnOnce() -> String + 'a>,
}

/// Resolves `scenario`'s knobs through `k` and names its artifact.
///
/// # Errors
/// An unknown scenario, listing the valid ones.
///
/// # Panics
/// Panics when a knob is set but does not parse (see [`crate::knob`]).
pub fn declare<'a>(scenario: &str, env: &'a Env, k: Knobs) -> Result<Probe<'a>, String> {
    Ok(match scenario {
        "chaos" | "cluster" | "sampled" | "sparse_merge" => training::declare(scenario, env, k),
        "serve" => serving::serve(env, k),
        "autoscale" => serving::autoscale(env, k),
        "kernel" => Probe {
            artifact: "kernel_probe.txt".into(),
            report: Box::new(kernel::report),
        },
        unknown => {
            return Err(format!(
                "unknown scenario {unknown:?}; the scenarios are: {}",
                SCENARIOS.join(", ")
            ))
        }
    })
}

/// Runs `scenario`, returning `(artifact name, report)`. Errors and panics as
/// [`declare`].
pub fn run(scenario: &str, env: &Env, k: Knobs) -> Result<(String, String), String> {
    let probe = declare(scenario, env, k)?;
    Ok((probe.artifact, (probe.report)()))
}

/// Artifact-name suffix of a storage tier: the default tier keeps the plain
/// name, so the two tiers keep separate goldens.
fn suffix(precision: Precision) -> &'static str {
    match precision {
        Precision::F32 => "",
        Precision::Bf16 => "_bf16",
    }
}

/// One `plan:` line per scheduled fault.
fn plan_lines(out: &mut String, plan: &FaultPlan) {
    for e in plan.events() {
        let _ = writeln!(out, "plan: {e:?}");
    }
}

/// One `<what> fnv 0x…` checksum line.
fn fnv_line(out: &mut String, what: &str, fnv: u64) {
    let _ = writeln!(out, "{what} fnv {fnv:#018x}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A knob table the way a ci.sh gate row spells it.
    fn row(vars: &str) -> impl Fn(&str) -> Option<String> + '_ {
        move |name| {
            vars.split_whitespace()
                .filter_map(|v| v.split_once('='))
                .find_map(|(k, v)| (k == name).then(|| v.to_string()))
        }
    }

    /// Every row of ci.sh's gate table names the file its scenario writes
    /// for that row's knobs — a renamed artifact, or a typo in the table,
    /// would otherwise leave a gate diffing a stale file.
    #[test]
    fn artifact_names_match_the_ci_gate_table() {
        // Rows as bash sees them: continuation lines joined, the shared
        // `cluster=(…)` array spliced in where a row expands it.
        let ci = include_str!("../../../../ci.sh").replace("\\\n", " ");
        let cluster = ci.split_once("cluster=(").expect("cluster=(…)").1;
        let cluster = cluster.split_once(')').expect("cluster=(…)").0;
        let ci = ci.replace("\"${cluster[@]}\"", &cluster.replace('\n', " "));
        let env = Env::smoke();
        let mut rows = 0;
        for line in ci.lines().filter_map(|l| l.trim().strip_prefix("gate ")) {
            let mut words = line.split_whitespace().skip_while(|w| w.starts_with("--"));
            let (scenario, file) = (words.next().unwrap(), words.next().unwrap());
            let vars: Vec<&str> = words.collect();
            let probe = declare(scenario, &env, Knobs(&row(&vars.join(" ")))).unwrap();
            assert_eq!(&probe.artifact, file, "gate {line}");
            rows += 1;
        }
        assert_eq!(rows, 21, "ci.sh's gate table moved or changed shape");
        // Off the table: a disabled fault plan names itself too.
        let probe = declare("sparse_merge", &env, Knobs(&row("ASGD_FAULT_SEED=none"))).unwrap();
        assert_eq!(probe.artifact, "sparse_merge_probe_none.txt");
    }

    #[test]
    fn unknown_scenarios_are_errors_listing_the_valid_ones() {
        let err = run("chaos_probe", &Env::smoke(), Knobs(&|_| None)).unwrap_err();
        assert!(err.contains("\"chaos_probe\""), "{err}");
        for s in SCENARIOS {
            assert!(err.contains(s), "{err}");
        }
    }

    /// Every training scenario renders the same report at 1 and 8 worker
    /// threads — ci.sh's cross-process gate, in-process at smoke scale.
    #[test]
    fn training_reports_are_thread_invariant() {
        let env = Env::smoke();
        for (scenario, vars) in [
            ("chaos", "ASGD_FAULT_GPUS=3"),
            (
                "cluster",
                "ASGD_SERVERS=3 ASGD_DEVICES_PER_SERVER=2 ASGD_PRECISION=bf16",
            ),
            ("sampled", ""),
            ("sparse_merge", "ASGD_SERVERS=2 ASGD_DEVICES_PER_SERVER=2"),
        ] {
            let render = |threads| {
                asgd_tensor::parallel::override_threads(threads);
                let out = run(scenario, &env, Knobs(&row(vars))).unwrap();
                asgd_tensor::parallel::override_threads(0);
                out
            };
            let (name, one) = render(1);
            assert_eq!(render(8), (name, one.clone()), "{scenario}");
            assert!(one.contains("merge 2 time"), "{scenario}: {one}");
            assert!(one.contains("model fnv 0x"), "{scenario}: {one}");
        }
    }

    /// The kernel probe with every AVX2 leaf switched off renders the
    /// checked-in golden byte for byte: the portable twins are held to the
    /// same report as the leaves ci.sh's `kernel` rows run, in-process.
    #[test]
    fn kernel_probe_on_the_portable_path_matches_the_golden() {
        asgd_tensor::kernels::force_portable(true);
        let out = std::panic::catch_unwind(|| run("kernel", &Env::smoke(), Knobs(&|_| None)));
        asgd_tensor::kernels::force_portable(false);
        let (name, report) = out.expect("kernel probe panicked").unwrap();
        assert_eq!(name, "kernel_probe.txt");
        assert!(
            report == include_str!("../../../../results/kernel_probe.txt"),
            "the portable path's kernel report differs from results/kernel_probe.txt"
        );
    }

    /// A typo'd knob aborts at declaration, naming the variable and the text.
    #[test]
    fn unparsable_scenario_knobs_abort_before_any_work() {
        let err = std::panic::catch_unwind(|| {
            let _ = declare("cluster", &Env::smoke(), Knobs(&row("ASGD_INTER=mesh")));
        })
        .unwrap_err();
        let m = err.downcast_ref::<String>().expect("panic message");
        assert!(m.contains("ASGD_INTER") && m.contains("mesh"), "{m}");
    }
}
