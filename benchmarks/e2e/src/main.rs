//! `asgd-e2e`: the repository's end-to-end + per-layer benchmark.
//!
//! ```text
//! asgd-e2e bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! asgd-e2e trace W [same flags]          the traced pass (= bench --trace 1)
//! asgd-e2e collect [--out DIR] [--sha S] [--rustc V] [--when T] [--record FILE]
//! asgd-e2e compare A.json B.json
//! asgd-e2e list                         workload names and reasons
//! asgd-e2e manifest                     BENCHMARK.json, from the metric tables
//! ```
//!
//! `bench` runs one workload in this process (so `peak_rss_mb` is its own
//! high-water mark) and ends its standard output with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod compare;
mod json;
mod metrics;
mod roofline;
mod servebench;
mod spans;
mod stats;
mod train;
mod workloads;

use json::Json;
use metrics::{Applies, Check, Sheet, Stat, CONTRACT_E2E};
use servebench::ServeWorkload;
use spans::Recorder;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{EngineWorkload, FleetWorkload, WORKLOADS};

struct BenchArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

/// Repetition plan: how often to set up, and the fewest timed repetitions.
struct Plan {
    setups: usize,
    min_reps: usize,
    seconds: f64,
}

impl BenchArgs {
    fn plan(&self) -> Plan {
        match (self.quick, self.trace) {
            // Smoke sizes: prove the path, not a number.
            (true, _) => Plan {
                setups: 1,
                min_reps: 3,
                seconds: 0.0,
            },
            // The traced pass needs the outcome and a wall time to set the
            // replay against, not a tight median.
            (false, true) => Plan {
                setups: 1,
                min_reps: 3,
                seconds: 0.0,
            },
            (false, false) => Plan {
                setups: 3,
                min_reps: 5,
                seconds: self.seconds,
            },
        }
    }
}

fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or(format!("{flag} needs a value"))
}

fn parse_bench(args: &[String], trace_default: bool) -> Result<BenchArgs, String> {
    let mut b = BenchArgs {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: trace_default,
        quick: false,
        out: PathBuf::from("benchmarks/out"),
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--workload" => b.workload = flag_value(args, &mut i, a)?.to_string(),
            "--seed" => {
                b.seed = flag_value(args, &mut i, a)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                b.seconds = flag_value(args, &mut i, a)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                b.trace = match flag_value(args, &mut i, a)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => b.quick = true,
            "--out" => b.out = PathBuf::from(flag_value(args, &mut i, a)?),
            w if !w.starts_with('-') && b.workload.is_empty() => b.workload = w.to_string(),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == b.workload) {
        return Err(format!(
            "unknown workload {:?}; one of: {}",
            b.workload,
            WORKLOADS.map(|(n, _)| n).join(" ")
        ));
    }
    if !(b.seconds >= 0.0 && b.seconds <= 600.0) {
        return Err("--seconds must be within 0..=600".into());
    }
    Ok(b)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one `bench` invocation measured.
struct Report {
    attempted: usize,
    failed: usize,
    checks: Vec<Check>,
    /// The metrics of this pass under their own names.
    stats: Vec<Stat>,
    /// The end-to-end pass's metrics under their `BENCHMARK.json` names; the
    /// traced pass's result line carries `stats` as they are.
    contract: Option<Vec<Stat>>,
}

/// Folds the per-kind end-to-end metrics into the names every workload has.
fn contract_e2e(stats: &[Stat], items: usize, sim_s: f64) -> Vec<Stat> {
    let find = |name: &str| stats.iter().find(|s| s.name == name).cloned();
    let rate = find("train_samples_per_s")
        .or_else(|| find("serve_requests_per_s"))
        .expect("every workload has a host throughput");
    let out = vec![
        find("setup_s").expect("every workload sets up"),
        Stat {
            name: "items_per_s".into(),
            ..rate
        },
        Stat::single("sim_us_per_item", "us", sim_s * 1e6 / items as f64),
        find("peak_rss_mb").expect("every workload has a peak RSS"),
    ];
    debug_assert!(out
        .iter()
        .zip(CONTRACT_E2E)
        .all(|(s, m)| s.name == m.0 && s.unit == m.1));
    out
}

/// A workload reports exactly the end-to-end metrics the table gives its
/// kind: one that does not apply is absent, never zero.
fn table_check(stats: &[Stat], kind: Applies) -> Check {
    let got: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
    let want = metrics::e2e_names(kind);
    Check::new(
        "metrics_match_table",
        got == want,
        format!(
            "{} end-to-end metrics reported, {} in the table",
            got.len(),
            want.len()
        ),
    )
}

/// Checks every traced pass makes on its own spans and sheet.
fn trace_checks(rec: &Recorder, sheet: &Sheet) -> Vec<Check> {
    let traced_wall = rec.elapsed_s();
    let self_sum: f64 = spans::self_times_ns(rec.spans()).iter().sum::<u64>() as f64 * 1e-9;
    let negative: Vec<String> = sheet
        .stats()
        .into_iter()
        .filter(|s| s.name.ends_with(".busy_s") && s.summary.median < 0.0)
        .map(|s| s.name)
        .collect();
    vec![
        Check::new(
            "busy_non_negative",
            negative.is_empty(),
            format!("negative: {negative:?}"),
        ),
        Check::new(
            "self_time_within_replay",
            self_sum <= traced_wall,
            format!("self time {self_sum:.6} s of {traced_wall:.6} s replay wall"),
        ),
    ]
}

/// What every traced pass does once its sheet holds the replay's rows: the
/// host and calibration rows, the checks on spans and sheet, the trace file.
fn finish_trace(
    a: &BenchArgs,
    rec: &Recorder,
    mut sheet: Sheet,
    config: &asgd_model::MlpConfig,
    batch: Option<&asgd_sparse::CsrMatrix>,
    checks: &mut Vec<Check>,
) -> Result<Vec<Stat>, String> {
    let batch = batch.ok_or("the replay ran no batch")?;
    sheet.set("host.stream_gbs", roofline::stream_gbs());
    let c = roofline::calibrate(config, batch);
    sheet.set("gpusim.calib.spmm", c.spmm);
    sheet.set("gpusim.calib.gemm_nt", c.gemm_nt);
    sheet.set("gpusim.calib.allreduce", c.allreduce);
    checks.extend(trace_checks(rec, &sheet));
    let path = a.out.join(format!("trace_{}.json", a.workload));
    write_file(
        &path,
        &spans::chrome_trace(rec.spans(), &a.workload).to_line(),
    )?;
    println!("# wrote {} ({} spans)", path.display(), rec.spans().len());
    Ok(sheet.stats())
}

fn bench_train(a: &BenchArgs) -> Result<Report, String> {
    let w = workloads::train_workload(&a.workload, a.quick).expect("a training name");
    let plan = a.plan();
    let m = train::measure(&w, a.seed, plan.seconds, plan.setups, plan.min_reps);
    let mut checks = train::checks(&a.workload, &w, &m);
    let stats = train::e2e_stats(&w, &m, peak_rss_mb());
    checks.push(table_check(&stats, Applies::Train));
    let (stats, contract) = if a.trace {
        let one_mega = stats::timed_n(3, || w.trainer(1).run(&m.ds)).1;
        let peak = roofline::peak_gflops();
        // Three replays: one to warm the allocator and the caches, one with
        // span recording off, one with it on.
        train::replay(&w, &m.ds, &m.result, &mut Recorder::new(false));
        let untraced = train::replay(&w, &m.ds, &m.result, &mut Recorder::new(false));
        let mut rec = Recorder::new(true);
        let counts = train::replay(&w, &m.ds, &m.result, &mut rec);

        let mut sheet = Sheet::default();
        sheet.set("host.peak_gflops", peak);
        sheet.set("data.generate.busy_s", median(&m.setup_s));
        sheet.set(
            "trace.overhead_share",
            counts.wall_s / untraced.wall_s - 1.0,
        );
        train::layer_sheet(
            &w,
            &m,
            median(&one_mega),
            rec.spans(),
            &counts,
            peak,
            &mut sheet,
        );
        let batch = counts.first_batch.as_ref();
        let layers = finish_trace(a, &rec, sheet, &w.mlp_config(), batch, &mut checks)?;
        (layers, None)
    } else {
        let sim_s = m.result.records.last().expect("merges recorded").sim_time;
        let contract = contract_e2e(&stats, w.asked_samples(), sim_s);
        (stats, Some(contract))
    };
    Ok(Report {
        attempted: w.asked_samples(),
        failed: train::failed_samples(&w, &m.result),
        checks,
        stats,
        contract,
    })
}

fn bench_serve<W: ServeWorkload>(a: &BenchArgs) -> Result<Report, String> {
    let plan = a.plan();
    let m = servebench::measure::<W>(a.seed, a.quick, plan.seconds, plan.setups, plan.min_reps);
    let mut checks = servebench::checks(&m);
    let stats = servebench::e2e_stats(&m, peak_rss_mb());
    checks.push(table_check(&stats, Applies::Serve));
    let (stats, contract) = if a.trace {
        let peak = roofline::peak_gflops();
        servebench::replay(&m, &mut Recorder::new(false));
        let untraced = servebench::replay(&m, &mut Recorder::new(false)).0;
        let mut rec = Recorder::new(true);
        let (counts, replay_matches) = servebench::replay(&m, &mut rec);
        checks.push(Check::new(
            "replay_reproduces_predictions",
            replay_matches,
            format!(
                "{} replayed micro-batches against the served predictions",
                counts.batches
            ),
        ));

        let mut sheet = Sheet::default();
        sheet.set("host.peak_gflops", peak);
        sheet.set(
            "trace.overhead_share",
            counts.wall_s / untraced.wall_s - 1.0,
        );
        servebench::layer_sheet(&m, rec.spans(), &counts, peak, &mut sheet);
        let (config, batch) = (m.w.model(0).config(), counts.first_batch.as_ref());
        let layers = finish_trace(a, &rec, sheet, config, batch, &mut checks)?;
        (layers, None)
    } else {
        let contract = contract_e2e(&stats, m.served.sent, m.served.device_s);
        (stats, Some(contract))
    };
    Ok(Report {
        attempted: m.served.sent,
        failed: m.served.sent - m.served.served,
        checks,
        stats,
        contract,
    })
}

fn bench(a: &BenchArgs) -> Result<bool, String> {
    let threads = asgd_tensor::parallel::num_threads();
    println!(
        "# {} seed {} trace {} quick {} ASGD_THREADS {threads}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        a.quick
    );
    let report = match a.workload.as_str() {
        "serve_engine_forward" => bench_serve::<EngineWorkload>(a)?,
        "serve_fleet_cached" => bench_serve::<FleetWorkload>(a)?,
        _ => bench_train(a)?,
    };
    for s in &report.stats {
        println!("{}", s.line());
    }
    for c in &report.checks {
        println!(
            "# check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let correct = report.checks.iter().all(|c| c.ok);
    let metrics_json = |stats: &[Stat], f: fn(&Stat) -> Json| {
        Json::Obj(stats.iter().map(|s| (s.name.clone(), f(s))).collect())
    };
    let record = Json::obj([
        ("workload", Json::str(&a.workload)),
        ("seed", Json::Num(a.seed as f64)),
        ("quick", Json::Bool(a.quick)),
        ("threads", Json::Num(threads as f64)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "checks",
            Json::Arr(
                report
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&report.stats, Stat::to_json)),
    ]);
    let suffix = if a.trace { ".layers.json" } else { ".json" };
    write_file(
        &a.out.join(format!("{}{suffix}", a.workload)),
        &(record.to_line() + "\n"),
    )?;
    // The result line: last on standard output.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            (
                "metrics",
                metrics_json(
                    report.contract.as_deref().unwrap_or(&report.stats),
                    Stat::to_contract_json,
                )
            ),
        ])
        .to_line()
    );
    Ok(correct)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Joins the per-workload records of one run into `DIR/suite.json`, and with
/// `--record` appends the run's medians and quartiles to the history file.
fn collect(args: &[String]) -> Result<(), String> {
    let mut out = PathBuf::from("benchmarks/out");
    let mut record: Option<PathBuf> = None;
    let (mut sha, mut rustc, mut when) = (String::new(), String::new(), String::new());
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--out" => out = PathBuf::from(flag_value(args, &mut i, a)?),
            "--record" => record = Some(PathBuf::from(flag_value(args, &mut i, a)?)),
            "--sha" => sha = flag_value(args, &mut i, a)?.to_string(),
            "--rustc" => rustc = flag_value(args, &mut i, a)?.to_string(),
            "--when" => when = flag_value(args, &mut i, a)?.to_string(),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let mut workloads = Vec::new();
    let mut threads = Json::Null;
    for (name, _) in WORKLOADS {
        let e2e_path = out.join(format!("{name}.json"));
        if !e2e_path.exists() {
            continue;
        }
        let e2e = read_json(&e2e_path)?;
        threads = e2e.get("threads").cloned().unwrap_or(Json::Null);
        let mut entry: Vec<(String, Json)> = e2e.entries().to_vec();
        let layers_path = out.join(format!("{name}.layers.json"));
        if layers_path.exists() {
            let layers = read_json(&layers_path)?;
            entry.push((
                "layers".into(),
                layers.get("metrics").cloned().unwrap_or(Json::Null),
            ));
            entry.push((
                "layer_checks".into(),
                layers.get("checks").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push((name.to_string(), Json::Obj(entry)));
    }
    if workloads.is_empty() {
        return Err(format!("no workload records in {}", out.display()));
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let head = vec![
        ("sha".to_string(), Json::str(sha)),
        ("when".to_string(), Json::str(when)),
        (
            "host".to_string(),
            Json::obj([
                ("cpu", Json::str(cpu)),
                ("nproc", Json::Num(nproc as f64)),
                ("rustc", Json::str(rustc)),
                ("asgd_threads", threads),
            ]),
        ),
    ];
    let mut suite = head.clone();
    suite.push(("workloads".into(), Json::Obj(workloads.clone())));
    let path = out.join("suite.json");
    write_file(&path, &(Json::Obj(suite).to_line() + "\n"))?;
    println!("# wrote {}", path.display());

    if let Some(history) = record {
        // One row: the end-to-end medians and quartiles of every workload.
        let slim = workloads
            .into_iter()
            .map(|(name, w)| {
                let metrics = w
                    .get("metrics")
                    .map_or(Vec::new(), |m| m.entries().to_vec());
                let slim = metrics.into_iter().map(|(k, v)| {
                    let keep = ["unit", "median", "q1", "q3", "n"];
                    let fields = v
                        .entries()
                        .iter()
                        .filter(|(f, _)| keep.contains(&f.as_str()));
                    (k, Json::Obj(fields.cloned().collect()))
                });
                (name, Json::Obj(slim.collect()))
            })
            .collect();
        let mut row = head;
        row.push(("workloads".into(), Json::Obj(slim)));
        let mut text = std::fs::read_to_string(&history).unwrap_or_default();
        text.push_str(&Json::Obj(row).to_line());
        text.push('\n');
        write_file(&history, &text)?;
        println!("# appended a row to {}", history.display());
    }
    Ok(())
}

fn run(args: &[String]) -> Result<bool, String> {
    let Some(cmd) = args.first() else {
        return Err("usage: asgd-e2e bench|trace|collect|compare|list|manifest ...".into());
    };
    match cmd.as_str() {
        "bench" => bench(&parse_bench(&args[1..], false)?),
        "trace" => bench(&parse_bench(&args[1..], true)?),
        "collect" => collect(&args[1..]).map(|()| true),
        "compare" => {
            let [a, b] = &args[1..] else {
                return Err("usage: asgd-e2e compare A.json B.json".into());
            };
            let rows = compare::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?)?;
            print!("{}", compare::render(&rows));
            Ok(rows.iter().all(|r| r.verdict == compare::Verdict::Ok))
        }
        "manifest" => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(true)
        }
        "list" => {
            for (name, why) in WORKLOADS {
                println!("{name}\t{why}");
            }
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("asgd-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
