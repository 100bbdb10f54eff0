//! The `--quick` path end to end: every workload, both passes, through the
//! real binary, then `collect` and `compare` on what it wrote.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_asgd-e2e");

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .env("ASGD_THREADS", "2")
        .output()
        .expect("the harness binary starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Names listed under `key` in the repository's `BENCHMARK.json`.
fn manifest_names(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// Metric names of a result line, in order.
fn result_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\":{").expect("metrics object") + 11..];
    metrics
        .split("\":{\"value\":")
        .filter(|s| !s.ends_with("}}}"))
        .map(|s| s[s.rfind('"').expect("name opens") + 1..].to_string())
        .collect()
}

fn suite(dir: &Path) {
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let workloads = manifest_names("workloads");
    assert_eq!(workloads.len(), 5);
    for w in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, out) = run(&[
                "bench",
                "--workload",
                w,
                "--quick",
                "--seed",
                "7",
                "--trace",
                trace,
                "--out",
                dir_s,
            ]);
            assert!(ok, "{w} --trace {trace} failed:\n{out}");
            assert!(!out.contains("FAILED"), "{w} --trace {trace}:\n{out}");
            let last = out.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,\"attempted\":")
                    && last.contains("\"failed\":0,"),
                "{last}"
            );
            assert_eq!(
                result_names(last),
                manifest_names(key),
                "{w} --trace {trace}"
            );
        }
        assert!(dir.join(format!("{w}.json")).exists());
        assert!(dir.join(format!("{w}.layers.json")).exists());
        let trace = std::fs::read_to_string(dir.join(format!("trace_{w}.json"))).unwrap();
        assert!(
            trace.contains("\"traceEvents\":[{\"name\":"),
            "{w}: empty trace"
        );
    }
    let (ok, out) = run(&[
        "collect", "--out", dir_s, "--sha", "test", "--rustc", "test",
    ]);
    assert!(ok, "{out}");
}

#[test]
fn quick_suite_runs_every_workload_and_compares_with_itself() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (tmp.join("quick_a"), tmp.join("quick_b"));
    suite(&a);
    suite(&b);
    let (_, table) = run(&[
        "compare",
        a.join("suite.json").to_str().unwrap(),
        b.join("suite.json").to_str().unwrap(),
    ]);
    // 7 training and 9 serving metrics: 3 x 7 + 2 x 9 rows.
    assert!(table.contains("39 rows: "), "{table}");
    // Everything but the host timings (milliseconds long at these sizes, so
    // pure noise) repeats exactly across the two sets.
    let host = [
        "setup_s",
        "train_samples_per_s",
        "serve_requests_per_s",
        "peak_rss_mb",
    ];
    let exact: Vec<&str> = table
        .lines()
        .skip(1)
        .filter(|l| !l.contains(" rows: ") && !host.contains(&l.split(' ').nth(1).unwrap()))
        .collect();
    assert_eq!(exact.len(), 39 - 3 * 5, "{table}");
    for line in exact {
        assert!(line.ends_with(" ok"), "{line}");
        assert!(
            line.contains(" 1.0000 (base A = ") || line.contains(" n/a (base A = 0"),
            "{line}"
        );
    }

    // The history row carries medians and quartiles, not the raw record.
    let history = tmp.join("history.jsonl");
    let _ = std::fs::remove_file(&history);
    let (ok, _) = run(&[
        "collect",
        "--out",
        a.to_str().unwrap(),
        "--sha",
        "abc",
        "--record",
        history.to_str().unwrap(),
    ]);
    assert!(ok);
    let row = std::fs::read_to_string(&history).unwrap();
    assert_eq!(row.lines().count(), 1);
    assert!(
        row.contains("\"sha\":\"abc\"")
            && row.contains("\"median\":")
            && !row.contains("\"checks\"")
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &["bench", "--workload", "nope"][..],
        &["bench", "--workload", "train_dense_compute", "--trace", "2"],
        &["compare", "only-one.json"],
        &["frobnicate"],
    ] {
        let (ok, out) = run(args);
        assert!(!ok && !out.contains("\"correct\""), "{args:?}: {out}");
    }
}
