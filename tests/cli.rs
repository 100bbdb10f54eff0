//! End-to-end tests of the `asgd` command-line interface.

use std::process::Command;

fn asgd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asgd"))
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("asgd-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_command_prints_usage_and_fails() {
    let out = asgd().output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn unknown_command_is_an_error() {
    let out = asgd().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_then_stats_then_train_roundtrip() {
    let dir = temp_dir("roundtrip");
    // Generate a tiny dataset as libSVM files.
    let out = asgd()
        .args([
            "generate",
            "--dataset",
            "tiny",
            "--seed",
            "7",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let train = dir.join("tiny.train.libsvm");
    let test = dir.join("tiny.test.libsvm");
    assert!(train.exists() && test.exists());

    // Stats on the generated file.
    let out = asgd()
        .args(["stats", "--train", train.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dataset,features,classes"), "{stdout}");

    // Train on the files.
    let csv = dir.join("curve.csv");
    let out = asgd()
        .args([
            "train",
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--algo",
            "adaptive",
            "--gpus",
            "2",
            "--megas",
            "3",
            "--bmax",
            "32",
            "--batches-per-mega",
            "6",
            "--hidden",
            "16",
            "--csv",
            csv.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("best top-1"), "{stdout}");
    let curve = std::fs::read_to_string(csv).unwrap();
    assert_eq!(curve.lines().count(), 4, "3 merges + header: {curve}");
}

#[test]
fn train_rejects_unknown_algorithm() {
    let out = asgd()
        .args(["train", "--dataset", "tiny", "--algo", "sgdx"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn train_slide_baseline_works() {
    let out = asgd()
        .args([
            "train",
            "--dataset",
            "tiny",
            "--algo",
            "slide",
            "--megas",
            "2",
            "--bmax",
            "32",
            "--batches-per-mega",
            "4",
            "--hidden",
            "16",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "slide failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("slide-cpu"));
}

#[test]
fn simulate_reports_gap() {
    let out = asgd()
        .args([
            "simulate",
            "--gpus",
            "4",
            "--batch",
            "32",
            "--reps",
            "20",
            "--dataset",
            "tiny",
            "--hidden",
            "16",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gpu0"));
    assert!(stdout.contains("gap"), "{stdout}");
}

#[test]
fn missing_flag_value_is_reported() {
    let out = asgd().args(["train", "--gpus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
}

/// Runs `asgd args…` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = asgd().args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A misspelled flag, a flag another command reads, and a flag given twice
/// are usage errors naming the flag — not settings silently ignored (a
/// `--megs 1` typo used to train the default 14 mega-batches).
#[test]
fn unknown_and_repeated_flags_are_usage_errors() {
    for (args, names) in [
        (&["train", "--dataset", "tiny", "--megs", "1"][..], "--megs"),
        (&["simulate", "--algo", "adaptive"][..], "--algo"),
        (&["stats", "--trace"][..], "--trace"),
        (&["generate", "--seed", "1", "--seed", "2"][..], "--seed"),
        (
            &[
                "train",
                "--dataset",
                "tiny",
                "--trace",
                "--megas",
                "1",
                "--trace",
            ][..],
            "--trace",
        ),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
}

/// No devices to train or simulate on is an error, not a panic.
#[test]
fn zero_gpus_is_an_error() {
    for command in ["train", "simulate"] {
        let (code, stderr) = run(&[command, "--dataset", "tiny", "--gpus", "0"]);
        assert_eq!(code, Some(1), "{command}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("--gpus"),
            "{command}: {stderr}"
        );
    }
}
