//! `asgd` — command-line interface to the Adaptive SGD reproduction.
//!
//! ```text
//! asgd generate --dataset amazon --scale 0.004 --out data/      # write libSVM files
//! asgd stats    --train data/train.libsvm --test data/test.libsvm
//! asgd train    --dataset amazon --algo adaptive --gpus 4 --megas 14
//! asgd train    --train data/train.libsvm --test data/test.libsvm --algo elastic
//! asgd simulate --gpus 4 --batch 256                            # Fig.1-style timing
//! ```
//!
//! Argument parsing is deliberately dependency-free: `--flag value` pairs
//! plus boolean `--flag`s, with `--help` everywhere. Each command names the
//! flags it reads; any other flag, or one given twice, is a usage error
//! (exit 2) rather than a setting silently ignored.

use adaptive_sgd::core::slide::{SlideConfig, SlideTrainer};
use adaptive_sgd::core::{
    algorithms,
    trainer::{RunConfig, Trainer, TrainerSpec},
    RunResult,
};
use adaptive_sgd::data::{generate, DatasetSpec, DatasetStats, SplitData, XmlDataset};
use adaptive_sgd::gpusim::device::build_server;
use adaptive_sgd::gpusim::profile::heterogeneous_server;
use adaptive_sgd::model::{workload::epoch_kernels, MlpConfig};
use adaptive_sgd::sparse::libsvm;
use adaptive_sgd::stats::StreamingSummary;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

type Run = fn(&Flags) -> Result<(), String>;

/// Every command, the flags it reads (`help` is accepted everywhere) and
/// what runs it.
const COMMANDS: &[(&str, &[&str], Run)] = &[
    (
        "generate",
        &["dataset", "scale", "seed", "out"],
        cmd_generate,
    ),
    ("stats", &["train", "test"], cmd_stats),
    (
        "train",
        &[
            "algo",
            "dataset",
            "train",
            "test",
            "scale",
            "gpus",
            "megas",
            "bmax",
            "lr",
            "batches-per-mega",
            "hidden",
            "seed",
            "trace",
            "csv",
        ],
        cmd_train,
    ),
    (
        "simulate",
        &[
            "gpus", "batch", "scale", "reps", "seed", "dataset", "hidden",
        ],
        cmd_simulate,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print_usage();
        return ExitCode::from(2);
    };
    let Some(&(_, known, run)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        eprintln!("error: unknown command '{command}'");
        return ExitCode::from(1);
    };
    let flags = match Flags::parse(command, known, rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if flags.bool("help") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn print_usage() {
    eprintln!(
        "asgd — Adaptive SGD for sparse data on (simulated) heterogeneous GPUs

USAGE: asgd <command> [--flag value]...

COMMANDS:
  generate   write a synthetic XML dataset as libSVM files
             --dataset amazon|delicious|tiny   (default amazon)
             --scale <f64>                     (default 0.004)
             --seed <u64>                      (default 42)
             --out <dir>                       (default .)
  stats      print Table-I statistics of libSVM files
             --train <path> [--test <path>]
  train      train one algorithm and print the accuracy curve
             --algo adaptive|elastic|crossbow|tensorflow|slide (default adaptive)
             --dataset amazon|delicious|tiny   (synthetic) OR
             --train <path> --test <path>      (libSVM files)
             --scale <f64>      dataset + overhead scale (default 0.004)
             --gpus <n>         (default 4)    --megas <n>   (default 14)
             --bmax <n>         (default 192)  --lr <f64>    (default 0.1)
             --batches-per-mega <n> (default 20)
             --hidden <n>       (default 128)  --seed <u64>  (default 42)
             --trace            print the dispatch timeline
             --csv <path>       write the curve as CSV
  simulate   run an identical batch across a heterogeneous server (Fig. 1)
             --gpus <n> (default 4)  --batch <n> (default 256)
             --scale <f64> (default 0.004)  --reps <n> (default 200)

ENVIRONMENT:
  ASGD_THREADS     worker-pool size, a positive integer (default: CPU
                   count); output is bit-identical for any value
  ASGD_PRECISION   f32|bf16 model/merge storage for train (default f32)
                   (either one set to anything else aborts the run)"
    );
}

/// Minimal `--key value` / `--switch` parser.
struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `args` for `command`, which reads the flags named in `known`.
    fn parse(command: &str, known: &[&str], args: &[String]) -> Result<Self, String> {
        const SWITCHES: &[&str] = &["trace", "help"];
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if name != "help" && !known.contains(&name) {
                return Err(format!("'{command}' has no flag --{name}"));
            }
            if values.contains_key(name) || switches.iter().any(|s| s == name) {
                return Err(format!("--{name} given twice"));
            }
            if SWITCHES.contains(&name) {
                switches.push(name.to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                values.insert(name.to_string(), value.clone());
                i += 2;
            }
        }
        Ok(Self { values, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    fn bool(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }

    /// `--gpus`: the simulated device count, at least one.
    fn gpus(&self) -> Result<usize, String> {
        match self.parsed("gpus", 4usize)? {
            0 => Err("--gpus must be at least 1".into()),
            n => Ok(n),
        }
    }
}

fn dataset_spec(flags: &Flags) -> Result<DatasetSpec, String> {
    let scale: f64 = flags.parsed("scale", 0.004)?;
    match flags.get("dataset").unwrap_or("amazon") {
        "amazon" => Ok(DatasetSpec::amazon_670k(scale)),
        "delicious" => Ok(DatasetSpec::delicious_200k(scale)),
        "tiny" => Ok(DatasetSpec::tiny("tiny")),
        other => Err(format!("unknown dataset '{other}'")),
    }
}

fn load_or_generate(flags: &Flags) -> Result<XmlDataset, String> {
    if let (Some(train), Some(test)) = (flags.get("train"), flags.get("test")) {
        let read = |path: &str| -> Result<libsvm::LibsvmDataset, String> {
            let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            libsvm::read(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
        };
        Ok(XmlDataset::from_libsvm("libsvm", read(train)?, read(test)?))
    } else {
        let spec = dataset_spec(flags)?;
        let seed: u64 = flags.parsed("seed", 42u64)?;
        Ok(generate(&spec, seed ^ 0xD5))
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let spec = dataset_spec(flags)?;
    let seed: u64 = flags.parsed("seed", 42u64)?;
    let out = std::path::PathBuf::from(flags.get("out").unwrap_or("."));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let ds = generate(&spec, seed ^ 0xD5);
    let write_split = |split: &SplitData, name: &str| -> Result<(), String> {
        let path = out.join(format!("{}.{name}.libsvm", spec.name.replace('@', "-")));
        let f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        let wrapped = libsvm::LibsvmDataset {
            features: split.features.clone(),
            labels: split.labels.clone(),
            num_labels: ds.num_labels,
        };
        libsvm::write(&mut BufWriter::new(f), &wrapped).map_err(|e| e.to_string())?;
        println!("wrote {path:?}");
        Ok(())
    };
    write_split(&ds.train, "train")?;
    write_split(&ds.test, "test")?;
    println!("{}", DatasetStats::csv_header());
    println!("{}", DatasetStats::compute(&ds).csv_row());
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let train_path = flags.get("train").ok_or("--train is required")?;
    let f = std::fs::File::open(train_path).map_err(|e| format!("{train_path}: {e}"))?;
    let train = libsvm::read(BufReader::new(f)).map_err(|e| e.to_string())?;
    let test = match flags.get("test") {
        Some(p) => {
            let f = std::fs::File::open(p).map_err(|e| format!("{p}: {e}"))?;
            libsvm::read(BufReader::new(f)).map_err(|e| e.to_string())?
        }
        None => libsvm::LibsvmDataset {
            features: adaptive_sgd::sparse::CsrMatrix::zeros(0, train.features.cols()),
            labels: vec![],
            num_labels: train.num_labels,
        },
    };
    let ds = XmlDataset::from_libsvm(train_path, train, test);
    println!("{}", DatasetStats::csv_header());
    println!("{}", DatasetStats::compute(&ds).csv_row());
    Ok(())
}

fn algo_by_name(name: &str) -> Result<TrainerSpec, String> {
    match name {
        "adaptive" => Ok(algorithms::adaptive_sgd()),
        "elastic" => Ok(algorithms::elastic_sgd()),
        "crossbow" => Ok(algorithms::crossbow_sma()),
        "tensorflow" => Ok(algorithms::tensorflow_sync()),
        other => Err(format!(
            "unknown algorithm '{other}' (adaptive|elastic|crossbow|tensorflow|slide)"
        )),
    }
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let gpus = flags.gpus()?;
    let ds = load_or_generate(flags)?;
    let megas: usize = flags.parsed("megas", 14usize)?;
    let b_max: usize = flags.parsed("bmax", 192usize)?;
    let batches: usize = flags.parsed("batches-per-mega", 20usize)?;
    let hidden: usize = flags.parsed("hidden", 128usize)?;
    let lr: f64 = flags.parsed("lr", 0.1f64)?;
    let seed: u64 = flags.parsed("seed", 42u64)?;
    let scale: f64 = flags.parsed("scale", 0.004f64)?;
    let algo_name = flags.get("algo").unwrap_or("adaptive");

    let result: RunResult = if algo_name == "slide" {
        let mut cfg = SlideConfig::defaults(b_max * batches);
        cfg.hidden = hidden;
        cfg.seed = seed;
        cfg.lr = lr * cfg.batch_size as f64 / b_max as f64;
        cfg.k_bits = ((ds.num_labels as f64 / 16.0).log2().round() as usize).clamp(3, 12);
        cfg.sample_limit = Some((b_max * batches * megas) as u64);
        SlideTrainer::new(cfg).run(&ds)
    } else {
        let spec = algo_by_name(algo_name)?;
        let mut config = RunConfig::paper_defaults(b_max, batches);
        config.hidden = hidden;
        config.base_lr = lr;
        config.seed = seed;
        config.mega_batch_limit = Some(megas);
        config.overhead_scale = scale;
        config.precision = asgd_tensor::Precision::from_env_or(config.precision);
        config.trace = flags.bool("trace");
        config.validate(&spec, gpus).map_err(|e| e.to_string())?;
        Trainer::new(spec, heterogeneous_server(gpus), config).run(&ds)
    };

    println!(
        "algorithm {} on {} ({} train / {} test samples, {} classes)",
        result.name,
        ds.name,
        ds.train.len(),
        ds.test.len(),
        ds.num_labels
    );
    println!("merge |  sim time (s) | epochs | top-1 | batch sizes");
    for r in &result.records {
        println!(
            "{:>5} | {:>13.6} | {:>6.2} | {:>5.3} | {:?}",
            r.merge_index,
            r.sim_time,
            r.epochs,
            r.accuracy,
            r.batch_sizes
                .iter()
                .map(|b| b.round() as i64)
                .collect::<Vec<_>>()
        );
    }
    println!(
        "best top-1 {:.4}; perturbation in {:.0}% of merges",
        result.best_accuracy(),
        result.perturbation_frequency() * 100.0
    );
    if flags.bool("trace") && !result.trace.is_empty() {
        println!("\ndispatch trace:\n{}", result.trace);
    }
    if let Some(path) = flags.get("csv") {
        std::fs::write(path, result.curve_csv()).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let gpus = flags.gpus()?;
    let batch: usize = flags.parsed("batch", 256usize)?;
    let reps: usize = flags.parsed("reps", 200usize)?;
    let scale: f64 = flags.parsed("scale", 0.004f64)?;
    let seed: u64 = flags.parsed("seed", 42u64)?;
    let spec = dataset_spec(flags)?;
    let ds = generate(&spec, seed ^ 0xD5);
    let mconfig = MlpConfig {
        num_features: ds.num_features,
        hidden: flags.parsed("hidden", 128usize)?,
        num_classes: ds.num_labels,
    };
    let ids: Vec<usize> = (0..batch.min(ds.train.len())).collect();
    let nnz: usize = ids.iter().map(|&i| ds.train.features.row_nnz(i)).sum();
    let kinds = epoch_kernels(&mconfig, ids.len(), nnz);
    let profiles: Vec<_> = heterogeneous_server(gpus)
        .into_iter()
        .map(|p| p.with_overhead_scale(scale))
        .collect();
    let mut devices = build_server(&profiles, seed);
    println!(
        "identical batch (size {}, nnz {nnz}) x {reps} reps:",
        ids.len()
    );
    let mut means = StreamingSummary::new();
    for (i, d) in devices.iter_mut().enumerate() {
        let mut s = StreamingSummary::new();
        for _ in 0..reps {
            s.record(d.execute_all(&kinds) * 1e6);
        }
        println!(
            "  gpu{i}: mean {:.2} us (std {:.2}, min {:.2}, max {:.2})",
            s.mean(),
            s.std_dev(),
            s.min().unwrap_or(0.0),
            s.max().unwrap_or(0.0)
        );
        means.record(s.mean());
    }
    if let Some(gap) = means.relative_gap() {
        println!(
            "fastest-to-slowest gap: {:.1}% (paper Fig. 1: up to 32%)",
            gap * 100.0
        );
    }
    Ok(())
}
