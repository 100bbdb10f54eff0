//! Experiment harness regenerating every table and figure of the paper.
//!
//! Three binaries, everything else is library code they call and the tests
//! exercise: `run_all [artifact…]` regenerates the evaluation artifacts
//! under `results/` (one function of [`experiments`] each — Table I,
//! Figures 1–6, ablations, §IV's simulated claims, the `BENCH_*.json`
//! rows), `probe <scenario>` renders one determinism probe of [`probe`]
//! (the reports ci.sh byte-diffs across thread counts, build profiles and
//! checked-in goldens), and `sweep` is the lr × b_max grid. Wall-clock
//! numbers are not this crate's business: `benchmarks/e2e` is the one
//! stopwatch; only the merge-stage and full-label-scale rows are timed here
//! because no `benchmarks/e2e` row isolates them yet.
//!
//! Experiment scale is controlled by environment variables so the same
//! binaries serve quick CI smoke runs and full overnight sweeps. A variable
//! that is set but does not parse — `ASGD_MEGA_LIMIT=4x`,
//! `ASGD_SOFTMAX=smapled`, `ASGD_SPARSE_MERGE=true` — aborts the run naming
//! the variable and the offending text (see [`knob`]); it never silently
//! runs the default:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ASGD_SCALE` | `0.01` | linear dataset scale vs Table I |
//! | `ASGD_BMAX` | `48` | maximum batch size |
//! | `ASGD_BATCHES_PER_MEGA` | `24` | batches per mega-batch (paper: 100) |
//! | `ASGD_MEGA_LIMIT` | `24` | mega-batches per run |
//! | `ASGD_HIDDEN` | `64` | MLP hidden width (paper: 128; 64 keeps the
//!   single-host sweep affordable) |
//! | `ASGD_SEED` | `42` | master seed |
//! | `ASGD_OUT_DIR` | `results` | artifact directory |
//! | `ASGD_SOFTMAX` | `dense` | output layer: `dense` (exact reference) or
//!   `sampled` (LSH-sampled softmax over candidate labels) |
//! | `ASGD_LSH_TABLES` | `8` | SimHash tables when `ASGD_SOFTMAX=sampled` |
//! | `ASGD_NEG_SAMPLES` | `64` | negative candidates per batch when
//!   `ASGD_SOFTMAX=sampled` |
//! | `ASGD_SPARSE_MERGE` | `0` | `1` = merge through the sparse delta
//!   all-reduce (bit-identical model; requires `ASGD_SOFTMAX=sampled` —
//!   without it `Trainer::new` refuses the config by name) |
//!
//! The probe scenarios read their own knobs on top (see [`probe`]).

use asgd_core::trainer::{RunConfig, SampledSoftmax, Trainer, TrainerSpec};
use asgd_core::RunResult;
use asgd_data::{generate, DatasetSpec, XmlDataset};
use asgd_gpusim::profile::heterogeneous_server;
use std::io::Write;
use std::path::PathBuf;

pub mod experiments;
pub mod fleet;
pub mod probe;

/// Scale/size knobs shared by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// Linear dataset scale vs Table I.
    pub scale: f64,
    /// Maximum batch size `b_max`.
    pub b_max: usize,
    /// Batches per mega-batch.
    pub batches_per_mega: usize,
    /// Mega-batches per run.
    pub mega_limit: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// `Some` = LSH-sampled softmax on the training hot path
    /// (`ASGD_SOFTMAX=sampled`), `None` = the exact dense output layer.
    pub sampled: Option<SampledSoftmax>,
    /// `ASGD_SPARSE_MERGE=1`: ship only the rows each replica holds through
    /// the merge stage (simulated-traffic accounting; bit-identical model).
    pub sparse_merge: bool,
}

/// Resolves one `ASGD_*` knob from its raw text: `default` when unset, the
/// parsed value when set. A knob that is set but does not parse is a hard
/// error naming the variable and the offending text — a typo must never
/// silently run the default and surface later as an unexplained golden diff.
/// `parse` sees the trimmed text.
///
/// # Panics
/// Panics when `text` is `Some` and `parse` rejects it.
pub fn knob<T>(
    name: &str,
    text: Option<&str>,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    match text {
        None => default,
        Some(t) => parse(t.trim())
            .unwrap_or_else(|| panic!("{name}={t:?} is not a valid value for {name}")),
    }
}

/// [`knob`]'s parser for a closed vocabulary (case-insensitive).
fn word<'a, T: Copy>(words: &'a [(&'a str, T)]) -> impl Fn(&str) -> Option<T> + 'a {
    move |t| {
        words
            .iter()
            .find(|(w, _)| w.eq_ignore_ascii_case(t))
            .map(|&(_, v)| v)
    }
}

/// The raw text of an environment variable (`None` when unset).
///
/// # Panics
/// Panics when the variable is set to something that is not Unicode.
pub fn env_text(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => panic!("{name}={v:?} is not valid Unicode"),
    }
}

/// Typed knob reads, every one through [`knob`], over wherever the texts
/// come from: [`env_text`] in the binaries, a table in tests.
#[derive(Clone, Copy)]
pub struct Knobs<'a>(pub &'a dyn Fn(&str) -> Option<String>);

impl Knobs<'_> {
    /// A knob with its own grammar.
    pub fn parse<T>(&self, name: &str, default: T, parse: impl FnOnce(&str) -> Option<T>) -> T {
        knob(name, (self.0)(name).as_deref(), default, parse)
    }

    /// A knob that is anything `FromStr`: numbers, `asgd_tensor::Precision`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parse(name, default, |t| t.parse().ok())
    }

    /// A knob over a closed vocabulary.
    pub fn word<T: Copy>(&self, name: &str, default: T, words: &[(&str, T)]) -> T {
        self.parse(name, default, word(words))
    }
}

/// Resolves the `ASGD_SOFTMAX`/`ASGD_LSH_TABLES`/`ASGD_NEG_SAMPLES` triple
/// (raw texts) into a trainer-level sampled-softmax config: `dense` (the
/// default) is `None`, `sampled` applies tables/negatives on top of
/// [`SampledSoftmax::defaults`], so the LSH seed and bit width stay at their
/// pinned values.
///
/// # Panics
/// Panics on any other mode word, an unparsable count, or zero tables (see
/// [`knob`]).
pub fn parse_softmax(
    mode: Option<&str>,
    tables: Option<&str>,
    neg: Option<&str>,
) -> Option<SampledSoftmax> {
    let modes = [("dense", false), ("sampled", true)];
    if !knob("ASGD_SOFTMAX", mode, false, word(&modes)) {
        return None;
    }
    let num = |t: &str| t.parse::<usize>().ok();
    let mut s = SampledSoftmax::defaults(knob("ASGD_NEG_SAMPLES", neg, 64, num));
    // An index needs at least one table.
    let positive = |t: &str| num(t).filter(|&n| n > 0);
    s.tables = knob("ASGD_LSH_TABLES", tables, s.tables, positive);
    Some(s)
}

impl Env {
    /// Reads the environment (see module docs for the variables).
    ///
    /// # Panics
    /// Panics when a variable is set but does not parse (see [`knob`]).
    pub fn from_env() -> Self {
        let k = Knobs(&env_text);
        let flag = [("0", false), ("1", true)];
        Env {
            scale: k.get("ASGD_SCALE", 0.01),
            b_max: k.get("ASGD_BMAX", 48),
            batches_per_mega: k.get("ASGD_BATCHES_PER_MEGA", 24),
            mega_limit: k.get("ASGD_MEGA_LIMIT", 24),
            hidden: k.get("ASGD_HIDDEN", 64),
            seed: k.get("ASGD_SEED", 42),
            out_dir: PathBuf::from(env_text("ASGD_OUT_DIR").unwrap_or_else(|| "results".into())),
            sampled: parse_softmax(
                env_text("ASGD_SOFTMAX").as_deref(),
                env_text("ASGD_LSH_TABLES").as_deref(),
                env_text("ASGD_NEG_SAMPLES").as_deref(),
            ),
            sparse_merge: k.word("ASGD_SPARSE_MERGE", false, &flag),
        }
    }

    /// A fast configuration for harness self-tests.
    pub fn smoke() -> Self {
        Env {
            scale: 0.001,
            b_max: 64,
            batches_per_mega: 8,
            mega_limit: 3,
            hidden: 24,
            seed: 42,
            out_dir: std::env::temp_dir().join("asgd-bench-smoke"),
            sampled: None,
            sparse_merge: false,
        }
    }

    /// The two evaluation datasets at this env's scale.
    pub fn dataset_specs(&self) -> Vec<DatasetSpec> {
        vec![
            DatasetSpec::amazon_670k(self.scale),
            DatasetSpec::delicious_200k(self.scale),
        ]
    }

    /// Generates a dataset deterministically for this env.
    pub fn dataset(&self, spec: &DatasetSpec) -> XmlDataset {
        generate(spec, self.seed ^ 0xD5)
    }

    /// The shared run configuration (same hyperparameters for every
    /// algorithm, §V-A), with the learning rate from [`grid_learning_rate`].
    pub fn run_config(&self, base_lr: f64) -> RunConfig {
        let mut c = RunConfig::paper_defaults(self.b_max, self.batches_per_mega);
        c.hidden = self.hidden;
        c.base_lr = base_lr;
        c.seed = self.seed;
        c.mega_batch_limit = Some(self.mega_limit);
        c.overhead_scale = self.scale;
        c.sampled_softmax = self.sampled;
        c.sparse_merge = self.sparse_merge;
        c
    }

    /// Runs one GPU algorithm on a heterogeneous `n_gpus` server.
    pub fn run(
        &self,
        spec: TrainerSpec,
        n_gpus: usize,
        dataset: &XmlDataset,
        lr: f64,
    ) -> RunResult {
        Trainer::new(spec, heterogeneous_server(n_gpus), self.run_config(lr)).run(dataset)
    }

    /// Writes an artifact under the output directory, returning its path.
    pub fn write_artifact(&self, name: &str, contents: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create artifact");
        f.write_all(contents.as_bytes()).expect("write artifact");
        path
    }
}

/// `len` deterministic pseudo-random values in `[-0.5, 0.5)` from an LCG
/// started at `state` — the fill of the kernel probe's operands and the
/// simulated cluster merge's buffers.
pub(crate) fn lcg_fill(mut state: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// The paper's learning-rate selection (§V-A): grid the rate at `b_max` in
/// powers of 10 and keep the one with the best accuracy after a short
/// Adaptive SGD probe; rates for other batch sizes follow linear scaling
/// inside the trainer.
pub fn grid_learning_rate(env: &Env, dataset: &XmlDataset) -> f64 {
    let mut best = (-1.0f64, 0.1f64);
    for lr in [1.0, 0.1, 0.01] {
        let mut config = env.run_config(lr);
        // A longer probe than the first few mega-batches: high rates look
        // good early and collapse later, so judge at ~1/3 of the real run.
        config.mega_batch_limit = Some((env.mega_limit / 3).clamp(3, 8));
        let result = Trainer::new(
            asgd_core::algorithms::adaptive_sgd(),
            heterogeneous_server(2),
            config,
        )
        .run(dataset);
        let acc = result.best_accuracy();
        if acc > best.0 {
            best = (acc, lr);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_tensor::Precision;

    #[test]
    fn env_defaults_parse() {
        let env = Env::from_env();
        assert!(env.scale > 0.0);
        assert!(env.b_max >= 8);
    }

    #[test]
    fn parse_softmax_resolves_the_env_triple() {
        assert_eq!(parse_softmax(None, None, None), None);
        assert_eq!(parse_softmax(Some("dense"), Some("4"), Some("9")), None);
        let s = parse_softmax(Some("sampled"), None, None).unwrap();
        assert_eq!(s, SampledSoftmax::defaults(64));
        let s = parse_softmax(Some(" SAMPLED "), Some("4"), Some("128")).unwrap();
        assert_eq!(s.tables, 4);
        assert_eq!(s.neg_samples, 128);
        assert_eq!(s.k_bits, SampledSoftmax::defaults(128).k_bits);
    }

    #[test]
    fn knob_defaults_when_unset_and_parses_when_set() {
        let num = |t: &str| t.parse::<usize>().ok();
        assert_eq!(knob("ASGD_MEGA_LIMIT", None, 24, num), 24);
        assert_eq!(knob("ASGD_MEGA_LIMIT", Some(" 4 "), 24, num), 4);
        let flag = [("0", false), ("1", true)];
        assert!(!knob("ASGD_SPARSE_MERGE", None, false, word(&flag)));
        assert!(knob("ASGD_SPARSE_MERGE", Some("1"), false, word(&flag)));
        assert!(!knob("ASGD_SPARSE_MERGE", Some("0"), true, word(&flag)));
        let table = |name: &str| (name == "ASGD_PRECISION").then(|| " BF16".to_string());
        let k = Knobs(&table);
        assert_eq!(k.get("ASGD_PRECISION", Precision::F32), Precision::Bf16);
        assert_eq!(k.get("ASGD_FAULT_SEED", 7u64), 7);
    }

    /// Every knob that is set but unparsable must abort, naming the
    /// variable and the offending text — never fall back to the default.
    #[test]
    fn unparsable_knobs_are_hard_errors() {
        fn rejects<R>(name: &str, text: &str, f: impl FnOnce() -> R + std::panic::UnwindSafe) {
            let err = std::panic::catch_unwind(f)
                .err()
                .expect("knob accepted garbage");
            let m = err.downcast_ref::<String>().expect("panic message");
            assert!(m.contains(name) && m.contains(text), "{m}");
        }
        let num = |t: &str| t.parse::<usize>().ok();
        rejects("ASGD_MEGA_LIMIT", "4x", || {
            knob("ASGD_MEGA_LIMIT", Some("4x"), 24, num)
        });
        rejects("ASGD_MEGA_LIMIT", "\"\"", || {
            knob("ASGD_MEGA_LIMIT", Some(""), 24, num)
        });
        rejects("ASGD_SOFTMAX", "smapled", || {
            parse_softmax(Some("smapled"), None, None)
        });
        rejects("ASGD_LSH_TABLES", "eight", || {
            parse_softmax(Some("sampled"), Some("eight"), None)
        });
        rejects("ASGD_LSH_TABLES", "\"0\"", || {
            parse_softmax(Some("sampled"), Some("0"), None)
        });
        let flag = [("0", false), ("1", true)];
        rejects("ASGD_SPARSE_MERGE", "true", || {
            knob("ASGD_SPARSE_MERGE", Some("true"), false, word(&flag))
        });
        rejects("ASGD_PRECISION", "fp16", || {
            Knobs(&|_| Some("fp16".into())).get("ASGD_PRECISION", Precision::F32)
        });
        let inter = [("ring", 0), ("tree", 1)];
        rejects("ASGD_INTER", "mesh", || {
            knob("ASGD_INTER", Some("mesh"), 0, word(&inter))
        });
    }

    #[test]
    fn run_config_carries_the_sampled_choice() {
        let mut env = Env::smoke();
        assert_eq!(env.run_config(0.1).sampled_softmax, None);
        env.sampled = Some(SampledSoftmax::defaults(32));
        assert_eq!(
            env.run_config(0.1).sampled_softmax,
            Some(SampledSoftmax::defaults(32))
        );
    }

    #[test]
    fn smoke_env_produces_datasets() {
        let env = Env::smoke();
        let specs = env.dataset_specs();
        assert_eq!(specs.len(), 2);
        let ds = env.dataset(&specs[0]);
        assert!(!ds.train.is_empty());
    }

    #[test]
    fn grid_picks_a_power_of_ten() {
        let env = Env::smoke();
        let ds = env.dataset(&DatasetSpec::tiny("grid"));
        let lr = grid_learning_rate(&env, &ds);
        assert!([1.0, 0.1, 0.01].contains(&lr));
    }

    #[test]
    fn write_artifact_creates_file() {
        let env = Env::smoke();
        let path = env.write_artifact("unit.csv", "a,b\n1,2\n");
        assert!(path.exists());
        assert_eq!(std::fs::read_to_string(path).unwrap(), "a,b\n1,2\n");
    }
}
