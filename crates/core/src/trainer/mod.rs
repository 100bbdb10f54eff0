//! The HeteroGPU training framework (Fig. 3): central dynamic scheduler +
//! one model replica per simulated heterogeneous device.
//!
//! # Determinism model
//!
//! The scheduler owns the simulated devices, the shuffled [`SampleStream`]
//! and every replica; every scheduling decision (which GPU receives the
//! next batch, when merges happen, what Algorithm 1/2 compute) is a
//! function of *virtual clocks* and seeded RNG state only. Between two
//! merges it reads nothing back from a replica, so it first decides the
//! whole mega-batch (or round) — one ordered batch list per replica — and
//! then trains it in one **phase**: a scoped thread per live replica, each
//! borrowing its replica and its gather slot, training its list in order.
//! The merge runs on the scheduler, and a second phase imports the result.
//! Fig. 3's event messages are therefore plain method calls, and a run's
//! result is bit-identical for a fixed seed at any thread count, regardless
//! of OS scheduling.
//!
//! # Policy space
//!
//! One engine covers all four GPU algorithms of the paper's evaluation via
//! [`TrainerSpec`]: dynamic vs static dispatch, adaptive vs fixed batch
//! sizes, merge-per-mega-batch vs merge-every-round, and the merge rule
//! (Algorithm 2, plain averaging, or CROSSBOW-style partial pull).

pub mod arena;
pub mod chaos;
mod manager;

use crate::checkpoint::TrainingState;
use crate::hyper::{GpuHyper, ScalingParams};
use crate::merging::{
    compute_merge_weights, import_sq, merge_weights, FusedMerge, MergeDecision, MergeInput,
    MergeParams, MergeScratch,
};
use crate::metrics::{MergeRecord, RunRecorder, RunResult, SparseMergeStats};
use crate::schedule::{ScalingScheduler, StalenessBound};
use arena::IndexArena;
use asgd_collective::{
    sparse_merge_timing, Algorithm, CollectiveContext, InterNode, SparseLayout, SparseMergePlan,
};
use asgd_data::{batching::MegaBatchBudget, SampleStream, XmlDataset};
use asgd_gpusim::device::build_server;
use asgd_gpusim::fusion::{FusionPolicy, LaunchModel};
use asgd_gpusim::memory::MemoryTracker;
use asgd_gpusim::{
    ClusterTopology, DeviceId, DevicePool, DeviceProfile, FaultPlan, SimTime, Topology, TraceLog,
};
use asgd_model::workload::{
    epoch_kernels, lsh_rebuild_kernels, model_transfer_kernels_sized, overhead_delta_for,
    sampled_epoch_kernels,
};
use asgd_model::{eval, Mlp, MlpConfig, Overlay};
use asgd_tensor::{pages, FlatRef, Precision};
use chaos::ChaosStats;
use manager::Replica;
use std::sync::Arc;

/// Sample seed of a batch: an FNV-1a fold of its sample ids mixed with the
/// LSH seed. A pure function of the ids, so a batch re-dispatched after a
/// device loss (same ids, different GPU) reproduces its candidate set
/// exactly; dispatch order and dispatch target never enter the seed.
fn batch_sample_seed(ids: &[usize], lsh_seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &id in ids {
        h ^= id as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ lsh_seed
}

/// How batches are assigned to GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// The paper's dynamic scheduling: the next batch goes to the GPU whose
    /// virtual clock is lowest (i.e. the first to become available).
    Dynamic,
    /// Static round-robin partitioning (Elastic SGD, TensorFlow, CROSSBOW).
    Static,
}

/// Whether Algorithm 1 runs at mega-batch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingPolicy {
    /// Adaptive batch size scaling (Algorithm 1, linear rule).
    Adaptive,
    /// Adaptive scaling with the multiplicative update — the alternative
    /// the paper tried and rejected (ablation).
    AdaptiveMultiplicative,
    /// Fixed equal batch sizes.
    Fixed,
}

/// How often replicas are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeInterval {
    /// Once per mega-batch (Adaptive and Elastic SGD).
    MegaBatch,
    /// After every round of one batch per GPU (TensorFlow's gradient
    /// aggregation and CROSSBOW's synchronous model averaging).
    EveryRound,
}

/// The rule combining replicas into the global model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeRule {
    /// Algorithm 2: normalized weights + perturbation + momentum.
    Normalized(MergeParams),
    /// Uniform averaging followed by the same momentum global-model update
    /// Adaptive SGD uses (`gamma = 0` disables it). With `gamma = 0.9` this
    /// is Elastic SGD's update rule — the paper notes Elastic and Adaptive
    /// "use the same model update rule" and coincide on a single GPU. For
    /// merge-every-round with equal batch sizes and `gamma = 0`, uniform
    /// averaging is mathematically identical to synchronous gradient
    /// aggregation (averaging `w − lr·∇_i` equals applying the averaged
    /// gradient).
    Average {
        /// Momentum of the global-model update.
        gamma: f64,
    },
    /// CROSSBOW-style synchronous model averaging: the central average model
    /// becomes the global model, and every replica is *partially pulled*
    /// toward it (`w ← w + pull·(z − w)`), keeping learner diversity. The
    /// sensitivity of this update is the source of the divergence the paper
    /// observes (§V-B).
    Crossbow {
        /// Pull strength in `(0, 1]`.
        pull: f64,
    },
}

/// The complete policy bundle describing one training algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerSpec {
    /// Display name (used in experiment output).
    pub name: String,
    /// Batch placement policy.
    pub dispatch: DispatchPolicy,
    /// Batch-size adaptation policy.
    pub scaling: ScalingPolicy,
    /// Merge cadence.
    pub merge_interval: MergeInterval,
    /// Merge rule.
    pub merge_rule: MergeRule,
    /// All-reduce implementation for model merging.
    pub allreduce: Algorithm,
    /// Kernel-fusion policy of the GPU managers.
    pub fusion: FusionPolicy,
    /// Multiplier on epoch compute time (1.0 for HeteroGPU implementations;
    /// >1 models TensorFlow's slower epoch execution, §V-B).
    pub compute_overhead: f64,
}

/// Configuration of the LSH-sampled softmax training path (see `DESIGN.md`,
/// "Sampled softmax & sparse output path").
///
/// With [`RunConfig::sampled_softmax`] set, every replica trains through a
/// deterministic candidate set — the batch's true labels plus
/// `neg_samples` hash-bucket negatives — instead of the full `num_classes`
/// output layer, which is what makes full-label-scale XC shapes (670k
/// labels) trainable. `None` trains the exact dense softmax (the reference
/// path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledSoftmax {
    /// SimHash tables in the LSH index (`ASGD_LSH_TABLES`).
    pub tables: usize,
    /// Bits per table signature (buckets per table = `2^k_bits`).
    pub k_bits: usize,
    /// Negatives per batch (`ASGD_NEG_SAMPLES`); the candidate set is
    /// `positives ∪ negatives`, clamped to the class count.
    pub neg_samples: usize,
    /// Seed of the LSH hyperplanes and the per-batch negative draws — the
    /// third seed of the determinism contract, next to the run seed and the
    /// fault seed.
    pub seed: u64,
}

impl SampledSoftmax {
    /// Defaults used by the experiment harness: 8 tables × 9 bits, seeded
    /// independently of the run seed.
    pub fn defaults(neg_samples: usize) -> Self {
        SampledSoftmax {
            tables: 8,
            k_bits: 9,
            neg_samples,
            seed: 0x51DE_CA5E,
        }
    }
}

/// Shape and merge topology of a simulated multi-server fleet
/// (`ASGD_SERVERS` × `ASGD_DEVICES_PER_SERVER`).
///
/// With [`RunConfig::cluster`] set, the trainer's collective context routes
/// cross-server transfers over a slow inter-node link
/// ([`ClusterTopology::ethernet`]) and the merge runs the two-level
/// hierarchical schedule (`asgd_collective::hierarchical`). Result bits are
/// **identical** to the flat merge over the same replicas — the merge
/// topology is a scheduling optimization, never an arithmetic one (see
/// `DESIGN.md`, "Cluster topology & hierarchical merge") — so cluster runs
/// stay bit-deterministic at any `ASGD_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of servers (nodes); device `g` lives on server
    /// `g / devices_per_server` (fixed server-major ordering).
    pub servers: usize,
    /// Devices per server; `servers · devices_per_server` must equal the
    /// trainer's device count.
    pub devices_per_server: usize,
    /// Inter-node reduction shape over the server leads.
    pub inter: InterNode,
}

/// Run-level configuration shared by all algorithms (the paper uses "the
/// same hyperparameters for all the algorithms", §V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Maximum (and initial) batch size `b_max`.
    pub b_max: usize,
    /// Learning rate at `b_max`; other sizes follow the linear scaling rule.
    pub base_lr: f64,
    /// Samples per mega-batch.
    pub mega_batch_size: usize,
    /// Algorithm 1 parameters.
    pub scaling_params: ScalingParams,
    /// Hidden-layer width of the MLP.
    pub hidden: usize,
    /// Master seed: drives init, shuffling, and device jitter.
    pub seed: u64,
    /// Stop once simulated time reaches this many seconds (checked at
    /// mega-batch boundaries). At least one of the two limits must be set.
    pub time_limit: Option<f64>,
    /// Stop after this many mega-batches.
    pub mega_batch_limit: Option<usize>,
    /// Evaluation chunk size (bounds dense activation memory).
    pub eval_chunk: usize,
    /// Record a dispatch trace (Fig. 2).
    pub trace: bool,
    /// Scale applied to fixed overheads (kernel launch, transfer setup).
    /// Set this to the dataset's linear scale when training scaled-down
    /// synthetic twins, so the compute-to-overhead ratio matches what the
    /// paper's full-size datasets exhibit (see `DESIGN.md` §2). 1.0 = real
    /// hardware constants.
    pub overhead_scale: f64,
    /// Optional scaling-frequency adaptation (§III-A): once batch sizes are
    /// stable or oscillating, the interval between Algorithm 1 invocations
    /// grows up to `(tolerance, max_interval)`. `None` (the paper default)
    /// scales after every mega-batch.
    pub scaling_schedule: Option<(f64, usize)>,
    /// Optional seeded fault plan (straggler spikes, stalls, device loss,
    /// merge-time OOM) injected against the deterministic scheduling loop;
    /// the trainer degrades gracefully (see [`chaos`]). Requires
    /// [`MergeInterval::MegaBatch`]. `None` injects nothing and skips all
    /// chaos bookkeeping.
    pub fault_plan: Option<FaultPlan>,
    /// Storage precision of the merge/transfer tier (arena buffers, message
    /// payloads, simulated replica transfers). [`Precision::F32`] is the
    /// paper-faithful default; [`Precision::Bf16`] halves merge-stage bytes
    /// while all accumulation (all-reduce, momentum, blending) stays f32 —
    /// see `DESIGN.md`, "Precision tiers & rounding contract". Replica
    /// training math is f32 either way.
    pub precision: Precision,
    /// LSH-sampled softmax configuration (`ASGD_SOFTMAX=sampled`); `None`
    /// (the default) trains the exact dense output layer. Sampled runs stay
    /// bit-deterministic: outcomes are a pure function of
    /// `(seed, fault_plan, sampled_softmax.seed)` at any `ASGD_THREADS`.
    pub sampled_softmax: Option<SampledSoftmax>,
    /// Multi-server fleet shape; `None` (the default) is the paper's
    /// single-server setup with the flat all-reduce.
    pub cluster: Option<ClusterConfig>,
    /// Sparse delta merge (`ASGD_SPARSE_MERGE=1`): replicas ship only the
    /// rows they hold since the last sync — the rows their steps touched,
    /// and on the dense softmax every class — and the merge charges a
    /// union-sized schedule instead of a model-sized one. Requires a
    /// `SetModel`-redistributing merge rule (Normalized/Average) — CROSSBOW
    /// is a [`ConfigError`]. Results are **bit-identical** to the dense
    /// merge — the reduction arithmetic is unchanged, only the simulated
    /// wire traffic shrinks (see `asgd_collective::sparse`).
    pub sparse_merge: bool,
    /// Union-density threshold (`union elems / param_len`) above which a
    /// sparse merge falls back to the dense schedule (timing-only).
    pub sparse_max_density: f64,
}

impl RunConfig {
    /// Paper defaults derived from `b_max`: a mega-batch of
    /// `batches_per_mega · b_max` samples (the paper uses 100 batches),
    /// `b_min = b_max/8`, `β = b_min/2`, hidden = 128.
    pub fn paper_defaults(b_max: usize, batches_per_mega: usize) -> Self {
        RunConfig {
            b_max,
            base_lr: 0.1,
            mega_batch_size: b_max * batches_per_mega.max(1),
            scaling_params: ScalingParams::paper_defaults(b_max),
            hidden: 128,
            seed: 42,
            time_limit: None,
            mega_batch_limit: None,
            eval_chunk: 256,
            trace: false,
            overhead_scale: 1.0,
            scaling_schedule: None,
            fault_plan: None,
            precision: Precision::F32,
            sampled_softmax: None,
            cluster: None,
            sparse_merge: false,
            sparse_max_density: asgd_collective::DEFAULT_MAX_DENSITY,
        }
    }

    /// Checks the settings against each other, against the algorithm they
    /// are to run and against the `n_devices` fleet they are to run on, so
    /// a contradiction is an error with a name instead of a run that
    /// silently does something else (or dies mid-run).
    pub fn validate(&self, spec: &TrainerSpec, n_devices: usize) -> Result<(), ConfigError> {
        match self.time_limit {
            Some(t) if t.is_nan() => return Err(ConfigError::TimeLimitNaN),
            Some(t) if t <= 0.0 => return Err(ConfigError::TimeLimitNotPositive),
            _ => {}
        }
        if self.mega_batch_limit == Some(0) {
            return Err(ConfigError::ZeroMegaBatchLimit);
        }
        if n_devices > asgd_collective::MAX_DEVICES {
            return Err(ConfigError::TooManyDevices { have: n_devices });
        }
        // An infinite time limit is no limit: sim time never reaches it.
        let timed = self.time_limit.is_some_and(f64::is_finite);
        if !timed && self.mega_batch_limit.is_none() {
            return Err(ConfigError::NoLimit);
        }
        if self.fault_plan.is_some() && spec.merge_interval != MergeInterval::MegaBatch {
            return Err(ConfigError::FaultPlanNeedsMegaBatchMerge);
        }
        if self.sparse_merge && matches!(spec.merge_rule, MergeRule::Crossbow { .. }) {
            return Err(ConfigError::SparseMergeUnderCrossbow);
        }
        if let Some(s) = self.sampled_softmax {
            if s.tables == 0 || !(1..=32).contains(&s.k_bits) {
                return Err(ConfigError::LshShapeInvalid {
                    tables: s.tables,
                    k_bits: s.k_bits,
                });
            }
        }
        let gamma = match spec.merge_rule {
            MergeRule::Normalized(p) => {
                if p.pert_thr.is_nan() || p.pert_thr < 0.0 {
                    return Err(ConfigError::PerturbationThresholdInvalid);
                }
                if !(0.0..1.0).contains(&p.delta) {
                    return Err(ConfigError::PerturbationFactorInvalid);
                }
                p.gamma
            }
            MergeRule::Average { gamma } => gamma,
            MergeRule::Crossbow { .. } => 0.0,
        };
        if !gamma.is_finite() {
            return Err(ConfigError::MomentumNotFinite);
        }
        // Server-level faults index the cluster shape — one server holding
        // every device when no cluster is configured.
        let servers = self.cluster.map_or(1, |cl| cl.servers);
        let plan = self.fault_plan.as_ref();
        match plan.and_then(|p| p.missing_target(n_devices, servers)) {
            Some((server_level, target, have)) => Err(ConfigError::FaultTargetMissing {
                server_level,
                target,
                have,
            }),
            None => Ok(()),
        }
    }
}

/// A [`RunConfig`] that contradicts itself or the [`TrainerSpec`] it was
/// paired with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Neither a finite `time_limit` nor `mega_batch_limit` is set: the run
    /// would never end.
    NoLimit,
    /// `time_limit` is NaN: sim time is never `>=` it, so it never stops
    /// a run.
    TimeLimitNaN,
    /// `time_limit` is zero or negative: the run would stop before its
    /// first batch.
    TimeLimitNotPositive,
    /// `mega_batch_limit` is `Some(0)`: the limit is checked after a
    /// mega-batch, so the run would train one anyway.
    ZeroMegaBatchLimit,
    /// `fault_plan` with [`MergeInterval::EveryRound`]: faults are scheduled
    /// against mega-batch dispatch ordinals.
    FaultPlanNeedsMegaBatchMerge,
    /// `sparse_merge` under [`MergeRule::Crossbow`]: the blend moves every
    /// parameter of every replica, so every row is dirty at every merge.
    SparseMergeUnderCrossbow,
    /// Algorithm 2's `pert_thr` is NaN or negative. A NaN threshold would
    /// silently switch perturbation off (no norm is below it), and the
    /// gate's certificate compares against an ordered threshold.
    PerturbationThresholdInvalid,
    /// Algorithm 2's perturbation factor `delta` is NaN or outside
    /// `[0, 1)`: `1 − δ` must damp the least-updated replica's weight, not
    /// zero or negate it.
    PerturbationFactorInvalid,
    /// The momentum `gamma` of [`MergeRule::Normalized`] or
    /// [`MergeRule::Average`] is not finite: every global update would turn
    /// the model into NaN or ±∞.
    MomentumNotFinite,
    /// The sampled softmax's LSH index has no table, or signatures of
    /// `k_bits` outside `1..=32` (a signature is one `u32`).
    LshShapeInvalid {
        /// `SampledSoftmax::tables`.
        tables: usize,
        /// `SampledSoftmax::k_bits`.
        k_bits: usize,
    },
    /// The fleet has more devices than one merge's collective reduces
    /// ([`asgd_collective::MAX_DEVICES`]).
    TooManyDevices {
        /// How many devices the fleet has.
        have: usize,
    },
    /// A `fault_plan` event names a device — or, for
    /// [`FaultKind::ServerLoss`] / [`FaultKind::InterNodeStall`], a server —
    /// the fleet does not have.
    FaultTargetMissing {
        /// Whether `target` indexes servers rather than devices.
        server_level: bool,
        /// The index the event names.
        target: usize,
        /// How many devices (servers) the fleet has.
        have: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match *self {
            ConfigError::NoLimit => "set a time limit or a mega-batch limit",
            ConfigError::TimeLimitNaN => "the time limit is NaN",
            ConfigError::TimeLimitNotPositive => "the time limit must be positive",
            ConfigError::ZeroMegaBatchLimit => "the mega-batch limit must be at least 1",
            ConfigError::FaultPlanNeedsMegaBatchMerge => {
                "fault injection requires merge-per-mega-batch"
            }
            ConfigError::SparseMergeUnderCrossbow => {
                "sparse_merge cannot run under MergeRule::Crossbow: the blend dirties every row"
            }
            ConfigError::PerturbationThresholdInvalid => {
                "the perturbation threshold pert_thr must be a number >= 0"
            }
            ConfigError::PerturbationFactorInvalid => {
                "the perturbation factor delta must lie in [0, 1)"
            }
            ConfigError::MomentumNotFinite => "the merge momentum gamma must be finite",
            ConfigError::LshShapeInvalid { tables, k_bits } => {
                return write!(
                    f,
                    "the LSH index needs at least 1 table and 1..=32 bits per signature; \
                     got {tables} tables of {k_bits} bits"
                );
            }
            ConfigError::TooManyDevices { have } => {
                return write!(
                    f,
                    "a merge reduces at most {} devices; the fleet has {have}",
                    asgd_collective::MAX_DEVICES
                );
            }
            ConfigError::FaultTargetMissing {
                server_level,
                target,
                have,
            } => {
                let unit = if server_level { "server" } else { "gpu" };
                return write!(
                    f,
                    "fault plan targets {unit} {target}; the fleet has {have}"
                );
            }
        })
    }
}

impl std::error::Error for ConfigError {}

/// A [`TrainingState`] that does not fit the trainer and dataset it is to
/// resume on. `have` is what the state holds, `want` what the run needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeError {
    /// `state.global` is not one flat model of the run's architecture.
    Architecture {
        /// Parameters in the checkpointed model.
        have: usize,
        /// Parameters of the dataset's feature × hidden × label shape.
        want: usize,
    },
    /// `state.hypers` was written by a fleet of another size.
    GpuCount {
        /// Per-GPU hyperparameter records in the checkpoint.
        have: usize,
        /// Devices this trainer drives.
        want: usize,
    },
    /// `state.prev_global` (the momentum memory) is not as long as the model.
    MomentumLength {
        /// Elements in the checkpointed momentum memory.
        have: usize,
        /// Parameters of the model it must pair with.
        want: usize,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ResumeError::Architecture { have, want } => write!(
                f,
                "checkpoint does not match the model architecture: \
                 it holds {have} parameters, the run needs {want}"
            ),
            ResumeError::GpuCount { have, want } => write!(
                f,
                "checkpoint does not match the GPU count: \
                 written by {have} GPUs, the run has {want}"
            ),
            ResumeError::MomentumLength { have, want } => write!(
                f,
                "checkpoint momentum memory holds {have} elements, its model {want}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// The training engine: couples a [`TrainerSpec`] with a simulated server.
#[derive(Debug, Clone)]
pub struct Trainer {
    spec: TrainerSpec,
    profiles: Vec<DeviceProfile>,
    config: RunConfig,
}

impl Trainer {
    /// Creates a trainer over the given device profiles.
    ///
    /// # Panics
    /// Panics on an empty fleet, a cluster shape that does not match it, or
    /// a [`ConfigError`] from [`RunConfig::validate`].
    pub fn new(spec: TrainerSpec, profiles: Vec<DeviceProfile>, config: RunConfig) -> Self {
        assert!(!profiles.is_empty(), "need at least one device");
        if let Err(e) = config.validate(&spec, profiles.len()) {
            panic!("{e}");
        }
        if let Some(cl) = &config.cluster {
            assert_eq!(
                cl.servers * cl.devices_per_server,
                profiles.len(),
                "cluster shape does not match the device count"
            );
        }
        Self {
            spec,
            profiles,
            config,
        }
    }

    /// The spec this trainer runs.
    pub fn spec(&self) -> &TrainerSpec {
        &self.spec
    }

    /// The architecture this trainer builds for `dataset`.
    fn mlp_config(&self, dataset: &XmlDataset) -> MlpConfig {
        MlpConfig {
            num_features: dataset.num_features,
            hidden: self.config.hidden,
            num_classes: dataset.num_labels,
        }
    }

    /// Trains on `dataset` until a limit is hit; returns the full record.
    pub fn run(&self, dataset: &XmlDataset) -> RunResult {
        self.run_with_state(dataset, None)
    }

    /// Resumes training from a checkpoint (see [`crate::checkpoint`]):
    /// model, momentum memory, and per-GPU hyperparameters continue where
    /// the snapshot left off; merge indices continue from
    /// `state.megas_done`. Device clocks restart at zero (a resumed run
    /// continues the *optimization*, not the timing trace).
    ///
    /// # Errors
    /// A [`ResumeError`] when the state was written for another
    /// architecture or fleet size, or is inconsistent in itself — decided
    /// before any thread is started.
    pub fn run_resumed(
        &self,
        dataset: &XmlDataset,
        state: &TrainingState,
    ) -> Result<RunResult, ResumeError> {
        let want = self.mlp_config(dataset).param_len();
        if state.global.len() != want {
            return Err(ResumeError::Architecture {
                have: state.global.len(),
                want,
            });
        }
        if state.hypers.len() != self.profiles.len() {
            return Err(ResumeError::GpuCount {
                have: state.hypers.len(),
                want: self.profiles.len(),
            });
        }
        if state.prev_global.len() != want {
            return Err(ResumeError::MomentumLength {
                have: state.prev_global.len(),
                want,
            });
        }
        Ok(self.run_with_state(dataset, Some(state)))
    }

    fn run_with_state(&self, dataset: &XmlDataset, resume: Option<&TrainingState>) -> RunResult {
        let mut state = self.scheduler(dataset, resume);
        state.drive();
        let sparse_merge = self.config.sparse_merge.then(|| state.sparse_stats.clone());
        let megas_run = state.recorder.records().len() as u64;
        // The global model leaves as the final model and as the resumable
        // state's, one allocation shared by both.
        let final_model = Arc::new(state.global.into_flat());
        let final_state = TrainingState {
            global: Arc::clone(&final_model),
            prev_global: state.prev_global,
            hypers: state.hypers.clone(),
            megas_done: state.start_index as u64 + megas_run,
        };
        RunResult {
            name: self.spec.name.clone(),
            records: state.recorder.into_records(),
            final_model,
            trace: state.trace.render(),
            final_state: Some(final_state),
            chaos: state.chaos,
            sparse_merge,
        }
    }

    /// Builds the scheduler state — devices, replicas, buffers — ready for
    /// [`SchedulerState::drive`].
    fn scheduler<'a>(
        &'a self,
        dataset: &'a XmlDataset,
        resume: Option<&TrainingState>,
    ) -> SchedulerState<'a> {
        let n = self.profiles.len();
        let cfg = &self.config;
        let mconfig = self.mlp_config(dataset);
        let mut start_index = 0usize;
        let mut hypers: Vec<GpuHyper> = (0..n)
            .map(|_| GpuHyper::initial(cfg.b_max, cfg.base_lr))
            .collect();
        // The global model starts as the start-up model (or, resumed, the
        // snapshot's global model, whose shape `run_resumed` checked).
        let global = match resume {
            Some(state) => {
                hypers = state.hypers.clone();
                start_index = state.megas_done as usize;
                let mut global = Mlp::zeros(&mconfig);
                global.read_flat_buf(FlatRef::F32(&state.global));
                global
            }
            None => Mlp::init(&mconfig, cfg.seed),
        };
        // Fixed overheads scale with the dataset (see `RunConfig::overhead_scale`).
        let profiles: Vec<DeviceProfile> = self
            .profiles
            .iter()
            .map(|p| p.clone().with_overhead_scale(cfg.overhead_scale))
            .collect();
        let mut launch_model = LaunchModel::default_cuda();
        launch_model.base_overhead_s *= cfg.overhead_scale;
        let per_server = cfg.cluster.map_or(n, |cl| cl.devices_per_server);
        let param_len = mconfig.param_len();
        // Every replica is an overlay on the start-up model: a sampled one
        // holds the rows its steps touch, a dense-softmax one also every
        // class, refilled at each import, and a CROSSBOW one — the blend
        // moves every parameter — every row, copied here once. Each is
        // built on this thread, which also copies the momentum memory (a
        // fresh model-sized buffer is page-fault-bound, so it is allocated
        // untouched with huge-page advice, [`pages::zeroed`]) and (sampled
        // mode) hashes the start-up `W₂` once for every replica.
        let build: fn(&MlpConfig, FlatRef<'_>) -> Overlay =
            match (self.spec.merge_rule, cfg.sampled_softmax) {
                (MergeRule::Crossbow { .. }, _) => Overlay::whole,
                (_, Some(_)) => Overlay::new,
                (_, None) => Overlay::dense,
            };
        let base = FlatRef::F32(global.as_flat());
        let mut prev_global = pages::zeroed(param_len);
        prev_global.copy_from_slice(resume.map_or(global.as_flat(), |r| &r.prev_global));
        let lsh = cfg.sampled_softmax.map(|s| IndexArena::new(&s, &global));
        let reads_norm = matches!(self.spec.merge_rule, MergeRule::Normalized(_));
        let base_sq = reads_norm.then(|| import_sq(base));
        let replicas = (0..n)
            .map(|g| {
                let sampler = lsh.as_ref().map(IndexArena::sampler);
                Replica::new(g, build(&mconfig, base), dataset, sampler)
            })
            .collect();
        SchedulerState {
            spec: &self.spec,
            cfg,
            mconfig,
            dataset,
            pool: DevicePool::new(build_server(&profiles, cfg.seed), |g| g / per_server),
            ctx: match &cfg.cluster {
                // The single-server context is untouched by the cluster
                // feature: same constructor, same timing bits.
                None => CollectiveContext::new(
                    Topology::pcie(n).with_setup_scale(cfg.overhead_scale),
                    &profiles,
                ),
                Some(cl) => CollectiveContext::cluster(
                    &ClusterTopology::ethernet(cl.servers, cl.devices_per_server)
                        .with_setup_scale(cfg.overhead_scale),
                    &profiles,
                ),
            },
            launch_model,
            trace: if cfg.trace {
                TraceLog::enabled()
            } else {
                TraceLog::disabled()
            },
            stream: SampleStream::new(
                dataset.train.len(),
                cfg.seed ^ 0xA5A5_5A5A ^ (start_index as u64) << 17,
            ),
            budget: MegaBatchBudget::new(cfg.mega_batch_size),
            hypers,
            replicas,
            arrivals: Vec::with_capacity(n),
            work: vec![Vec::new(); n],
            payload: (cfg.precision == Precision::Bf16).then(|| pages::zeroed(param_len)),
            imported_payload: false,
            base_sq,
            global,
            prev_global,
            recorder: RunRecorder::new(),
            rr_cursor: 0,
            batches_dispatched: 0,
            start_index,
            scaling_scheduler: cfg
                .scaling_schedule
                .map(|(tol, cap)| ScalingScheduler::new(tol, cap)),
            chaos: ChaosStats::default(),
            // Enough for the pooled merge scratch (n replica-sized buffers
            // at the run's storage precision) plus slack; an OOM fault hogs
            // the capacity so the scratch request genuinely fails.
            merge_memory: MemoryTracker::new((n * param_len * cfg.precision.bytes()) as u64 + 4096),
            sparse_layout: SparseLayout::new(
                mconfig.num_features,
                mconfig.hidden,
                mconfig.num_classes,
            ),
            sparse_stats: SparseMergeStats::default(),
            merge_scratch: MergeScratch::default(),
            lsh,
            #[cfg(test)]
            gate_norms: Vec::new(),
        }
    }
}

/// All mutable scheduler-side state, grouped so the main loop reads cleanly.
struct SchedulerState<'a> {
    spec: &'a TrainerSpec,
    cfg: &'a RunConfig,
    mconfig: MlpConfig,
    dataset: &'a XmlDataset,
    /// The simulated devices, server-major; every fault goes through it.
    pool: DevicePool,
    /// Links and profiles of the live devices, in device order — in a
    /// cluster with their original server assignments, so cross-server hops
    /// still pay the inter-node link after partial losses. Rebuilt at
    /// eviction.
    ctx: CollectiveContext,
    launch_model: LaunchModel,
    trace: TraceLog,
    stream: SampleStream,
    budget: MegaBatchBudget,
    hypers: Vec<GpuHyper>,
    /// The live replicas, in device order; a lost device's is dropped at
    /// eviction.
    replicas: Vec<Replica<'a>>,
    /// When each live replica reached the merge, refilled at every merge.
    arrivals: Vec<SimTime>,
    /// Per device, the batches dispatched since the last merge in dispatch
    /// order: what its replica trains in the next phase, and what moves to
    /// survivors if the device is lost first.
    work: Vec<Vec<Vec<usize>>>,
    /// The bf16 redistribution payload, which every live replica imports
    /// (and the LSH index hashes): the merge's one model-sized buffer of its
    /// own. `None` at f32, where the payload would be `global` bit for bit,
    /// so the replicas import `global` in place.
    payload: Option<Vec<u16>>,
    /// Whether the replicas last imported the bf16 payload (since the first
    /// bf16 merge) rather than `global`: see [`import_base`]. Nothing writes
    /// either between an import and the next merge.
    imported_payload: bool,
    /// `Σx²` of the buffer every live replica last imported, from which each
    /// estimates its own for Algorithm 2's perturbation gate; `None` under
    /// the merge rules that read no norm.
    base_sq: Option<f64>,
    /// The global model. Evaluation reads it where it is.
    global: Mlp,
    prev_global: Vec<f32>,
    recorder: RunRecorder,
    rr_cursor: usize,
    batches_dispatched: usize,
    start_index: usize,
    scaling_scheduler: Option<ScalingScheduler>,
    /// Chaos accounting (empty unless a fault plan is set).
    chaos: ChaosStats,
    /// Memory budget of the merge stage's pooled scratch.
    merge_memory: MemoryTracker,
    /// Row space of the sparse wire format, which a sparse merge times.
    sparse_layout: SparseLayout,
    /// Sparse-merge accounting (untouched unless `cfg.sparse_merge`).
    sparse_stats: SparseMergeStats,
    /// The fused merge's compiled reduction and tile sums, recompiled only
    /// when the live set's size changes.
    merge_scratch: MergeScratch,
    /// `Some` iff the sampled softmax is on: the shared LSH index, brought
    /// up to date here once per model sync (see [`IndexArena`]).
    lsh: Option<IndexArena>,
    /// Per Algorithm 2 merge, the live replicas' exact norms per parameter
    /// the gate's oracle checked the sides against.
    #[cfg(test)]
    gate_norms: Vec<Vec<f64>>,
}

/// The buffer every live replica last imported: the bf16 `payload` once
/// the replicas have imported it, otherwise `global` (the start-up or
/// resumed model before the first merge, and every f32 import).
fn import_base<'b>(
    payload: &'b Option<Vec<u16>>,
    imported_payload: bool,
    global: &'b Mlp,
) -> FlatRef<'b> {
    match (payload, imported_payload) {
        (Some(p), true) => FlatRef::Bf16(p),
        _ => FlatRef::F32(global.as_flat()),
    }
}

impl SchedulerState<'_> {
    fn n(&self) -> usize {
        self.pool.n_devices()
    }

    /// Runs the whole training loop.
    fn drive(&mut self) {
        // The model replica moves to every GPU once, at training start
        // (within a mega-batch only batches move, §IV), at the run's
        // storage precision (bf16 halves the bytes on the wire).
        let transfer =
            model_transfer_kernels_sized(&self.mconfig, true, self.cfg.precision.bytes());
        for g in 0..self.n() {
            self.pool.device_mut(g).execute_all(&transfer);
        }
        // Sampled mode hashes every output neuron at startup.
        self.charge_lsh_rebuild();

        let mut mega_index = 0usize;
        loop {
            let mega = self.run_mega_batch(mega_index);
            let sim_time = self.pool.latest_live_clock().secs();
            let accuracy = eval::top1_accuracy(
                &self.global,
                &self.dataset.test.features,
                &self.dataset.test.labels,
                self.cfg.eval_chunk,
            );
            self.recorder.push(MergeRecord {
                merge_index: self.start_index + mega_index,
                sim_time,
                epochs: self.stream.epochs(),
                accuracy,
                mean_loss: mega.mean_loss,
                batch_sizes: self.hypers.iter().map(|h| h.batch_size).collect(),
                updates: mega.updates,
                perturbed: mega.perturbed,
                merge_weights: mega.weights,
            });
            mega_index += 1;
            if let Some(limit) = self.cfg.mega_batch_limit {
                if mega_index >= limit {
                    break;
                }
            }
            if let Some(limit) = self.cfg.time_limit {
                if sim_time >= limit {
                    break;
                }
            }
        }
    }

    /// Processes one mega-batch (dispatch, training phase, merge, scaling —
    /// or, merging every round, one such cycle per round); returns its
    /// summary for recording.
    fn run_mega_batch(&mut self, mega_index: usize) -> MegaSummary {
        let n = self.n();
        self.budget.refill();
        // Losses are accumulated per GPU in its training order and summed
        // in GPU-index order afterwards.
        let mut loss_sums = vec![0.0f64; n];
        let mut interval_updates = vec![0u64; n];
        let mut interval_samples = vec![0u64; n];
        let mut perturbed = false;
        let mut weights = vec![1.0 / n as f64; n];

        let deadline = self.cfg.time_limit.unwrap_or(f64::INFINITY);
        match self.spec.merge_interval {
            MergeInterval::MegaBatch => {
                let mut dispatched = 0usize;
                loop {
                    self.fire_due_faults(
                        mega_index,
                        dispatched,
                        false,
                        &mut interval_updates,
                        &mut interval_samples,
                    );
                    let g = self.pick_gpu();
                    // Stop dispatching once the budgeted time is exhausted
                    // (the merge still runs, so the final state is global).
                    if self.pool.device(g).now().secs() >= deadline {
                        break;
                    }
                    let want = self.hypers[g].rounded_batch();
                    let Some(got) = self.budget.grant(want) else {
                        break;
                    };
                    self.dispatch_batch(g, got);
                    interval_updates[g] += 1;
                    interval_samples[g] += got as u64;
                    dispatched += 1;
                }
                // Events whose dispatch ordinal was never reached fire at
                // the merge boundary (no event is silently dropped).
                self.fire_due_faults(
                    mega_index,
                    dispatched,
                    true,
                    &mut interval_updates,
                    &mut interval_samples,
                );
                let below = self.train_phase(&mut loss_sums);
                let decision = self.merge(&below, mega_index);
                perturbed = decision.perturbed;
                weights = decision.weights;
                let scale_now = match &mut self.scaling_scheduler {
                    Some(sched) => {
                        let sizes: Vec<f64> = self.hypers.iter().map(|h| h.batch_size).collect();
                        sched.observe_and_decide(&sizes)
                    }
                    None => true,
                };
                if scale_now {
                    self.scale_survivors();
                }
                for h in &mut self.hypers {
                    h.updates = 0;
                }
            }
            MergeInterval::EveryRound => {
                loop {
                    if self.pool.latest_live_clock().secs() >= deadline {
                        break;
                    }
                    let mut sent = 0usize;
                    #[allow(clippy::needless_range_loop)]
                    // g indexes hypers, devices, AND interval_updates
                    for g in 0..n {
                        let want = self.hypers[g].rounded_batch();
                        let Some(got) = self.budget.grant(want) else {
                            break;
                        };
                        self.dispatch_batch(g, got);
                        interval_updates[g] += 1;
                        interval_samples[g] += got as u64;
                        sent += 1;
                    }
                    if sent == 0 {
                        break;
                    }
                    let below = self.train_phase(&mut loss_sums);
                    let decision = self.merge(&below, mega_index);
                    weights = decision.weights;
                    for h in &mut self.hypers {
                        h.updates = 0;
                    }
                    if self.budget.remaining() == 0 {
                        break;
                    }
                }
            }
        }

        // Commit accounting and the interval mean loss over survivors only:
        // a dead replica's results never reach the global model. A
        // survivor trained every batch its interval counted.
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0u64;
        for g in (0..n).filter(|&g| self.pool.is_alive(g)) {
            loss_sum += loss_sums[g];
            loss_n += interval_updates[g];
            if self.cfg.fault_plan.is_some() {
                self.chaos.batches_committed += interval_updates[g];
                self.chaos.samples_committed += interval_samples[g];
            }
        }

        MegaSummary {
            mean_loss: if loss_n == 0 {
                0.0
            } else {
                loss_sum / loss_n as f64
            },
            updates: interval_updates,
            perturbed,
            weights,
        }
    }

    /// Runs the configured Algorithm 1 variant over the surviving replicas
    /// (the scaler's mean update count must not be dragged down by dead
    /// replicas pinned at zero updates).
    fn scale_survivors(&mut self) {
        let rule = match self.spec.scaling {
            ScalingPolicy::Adaptive => crate::hyper::ScalingRule::Linear,
            ScalingPolicy::AdaptiveMultiplicative => crate::hyper::ScalingRule::Multiplicative,
            ScalingPolicy::Fixed => return,
        };
        let alive_idx: Vec<usize> = (0..self.n()).filter(|&g| self.pool.is_alive(g)).collect();
        let mut sub: Vec<GpuHyper> = alive_idx.iter().map(|&g| self.hypers[g].clone()).collect();
        crate::hyper::scale_batch_sizes_with(&mut sub, &self.cfg.scaling_params, rule);
        for (&g, h) in alive_idx.iter().zip(sub) {
            self.hypers[g] = h;
        }
    }

    /// Chooses the GPU for the next batch per the dispatch policy. Dead
    /// replicas are never picked.
    fn pick_gpu(&mut self) -> usize {
        match self.spec.dispatch {
            DispatchPolicy::Dynamic => {
                // First-available = smallest virtual clock; ties (exact f64
                // equality, e.g. at t = 0) break by id for determinism.
                self.pool.earliest_free().expect("a device alive")
            }
            DispatchPolicy::Static => {
                let mut g = self.rr_cursor;
                while !self.pool.is_alive(g) {
                    g = (g + 1) % self.n();
                }
                self.rr_cursor = (g + 1) % self.n();
                g
            }
        }
    }

    /// Cuts a batch from the stream, charges its kernels to device `g`, and
    /// queues it on `g`'s work list.
    fn dispatch_batch(&mut self, g: usize, got: usize) {
        let ids = self.stream.take(got);
        self.charge_and_queue(g, ids);
    }

    /// Charges an id-batch's kernels to device `g` and appends it to `g`'s
    /// work list, which its replica trains in order at its learning rate.
    /// Shared by the primary dispatch path and the device-loss re-dispatch
    /// path — which is what makes candidate sets loss-proof: the sample seed
    /// is a function of the ids alone ([`batch_sample_seed`]), so a
    /// re-dispatched batch reselects identically.
    fn charge_and_queue(&mut self, g: usize, ids: Vec<usize>) {
        let got = ids.len();
        let nnz: usize = ids
            .iter()
            .map(|&i| self.dataset.train.features.row_nnz(i))
            .sum();
        let kinds = match self.cfg.sampled_softmax {
            Some(s) => {
                let cand = self.candidate_estimate(&ids, s.neg_samples);
                sampled_epoch_kernels(&self.mconfig, got, nnz, cand, s.tables)
            }
            None => epoch_kernels(&self.mconfig, got, nnz),
        };
        let extra = overhead_delta_for(&kinds, self.spec.fusion, &self.launch_model, self.n());
        let device = self.pool.device_mut(g);
        let t0 = device.now();
        device.charge_epoch(&kinds, self.spec.compute_overhead, extra);
        self.trace.record(
            DeviceId(g),
            t0,
            self.pool.device(g).now(),
            format!(
                "batch {} (size {got}, nnz {nnz}, lr {:.4})",
                self.batches_dispatched, self.hypers[g].lr
            ),
        );
        self.batches_dispatched += 1;
        self.hypers[g].updates += 1;
        self.work[g].push(ids);
    }

    /// The exact size of the candidate set the sampler will select for this
    /// batch — `min(|positive union| + neg_samples, classes)` — used for
    /// cost charging (the scheduler never runs the LSH itself).
    fn candidate_estimate(&self, ids: &[usize], neg_samples: usize) -> usize {
        let mut pos: Vec<u32> = ids
            .iter()
            .flat_map(|&i| self.dataset.train.labels[i].iter().copied())
            .collect();
        pos.sort_unstable();
        pos.dedup();
        (pos.len() + neg_samples).min(self.mconfig.num_classes)
    }

    /// Charges the per-sync LSH rebuild (sampled mode only) to every
    /// surviving device: the simulation models `n` GPUs that each re-hash
    /// all output neurons, in parallel, after a model sync (startup,
    /// redistribute, blend). The host computes those identical tables once
    /// ([`IndexArena::sync`]); what the simulated fleet pays is unchanged.
    fn charge_lsh_rebuild(&mut self) {
        let Some(s) = self.cfg.sampled_softmax else {
            return;
        };
        let kernels = lsh_rebuild_kernels(&self.mconfig, s.tables, s.k_bits);
        for g in 0..self.n() {
            if self.pool.is_alive(g) {
                self.pool.device_mut(g).execute_all(&kernels);
            }
        }
    }

    /// The training phase: every live replica, on a scoped thread of its
    /// own, trains its work list in order over the buffer it last imported,
    /// adding each batch loss to its device's `loss_sums` bucket, and
    /// collects the rows it changed. Under Algorithm 2 it then takes
    /// its side of the perturbation gate from the rows it changed
    /// ([`Replica::norm_estimate`]), sweeping its whole model
    /// ([`Replica::l2_norm_per_param`]) only when the estimate's error bound
    /// straddles `pert_thr`. Returns, per live replica in device order,
    /// whether its norm per parameter is below `pert_thr` (nothing under the
    /// rules that read no norm), and leaves every work list empty.
    fn train_phase(&mut self, loss_sums: &mut [f64]) -> Vec<bool> {
        let lsh_seed = self.cfg.sampled_softmax.map_or(0, |s| s.seed);
        let param_len = self.mconfig.param_len();
        let base = import_base(&self.payload, self.imported_payload, &self.global);
        let gate = match (self.spec.merge_rule, self.base_sq) {
            (MergeRule::Normalized(p), Some(s_base)) => Some((s_base, p.pert_thr)),
            _ => None,
        };
        // Per live replica: its device's running loss sum, then its side.
        let mut out: Vec<(f64, Option<bool>)> = self
            .replicas
            .iter()
            .map(|r| (loss_sums[r.gpu], None))
            .collect();
        std::thread::scope(|s| {
            for (r, (loss, below)) in self.replicas.iter_mut().zip(&mut out) {
                let batches = &self.work[r.gpu];
                let lr = self.hypers[r.gpu].lr as f32;
                s.spawn(move || {
                    for ids in batches {
                        *loss += r.train(ids, lr, batch_sample_seed(ids, lsh_seed), base);
                    }
                    r.collect_rows();
                    if let Some((s_base, thr)) = gate {
                        let estimate = r.norm_estimate(base, s_base);
                        *below = Some(
                            estimate
                                .below(param_len, thr)
                                .unwrap_or_else(|| r.l2_norm_per_param(base) < thr),
                        );
                    }
                });
            }
        });
        let mut sides = Vec::with_capacity(out.len());
        for (r, (loss, below)) in self.replicas.iter().zip(out) {
            loss_sums[r.gpu] = loss;
            sides.extend(below);
        }
        self.work.iter_mut().for_each(Vec::clear);
        sides
    }

    /// One full model-merging stage over the live replicas, which the
    /// training phase just left on the sides `below` of the perturbation
    /// gate:
    /// weights, one fused reduce-update-payload pass, the import phase,
    /// advance clocks.
    ///
    /// The stage is written once over the live devices; the clean run is
    /// the case where that is the whole fleet. After a device loss it merges
    /// only survivors, renormalizes `α_i` over them (Σα = 1 by
    /// construction), reduces over the survivors' collective context and
    /// redistributes to survivors only; dead devices' clocks freeze and
    /// their weights are 0 in the record.
    ///
    /// Model-sized buffers: [`FusedMerge`] reads every replica where its
    /// rows live — an overlay's slots, and the model it imported under them
    /// — streams them once, and leaves the new `global`/`prev_global` — at
    /// bf16 also the narrowed payload in [`Self::payload`] — which every
    /// live replica then imports from a shared borrow: an overlay forgets
    /// the rows its steps gave it (a dense-softmax one refills its classes),
    /// a CROSSBOW one blends toward it. A sparse merge only changes what the
    /// simulated wire carries. Steady-state merges allocate nothing
    /// model-sized.
    fn merge(&mut self, below: &[bool], mega_index: usize) -> MergeDecision {
        let n = self.n();
        let k = self.replicas.len();
        assert!(k >= 1, "no surviving device to merge");

        // The merge sub-problem over the live replicas, in device order.
        let decision = match self.spec.merge_rule {
            MergeRule::Normalized(params) => {
                assert_eq!(below.len(), k, "one gate side per live replica");
                let live_hypers: Vec<GpuHyper> = (self.replicas.iter())
                    .map(|r| self.hypers[r.gpu].clone())
                    .collect();
                let decision = merge_weights(&live_hypers, below.iter().all(|&b| b), &params);
                if cfg!(any(test, debug_assertions)) {
                    // The oracle: every side is the exact norm's, and so is
                    // the decision.
                    let base = import_base(&self.payload, self.imported_payload, &self.global);
                    let exact: Vec<f64> = self
                        .replicas
                        .iter()
                        .map(|r| r.l2_norm_per_param(base))
                        .collect();
                    for (&side, &norm) in below.iter().zip(&exact) {
                        assert_eq!(
                            side,
                            norm < params.pert_thr,
                            "perturbation gate at merge {mega_index} left the exact norm {norm}"
                        );
                    }
                    assert_eq!(
                        decision,
                        compute_merge_weights(&live_hypers, &exact, &params),
                        "merge {mega_index} left the exact norms' decision"
                    );
                    #[cfg(test)]
                    self.gate_norms.push(exact);
                }
                decision
            }
            MergeRule::Average { .. } | MergeRule::Crossbow { .. } => MergeDecision {
                weights: vec![1.0 / k as f64; k],
                by_updates: false,
                perturbed: false,
            },
        };

        // Cluster merges cross the slow inter-node link; Algorithm 2's α
        // weights assume every replica's per-mega update count stays inside
        // the band the batch-size clamps imply (§III-A) — the staleness
        // bound over the full fleet pins that here. Injected faults
        // (stalls, node losses) break the symmetry on purpose, so the bound
        // is a clean-run contract only (and a clean run loses no device).
        if self.cfg.cluster.is_some() && self.cfg.fault_plan.is_none() {
            let bound =
                StalenessBound::derive(&self.cfg.scaling_params, self.cfg.mega_batch_size, n);
            let updates: Vec<u64> = self.hypers.iter().map(|h| h.updates).collect();
            debug_assert!(
                bound.check(&updates),
                "staleness bound violated at merge {mega_index}: {updates:?} vs {bound:?}"
            );
        }

        self.arrivals.clear();
        let pool = &self.pool;
        self.arrivals
            .extend(self.replicas.iter().map(|r| pool.device(r.gpu).now()));
        let inter = self.cfg.cluster.as_ref().map(|cl| cl.inter);
        // Algorithm 2's momentum update redistributes the new global model;
        // CROSSBOW adopts the average as it is and blends replicas toward it.
        let (gamma, pull) = match self.spec.merge_rule {
            MergeRule::Normalized(MergeParams { gamma, .. }) | MergeRule::Average { gamma } => {
                (Some(gamma), None)
            }
            MergeRule::Crossbow { pull } => (None, Some(pull as f32)),
        };
        let pooled = self.pooled_merge_fits(k, mega_index);
        let fused = FusedMerge {
            weights: &decision.weights,
            gamma,
            algo: self.spec.allreduce,
            inter,
            ctx: &self.ctx,
            arrivals: &self.arrivals,
            pooled,
        };
        // Under Algorithm 2 the pass also sums the squares of what the
        // replicas import next: the next gate's base.
        let overlays: Vec<&Overlay> = self.replicas.iter().map(Replica::overlay).collect();
        let dense = fused.run(
            &mut self.merge_scratch,
            MergeInput::Overlays(&overlays),
            self.payload.as_deref_mut(),
            &mut self.global,
            &mut self.prev_global,
            self.base_sq.as_mut(),
        );
        // The arithmetic above is the dense collective's, element for
        // element (the reduction contract), so sparsity only changes what
        // the simulated wire carries; the dense timing is a dense merge's,
        // and doubles as the density-threshold fallback.
        let timing = if !self.cfg.sparse_merge {
            dense
        } else {
            let row_sets: Vec<&[u32]> = self.replicas.iter().map(Replica::rows).collect();
            let plan = SparseMergePlan {
                algo: self.spec.allreduce,
                inter,
                elem_bytes: self.cfg.precision.bytes(),
                max_density: self.cfg.sparse_max_density,
            };
            let s = sparse_merge_timing(
                &self.sparse_layout,
                &row_sets,
                &plan,
                &self.ctx,
                &self.arrivals,
                dense,
            );
            self.sparse_stats.merges += 1;
            self.sparse_stats.fallbacks += u64::from(s.fell_back);
            self.sparse_stats.sparse_bytes += s.timing.bytes_moved as u64;
            self.sparse_stats.dense_bytes += dense.bytes_moved as u64;
            s.timing
        };
        self.imported_payload = self.payload.is_some();

        // The import phase: one read-only payload — the bf16 buffer, or at
        // f32 `global` itself — synced once into the LSH index, then
        // imported (or blended toward) by every live replica on a scoped
        // thread of its own, adopting that index.
        let payload = match &self.payload {
            Some(p) => FlatRef::Bf16(p),
            None => FlatRef::F32(self.global.as_flat()),
        };
        // At f32, after a momentum update, `prev_global` is the model the
        // live index hashed: what the certificate compares against.
        let old = (pull.is_none() && self.payload.is_none()).then_some(&self.prev_global[..]);
        if let Some(a) = self.lsh.as_mut() {
            a.sync(payload, old);
        }
        let index = self.lsh.as_ref().map(IndexArena::live);
        std::thread::scope(|s| {
            for r in &mut self.replicas {
                s.spawn(move || match pull {
                    None => r.set_model(payload, index),
                    Some(pull) => r.blend(payload, pull, index),
                });
            }
        });
        debug_assert!(
            self.lsh.as_ref().is_none_or(|a| a.holders() == k),
            "exactly the live replicas hold the synced index"
        );

        for r in &self.replicas {
            self.pool.device_mut(r.gpu).advance_to(timing.end);
        }
        // Sampled mode: every live device re-hashes the output neurons
        // against the freshly synced model.
        self.charge_lsh_rebuild();
        // Full-length weights for the record: dead slots carry weight 0.
        let mut weights = vec![0.0f64; n];
        for (r, &w) in self.replicas.iter().zip(&decision.weights) {
            weights[r.gpu] = w;
        }
        let rounded: Vec<f64> = weights
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect();
        let who = if k == n {
            String::new()
        } else {
            let gpus: Vec<usize> = self.replicas.iter().map(|r| r.gpu).collect();
            format!("survivors {gpus:?}, ")
        };
        self.trace.record(
            DeviceId(self.replicas[0].gpu),
            timing.start,
            timing.end,
            format!(
                "merge ({who}weights {rounded:?}, perturbed {})",
                decision.perturbed
            ),
        );
        MergeDecision {
            weights,
            ..decision
        }
    }
}

/// Per-mega-batch summary used for recording.
struct MegaSummary {
    mean_loss: f64,
    updates: Vec<u64>,
    perturbed: bool,
    weights: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use asgd_collective::allreduce;
    use asgd_data::{generate, DatasetSpec};
    use asgd_gpusim::profile::{heterogeneous_server, homogeneous_server};
    use asgd_tensor::FlatVec;

    fn quick_config() -> RunConfig {
        let mut c = RunConfig::paper_defaults(32, 4);
        c.hidden = 12;
        c.mega_batch_limit = Some(4);
        c.eval_chunk = 64;
        c
    }

    fn dataset() -> XmlDataset {
        generate(&DatasetSpec::tiny("trainer"), 5)
    }

    #[test]
    fn adaptive_runs_and_records() {
        let ds = dataset();
        let result = Trainer::new(
            algorithms::adaptive_sgd(),
            heterogeneous_server(2),
            quick_config(),
        )
        .run(&ds);
        assert_eq!(result.records.len(), 4);
        // Time moves forward strictly across mega-batches.
        for w in result.records.windows(2) {
            assert!(w[1].sim_time > w[0].sim_time);
            assert!(w[1].epochs > w[0].epochs);
        }
        assert!(!result.final_model.is_empty());
    }

    #[test]
    fn adaptive_is_deterministic_across_runs() {
        let ds = dataset();
        let run = || {
            Trainer::new(
                algorithms::adaptive_sgd(),
                heterogeneous_server(2),
                quick_config(),
            )
            .run(&ds)
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_model, b.final_model);
        assert_eq!(
            a.records.iter().map(|r| r.sim_time).collect::<Vec<_>>(),
            b.records.iter().map(|r| r.sim_time).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dynamic_dispatch_gives_slow_gpu_fewer_updates() {
        let ds = dataset();
        // Very skewed server: second GPU at half speed.
        let profiles = vec![
            asgd_gpusim::DeviceProfile::v100("fast"),
            asgd_gpusim::DeviceProfile::v100("slow").with_speed(0.5),
        ];
        let mut config = quick_config();
        config.mega_batch_limit = Some(1);
        // Enough batches per mega-batch that the 2x speed gap dominates the
        // per-batch nnz variance of the synthetic dataset.
        config.mega_batch_size = config.b_max * 24;
        let result = Trainer::new(algorithms::adaptive_sgd(), profiles, config).run(&ds);
        let updates = &result.records[0].updates;
        assert!(
            updates[0] > updates[1],
            "fast GPU should run more batches: {updates:?}"
        );
    }

    #[test]
    fn elastic_static_dispatch_gives_equal_updates() {
        let ds = dataset();
        let profiles = vec![
            asgd_gpusim::DeviceProfile::v100("fast"),
            asgd_gpusim::DeviceProfile::v100("slow").with_speed(0.5),
        ];
        let mut config = quick_config();
        config.mega_batch_limit = Some(1);
        let result = Trainer::new(algorithms::elastic_sgd(), profiles, config).run(&ds);
        let updates = &result.records[0].updates;
        assert_eq!(updates[0], updates[1], "static dispatch must be equal");
    }

    #[test]
    fn adaptive_batch_sizes_move_on_heterogeneous_server() {
        let ds = dataset();
        let profiles = vec![
            asgd_gpusim::DeviceProfile::v100("fast"),
            asgd_gpusim::DeviceProfile::v100("slow").with_speed(0.5),
        ];
        let mut config = quick_config();
        config.mega_batch_limit = Some(6);
        // As above: a wide mega-batch makes the update-count gap (and thus
        // Algorithm 1's batch-size movement) robust to dataset sparsity noise.
        config.mega_batch_size = config.b_max * 24;
        let result = Trainer::new(algorithms::adaptive_sgd(), profiles, config).run(&ds);
        let last = result.records.last().unwrap();
        assert!(
            last.batch_sizes[0] > last.batch_sizes[1],
            "faster GPU should end with the larger batch: {:?}",
            last.batch_sizes
        );
    }

    #[test]
    fn elastic_keeps_batch_sizes_fixed() {
        let ds = dataset();
        let result = Trainer::new(
            algorithms::elastic_sgd(),
            heterogeneous_server(2),
            quick_config(),
        )
        .run(&ds);
        for r in &result.records {
            assert!(r.batch_sizes.iter().all(|&b| b == 32.0));
        }
    }

    #[test]
    fn sync_sgd_merges_every_round_and_replicas_stay_identical() {
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(2);
        let result =
            Trainer::new(algorithms::tensorflow_sync(), homogeneous_server(2), config).run(&ds);
        assert_eq!(result.records.len(), 2);
        assert!(result.records[1].accuracy >= 0.0);
    }

    #[test]
    fn crossbow_runs() {
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(2);
        let result =
            Trainer::new(algorithms::crossbow_sma(), heterogeneous_server(2), config).run(&ds);
        assert_eq!(result.records.len(), 2);
    }

    #[test]
    fn single_gpu_all_algorithms_agree_on_update_counts() {
        // With one GPU, Adaptive and Elastic degenerate to mini-batch SGD
        // (the paper plots them as a single curve in Fig. 4).
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(2);
        let a = Trainer::new(
            algorithms::adaptive_sgd(),
            homogeneous_server(1),
            config.clone(),
        )
        .run(&ds);
        let e = Trainer::new(algorithms::elastic_sgd(), homogeneous_server(1), config).run(&ds);
        assert_eq!(
            a.records
                .iter()
                .map(|r| r.updates.clone())
                .collect::<Vec<_>>(),
            e.records
                .iter()
                .map(|r| r.updates.clone())
                .collect::<Vec<_>>()
        );
        // Same model math: identical final replicas.
        assert_eq!(a.final_model, e.final_model);
    }

    /// The pooled merge path (collective reductions, redistribution copies,
    /// momentum update) must not depend on the worker count: a whole run is
    /// bit-identical at `ASGD_THREADS=1` and `=8`, for both the
    /// `set_model` and the `blend` redistribution.
    #[test]
    fn run_is_bit_identical_across_thread_counts() {
        let ds = dataset();
        for spec in [algorithms::adaptive_sgd(), algorithms::crossbow_sma()] {
            let run =
                || Trainer::new(spec.clone(), heterogeneous_server(2), quick_config()).run(&ds);
            asgd_tensor::parallel::override_threads(1);
            let serial = run();
            asgd_tensor::parallel::override_threads(8);
            let pooled = run();
            asgd_tensor::parallel::override_threads(0);
            assert_eq!(
                serial.final_model, pooled.final_model,
                "{}: thread count changed the result",
                spec.name
            );
            assert_eq!(
                serial
                    .records
                    .iter()
                    .map(|r| r.accuracy)
                    .collect::<Vec<_>>(),
                pooled
                    .records
                    .iter()
                    .map(|r| r.accuracy)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// Recycled gather slots across consecutive merges produce exactly the
    /// bits fresh allocations would — no state leaks through the recycling.
    #[test]
    fn recycled_slot_merges_match_fresh_buffers() {
        use asgd_gpusim::profile::homogeneous_server;

        let n = 4;
        let len = 257;
        let ctx = CollectiveContext::new(Topology::pcie(n), &homogeneous_server(n));
        let arrivals = vec![SimTime::ZERO; n];
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let replica =
            |merge: usize, g: usize, i: usize| ((merge * 31 + g * 7 + i) % 13) as f32 - 6.0;

        let mut slots = vec![FlatVec::empty(Precision::F32); n];
        for merge in 0..3 {
            // Recycle the same buffers, refilled in place like a replica's
            // `write_flat_buf` does.
            for (g, slot) in slots.iter_mut().enumerate() {
                let FlatVec::F32(buf) = slot else {
                    panic!("f32 slot holds {slot:?}");
                };
                buf.clear();
                buf.extend((0..len).map(|i| replica(merge, g, i)));
            }
            asgd_collective::allreduce_flat(
                &mut slots,
                &weights,
                Algorithm::MultiStreamRing { partitions: n },
                &ctx,
                &arrivals,
            );
            // Fresh path: identical inputs in brand-new allocations.
            let mut fresh: Vec<Vec<f32>> = (0..n)
                .map(|g| (0..len).map(|i| replica(merge, g, i)).collect())
                .collect();
            allreduce(
                &mut fresh,
                &weights,
                Algorithm::MultiStreamRing { partitions: n },
                &ctx,
                &arrivals,
            );
            for (g, f) in fresh.iter().enumerate() {
                assert_eq!(slots[g], FlatVec::F32(f.clone()), "merge {merge} gpu {g}");
            }
        }
    }

    /// Satellite gate for the bf16 tier: a whole bf16-precision run is
    /// bit-identical across worker thread counts, same as the f32 run —
    /// every bf16 round point is placement-independent.
    #[test]
    fn bf16_run_is_bit_identical_across_thread_counts() {
        let ds = dataset();
        let mut config = quick_config();
        config.precision = Precision::Bf16;
        for spec in [algorithms::adaptive_sgd(), algorithms::crossbow_sma()] {
            let run =
                || Trainer::new(spec.clone(), heterogeneous_server(2), config.clone()).run(&ds);
            asgd_tensor::parallel::override_threads(1);
            let serial = run();
            asgd_tensor::parallel::override_threads(8);
            let pooled = run();
            asgd_tensor::parallel::override_threads(0);
            assert_eq!(
                serial.final_model, pooled.final_model,
                "{}: thread count changed the bf16 result",
                spec.name
            );
            assert_eq!(
                serial
                    .records
                    .iter()
                    .map(|r| r.accuracy)
                    .collect::<Vec<_>>(),
                pooled
                    .records
                    .iter()
                    .map(|r| r.accuracy)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// bf16 storage must not change the optimization qualitatively: the
    /// final global model stays within bf16-scale distance of the f32 run
    /// and the run still learns.
    #[test]
    fn bf16_run_tracks_f32_run_within_tolerance() {
        let ds = dataset();
        let f32_cfg = quick_config();
        let mut bf16_cfg = quick_config();
        bf16_cfg.precision = Precision::Bf16;
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let a = run(f32_cfg);
        let b = run(bf16_cfg);
        assert_eq!(a.records.len(), b.records.len());
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for (x, y) in a.final_model.iter().zip(b.final_model.iter()) {
            num += ((x - y) as f64).powi(2);
            den += (*x as f64).powi(2);
        }
        let rel = (num / den.max(1e-30)).sqrt();
        // bf16 has ~3 decimal digits; merge-stage-only narrowing keeps the
        // drift around the format's epsilon, far below 5%.
        assert!(rel < 0.05, "bf16 drifted {rel} from the f32 trajectory");
        let f32_acc = a.records.last().unwrap().accuracy;
        let bf16_acc = b.records.last().unwrap().accuracy;
        assert!(
            (f32_acc - bf16_acc).abs() < 0.1,
            "accuracy gap too wide: f32 {f32_acc} vs bf16 {bf16_acc}"
        );
    }

    /// Tentpole determinism gate: a full sampled-softmax run — LSH tables,
    /// candidate selection, gathered-row kernels, sparse output update —
    /// is bit-identical at `ASGD_THREADS=1` and `=8`, for two different
    /// master seeds (so the property is not an artifact of one trajectory).
    #[test]
    fn sampled_run_is_bit_identical_across_thread_counts() {
        let ds = dataset();
        for seed in [42u64, 1913] {
            let mut config = quick_config();
            config.seed = seed;
            config.sampled_softmax = Some(SampledSoftmax::defaults(12));
            let run = || {
                Trainer::new(
                    algorithms::adaptive_sgd(),
                    heterogeneous_server(2),
                    config.clone(),
                )
                .run(&ds)
            };
            asgd_tensor::parallel::override_threads(1);
            let serial = run();
            asgd_tensor::parallel::override_threads(8);
            let pooled = run();
            asgd_tensor::parallel::override_threads(0);
            assert_eq!(
                serial.final_model, pooled.final_model,
                "seed {seed}: thread count changed the sampled result"
            );
            assert_eq!(
                serial
                    .records
                    .iter()
                    .map(|r| (r.mean_loss.to_bits(), r.accuracy.to_bits()))
                    .collect::<Vec<_>>(),
                pooled
                    .records
                    .iter()
                    .map(|r| (r.mean_loss.to_bits(), r.accuracy.to_bits()))
                    .collect::<Vec<_>>(),
                "seed {seed}: per-merge records drifted"
            );
        }
    }

    /// Convergence gate: sampled-softmax training must track the dense
    /// reference — same learning signal through a shrunken output layer.
    /// With the tiny 40-class space and 16 negatives the candidate sets
    /// cover most classes, so the final losses agree within the same 5%
    /// relative tolerance the bf16 tier is held to, and accuracy matches.
    #[test]
    fn sampled_run_tracks_dense_run() {
        let ds = dataset();
        let mut dense_cfg = quick_config();
        dense_cfg.mega_batch_limit = Some(12);
        dense_cfg.base_lr = 0.25;
        let mut sampled_cfg = dense_cfg.clone();
        sampled_cfg.sampled_softmax = Some(SampledSoftmax::defaults(16));
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let dense = run(dense_cfg);
        let sampled = run(sampled_cfg);
        // Both learn.
        let first = sampled.records.first().unwrap().accuracy;
        let best = sampled.best_accuracy();
        assert!(
            best > first + 0.05,
            "sampled run is not learning: first {first}, best {best}"
        );
        // The final candidate-set loss tracks the full-softmax loss.
        let dl = dense.records.last().unwrap().mean_loss;
        let sl = sampled.records.last().unwrap().mean_loss;
        let rel = (dl - sl).abs() / dl.max(1e-30);
        assert!(
            rel < 0.05,
            "sampled loss drifted {rel} from dense ({sl} vs {dl})"
        );
        // And the models end in comparable places accuracy-wise.
        let da = dense.records.last().unwrap().accuracy;
        let sa = sampled.records.last().unwrap().accuracy;
        assert!(
            (da - sa).abs() < 0.1,
            "accuracy gap too wide: dense {da} vs sampled {sa}"
        );
    }

    /// Sampled mode must also charge differently: the simulated epoch cost
    /// at identical shapes is lower than dense (output work shrinks to the
    /// candidate set), so sim time advances less per mega-batch.
    #[test]
    fn sampled_runs_charge_cheaper_epochs_than_dense() {
        let ds = dataset();
        let dense_cfg = quick_config();
        let mut sampled_cfg = quick_config();
        sampled_cfg.sampled_softmax = Some(SampledSoftmax::defaults(8));
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let dense = run(dense_cfg);
        let sampled = run(sampled_cfg);
        // Same batch counts, smaller per-epoch kernels: with the per-sync
        // LSH rebuild charged on top the gap narrows at this tiny shape,
        // but dense must still not be cheaper.
        let d = dense.records.last().unwrap().sim_time;
        let s = sampled.records.last().unwrap().sim_time;
        assert!(
            s < d * 1.5,
            "sampled charging out of range: {s} vs dense {d}"
        );
    }

    /// Tentpole gate: a sparse-delta-merge run produces the *same bits* as
    /// the dense-merge run — same final model, same per-merge losses and
    /// accuracies — while charging strictly less simulated merge traffic.
    /// Clock resync at each merge makes the trajectory independent of the
    /// merge schedule's duration, so only `sim_time` may differ.
    #[test]
    fn sparse_merge_run_is_bit_identical_to_dense_run() {
        let ds = dataset();
        let mut dense_cfg = quick_config();
        dense_cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        // The tiny 40-class space makes unions dense; disable the fallback
        // so the sparse schedule genuinely runs.
        dense_cfg.sparse_max_density = 1.0;
        let mut sparse_cfg = dense_cfg.clone();
        sparse_cfg.sparse_merge = true;
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let dense = run(dense_cfg);
        let sparse = run(sparse_cfg);
        assert_eq!(dense.final_model, sparse.final_model);
        assert_eq!(
            dense
                .records
                .iter()
                .map(|r| (
                    r.mean_loss.to_bits(),
                    r.accuracy.to_bits(),
                    r.updates.clone()
                ))
                .collect::<Vec<_>>(),
            sparse
                .records
                .iter()
                .map(|r| (
                    r.mean_loss.to_bits(),
                    r.accuracy.to_bits(),
                    r.updates.clone()
                ))
                .collect::<Vec<_>>()
        );
        assert!(dense.sparse_merge.is_none());
        let stats = sparse.sparse_merge.expect("sparse run must report stats");
        assert_eq!(stats.merges, 4);
        assert_eq!(stats.fallbacks, 0);
        assert!(
            stats.sparse_bytes < stats.dense_bytes,
            "sparse {} !< dense {}",
            stats.sparse_bytes,
            stats.dense_bytes
        );
    }

    /// With the density threshold at zero every merge falls back: timing
    /// (and thus `sim_time`) matches the dense run exactly, bits included.
    #[test]
    fn sparse_merge_fallback_reproduces_dense_timing() {
        let ds = dataset();
        let mut dense_cfg = quick_config();
        dense_cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        let mut sparse_cfg = dense_cfg.clone();
        sparse_cfg.sparse_merge = true;
        sparse_cfg.sparse_max_density = 0.0;
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let dense = run(dense_cfg);
        let sparse = run(sparse_cfg);
        assert_eq!(dense.final_model, sparse.final_model);
        assert_eq!(
            dense
                .records
                .iter()
                .map(|r| r.sim_time.to_bits())
                .collect::<Vec<_>>(),
            sparse
                .records
                .iter()
                .map(|r| r.sim_time.to_bits())
                .collect::<Vec<_>>()
        );
        let stats = sparse.sparse_merge.unwrap();
        assert_eq!(stats.fallbacks, stats.merges);
        assert_eq!(stats.sparse_bytes, stats.dense_bytes);
    }

    /// A device loss between two merges on the sampled path (sparse merge
    /// under `set_model`, dense under `blend`): the merges after it sync
    /// the shared index to exactly the live replicas (the scheduler's
    /// `holders` debug assertion runs in this build), the re-dispatched
    /// batches reselect from the index the lost replica used, and the whole
    /// faulted run stays a pure function of its seeds — for both
    /// redistributions alike.
    #[test]
    fn sampled_device_loss_syncs_the_index_to_survivors_only() {
        let ds = dataset();
        // Fault plans need merge-per-mega-batch, which rules out
        // `crossbow_sma`; its `blend` redistribution does not.
        let mut blend = algorithms::adaptive_sgd();
        blend.merge_rule = MergeRule::Crossbow { pull: 0.5 };
        for spec in [algorithms::adaptive_sgd(), blend] {
            let mut config = quick_config();
            config.sampled_softmax = Some(SampledSoftmax::defaults(12));
            // Sparse where the rule allows it; a blend dirties every row.
            config.sparse_merge = !matches!(spec.merge_rule, MergeRule::Crossbow { .. });
            config.fault_plan = Some(FaultPlan::new().device_loss(1, 2, 1));
            let run =
                || Trainer::new(spec.clone(), heterogeneous_server(3), config.clone()).run(&ds);
            let a = run();
            assert_eq!(a.records.len(), 4);
            assert_eq!(a.chaos.lost_gpus, vec![1]);
            assert!(a.chaos.redispatched_batches >= 1, "{}", spec.name);
            asgd_tensor::parallel::override_threads(8);
            let b = run();
            asgd_tensor::parallel::override_threads(0);
            assert_eq!(a.final_model, b.final_model, "{}", spec.name);
            assert_eq!(a.chaos.render(), b.chaos.render());
        }
    }

    /// Sparse merge under Crossbow is a named configuration error, not a
    /// run that silently stays dense.
    #[test]
    fn sparse_merge_gates_off_crossbow() {
        let mut cfg = quick_config();
        cfg.sparse_merge = true;
        assert_eq!(cfg.validate(&algorithms::adaptive_sgd(), 2), Ok(()));
        cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        assert_eq!(
            cfg.validate(&algorithms::crossbow_sma(), 2),
            Err(ConfigError::SparseMergeUnderCrossbow)
        );
        assert_eq!(cfg.validate(&algorithms::adaptive_sgd(), 2), Ok(()));
        // `Trainer::new` refuses by the same name.
        let refused = std::panic::catch_unwind(|| {
            Trainer::new(algorithms::crossbow_sma(), heterogeneous_server(2), cfg)
        });
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(message, ConfigError::SparseMergeUnderCrossbow.to_string());
    }

    /// A fault plan naming a device or server the fleet lacks is refused by
    /// name at construction, for every fault kind — not an index panic
    /// mid-run.
    #[test]
    fn fault_plans_naming_a_missing_target_are_refused_by_name() {
        let missing = |server_level, target, have| ConfigError::FaultTargetMissing {
            server_level,
            target,
            have,
        };
        let flat = quick_config();
        let mut clustered = quick_config();
        clustered.cluster = Some(ClusterConfig {
            servers: 2,
            devices_per_server: 1,
            inter: InterNode::Ring,
        });
        let plan = FaultPlan::new;
        for (base, plan, want) in [
            (
                &flat,
                plan().speed_change(0, 1, 5, 0.5),
                missing(false, 5, 2),
            ),
            (&flat, plan().stall(0, 1, 5, 0.1), missing(false, 5, 2)),
            (&flat, plan().device_loss(0, 1, 2), missing(false, 2, 2)),
            (&flat, plan().server_loss(0, 1, 1), missing(true, 1, 1)),
            (
                &flat,
                plan().inter_node_stall(0, 1, 1, 0.1),
                missing(true, 1, 1),
            ),
            (&clustered, plan().server_loss(0, 1, 2), missing(true, 2, 2)),
            (
                &clustered,
                plan().inter_node_stall(0, 1, 2, 0.1),
                missing(true, 2, 2),
            ),
        ] {
            let mut cfg = base.clone();
            cfg.fault_plan = Some(plan);
            assert_eq!(cfg.validate(&algorithms::adaptive_sgd(), 2), Err(want));
            let refused = std::panic::catch_unwind(|| {
                Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg)
            });
            let message = *refused.unwrap_err().downcast::<String>().unwrap();
            assert_eq!(message, want.to_string());
        }
        // In range — the last device, the only server, and a merge OOM
        // (which names no device) — is accepted.
        let mut cfg = flat.clone();
        cfg.fault_plan = Some(plan().stall(0, 1, 1, 0.1).server_loss(1, 0, 0).merge_oom(0));
        assert_eq!(cfg.validate(&algorithms::adaptive_sgd(), 2), Ok(()));
        assert_eq!(
            missing(false, 5, 2).to_string(),
            "fault plan targets gpu 5; the fleet has 2"
        );
    }

    /// Steady-state merges allocate nothing model-sized. Dense or sparse, at
    /// f32 or bf16, the global model and its momentum memory trade the same
    /// two buffers (each merge writes the new model over the momentum
    /// memory, then swaps them), and the payload — a bf16 buffer, none at
    /// f32 — keeps its address through 4 mega-batches.
    #[test]
    fn merge_buffers_keep_their_addresses() {
        let sorted = |a: *const f32, b: *const f32| if a < b { (a, b) } else { (b, a) };
        let ds = dataset();
        let mut cfg = quick_config();
        cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        for precision in [Precision::F32, Precision::Bf16] {
            for sparse in [true, false] {
                cfg.precision = precision;
                cfg.sparse_merge = sparse;
                let trainer = Trainer::new(
                    algorithms::adaptive_sgd(),
                    heterogeneous_server(3),
                    cfg.clone(),
                );
                let mut state = trainer.scheduler(&ds, None);
                let len = state.global.param_len();
                let buffers = |s: &SchedulerState| {
                    (
                        sorted(s.global.as_flat().as_ptr(), s.prev_global.as_ptr()),
                        s.payload.as_ref().map(|p| (p.as_ptr(), p.len())),
                    )
                };
                let first = buffers(&state);
                let bf16 = precision == Precision::Bf16;
                assert_eq!(first.1.map(|p| p.1), bf16.then_some(len));
                for mega in 0..4 {
                    state.run_mega_batch(mega);
                    let what = format!("{precision:?}, sparse {sparse}, mega {mega}");
                    assert_eq!(buffers(&state), first, "{what}");
                }
            }
        }
    }

    /// The import reads the payload where it lives — at f32 `global`
    /// itself. After every merge each live replica holds `global` rounded
    /// at the storage precision, bit for bit (the identity at f32,
    /// `widen(narrow(·))` at bf16), and the shared LSH index — at f32 under
    /// Algorithm 2 and plain averaging, synced by certificate against the
    /// momentum memory — equals one rebuilt from an explicit copy of that
    /// payload: for dense and sparse merges, under Algorithm 2 and (f32)
    /// plain averaging, across a survivor merge after a device loss,
    /// through the serial fallback of a merge-time OOM, and on through a
    /// resume from the state the run reached.
    #[test]
    fn every_replica_imports_global_at_the_storage_precision() {
        use asgd_slide::LshIndex;
        let ds = dataset();
        let labels: Vec<&[u32]> = (0..6).map(|i| ds.train.labels[i].as_slice()).collect();
        let check = |state: &SchedulerState, cfg: &RunConfig, what: &str| {
            let want: Vec<u32> = match cfg.precision {
                Precision::F32 => state.global.as_flat().to_vec(),
                Precision::Bf16 => {
                    let mut narrowed = vec![0u16; state.global.param_len()];
                    asgd_tensor::bf16::narrow_slice(state.global.as_flat(), &mut narrowed);
                    narrowed.into_iter().map(asgd_tensor::bf16::widen).collect()
                }
            }
            .iter()
            .map(|x| x.to_bits())
            .collect();
            let base = import_base(&state.payload, state.imported_payload, &state.global);
            for r in &state.replicas {
                let got: Vec<u32> = r
                    .materialize(base)
                    .as_flat()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                assert!(got == want, "gpu {} is not global, {what}", r.gpu);
            }
            let Some(arena) = &state.lsh else { return };
            let copy = match &state.payload {
                Some(p) => FlatVec::Bf16(p.clone()),
                None => FlatVec::F32(state.global.to_flat()),
            };
            let c = state.mconfig;
            let s = cfg.sampled_softmax.expect("sampled");
            let mut rebuilt = LshIndex::new(s.tables, s.k_bits, c.hidden, s.seed);
            let [_, _, w2, _] = c.block_ranges();
            rebuilt.rebuild_flat(&copy, w2.start, c.num_classes);
            assert!(**arena.live() == rebuilt, "index, {what}");
            let mut from_copy =
                asgd_slide::CandidateSampler::with_index(Arc::new(rebuilt), s.neg_samples);
            let mut synced = arena.sampler();
            for seed in [0u64, 7, 0xB00F] {
                assert_eq!(
                    synced.select(&labels, seed).to_vec(),
                    from_copy.select(&labels, seed),
                    "index, seed {seed}, {what}"
                );
            }
        };
        let mut cases = Vec::new();
        for precision in [Precision::F32, Precision::Bf16] {
            for (sampled, sparse) in [(false, false), (true, false), (true, true)] {
                cases.push((algorithms::adaptive_sgd(), precision, sampled, sparse));
            }
        }
        for sparse in [false, true] {
            cases.push((algorithms::elastic_sgd(), Precision::F32, true, sparse));
        }
        for (spec, precision, sampled, sparse) in cases {
            let mut cfg = quick_config();
            cfg.precision = precision;
            cfg.sampled_softmax = sampled.then(|| SampledSoftmax::defaults(12));
            cfg.sparse_merge = sparse;
            cfg.fault_plan = Some(FaultPlan::new().merge_oom(1).device_loss(2, 2, 1));
            let rule = spec.merge_rule;
            let trainer = Trainer::new(spec, heterogeneous_server(3), cfg.clone());
            let mut state = trainer.scheduler(&ds, None);
            for mega in 0..4 {
                state.run_mega_batch(mega);
                let what =
                    format!("{rule:?} {precision:?}, sampled {sampled}, sparse {sparse}, {mega}");
                assert_eq!(state.replicas.len(), if mega < 2 { 3 } else { 2 }, "{what}");
                check(&state, &cfg, &what);
            }
            assert_eq!(state.chaos.serial_fallback_merges, 1);
            assert_eq!(state.chaos.lost_gpus, vec![1]);
            // Resumed from where the run got to: the index starts from the
            // resumed model and syncs on from there.
            let snapshot = TrainingState {
                global: Arc::new(state.global.to_flat()),
                prev_global: state.prev_global.clone(),
                hypers: state.hypers.clone(),
                megas_done: 4,
            };
            let mut resumed = trainer.scheduler(&ds, Some(&snapshot));
            for mega in 4..6 {
                resumed.run_mega_batch(mega);
                let what = format!(
                    "{rule:?} {precision:?}, sampled {sampled}, sparse {sparse}, resumed {mega}"
                );
                check(&resumed, &cfg, &what);
            }
        }
    }

    /// Limits that would misbehave — a NaN time limit that never ends a
    /// run, one that ends it before it starts, a zero mega-batch limit that
    /// trains one anyway — are refused by name.
    #[test]
    fn limits_that_misbehave_are_refused_by_name() {
        let spec = algorithms::adaptive_sgd();
        let with = |time_limit, mega_batch_limit| RunConfig {
            time_limit,
            mega_batch_limit,
            ..quick_config()
        };
        for (cfg, want) in [
            (with(Some(f64::NAN), None), ConfigError::TimeLimitNaN),
            (with(Some(f64::NAN), Some(2)), ConfigError::TimeLimitNaN),
            (with(Some(0.0), None), ConfigError::TimeLimitNotPositive),
            (with(Some(-1.0), Some(2)), ConfigError::TimeLimitNotPositive),
            (
                with(Some(f64::NEG_INFINITY), None),
                ConfigError::TimeLimitNotPositive,
            ),
            (with(None, Some(0)), ConfigError::ZeroMegaBatchLimit),
            (with(Some(1.0), Some(0)), ConfigError::ZeroMegaBatchLimit),
            (with(Some(f64::INFINITY), None), ConfigError::NoLimit),
        ] {
            assert_eq!(cfg.validate(&spec, 2), Err(want), "{cfg:?}");
        }
        for (time_limit, mega_batch_limit) in [
            (Some(1e-9), None),
            (None, Some(1)),
            (Some(f64::INFINITY), Some(3)),
        ] {
            assert_eq!(
                with(time_limit, mega_batch_limit).validate(&spec, 2),
                Ok(())
            );
        }
    }

    /// The exact norms per parameter the gate's oracle checked, per merge,
    /// of one run of `spec` under `config` on a heterogeneous server of `n`
    /// devices. The oracle asserts at every merge that each replica's side
    /// and the `MergeDecision` are the ones those norms give.
    fn gate_norms(spec: &TrainerSpec, config: &RunConfig, n: usize) -> Vec<Vec<f64>> {
        let ds = dataset();
        let trainer = Trainer::new(spec.clone(), heterogeneous_server(n), config.clone());
        let mut state = trainer.scheduler(&ds, None);
        state.drive();
        state.gate_norms
    }

    /// The configurations the gate differential covers, at `precision`:
    /// sparse merge, dense merge of the sampled softmax, dense softmax, and
    /// the sparse merge through a device loss and its redispatch. The model
    /// has 11,608 parameters, enough that a relative `1e-12` lies inside the
    /// estimate's error bound.
    fn gate_configs(precision: Precision) -> Vec<(&'static str, RunConfig)> {
        let mut base = quick_config();
        base.hidden = 48;
        base.precision = precision;
        let mut sparse = base.clone();
        sparse.sampled_softmax = Some(SampledSoftmax::defaults(12));
        sparse.sparse_merge = true;
        sparse.sparse_max_density = 1.0;
        let mut sampled_dense = sparse.clone();
        sampled_dense.sparse_merge = false;
        let mut lossy = sparse.clone();
        lossy.fault_plan = Some(FaultPlan::new().device_loss(1, 2, 1));
        vec![
            ("sparse merge", sparse),
            ("dense merge", sampled_dense),
            ("dense softmax", base),
            ("device loss", lossy),
        ]
    }

    /// The estimate from the changed rows against the exact norm, for every
    /// replica between the train phase and the merge, over four merges (so
    /// from the start-up model, then from every import, bf16 payloads
    /// included): far from the threshold and at a relative `1e-3` it
    /// decides, and decides the exact norm's side; at a relative `1e-12` it
    /// must not decide, which leaves the decision to the sweep.
    #[test]
    fn gate_differential_estimate_decides_only_far_enough_from_the_norm() {
        let ds = dataset();
        for precision in [Precision::F32, Precision::Bf16] {
            for (what, config) in gate_configs(precision) {
                if config.fault_plan.is_some() {
                    continue;
                }
                let trainer =
                    Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(3), config);
                let mut state = trainer.scheduler(&ds, None);
                for m in 0..4 {
                    for g in 0..3 {
                        state.dispatch_batch(g, 16);
                        state.dispatch_batch(g, 8 + 4 * g);
                    }
                    let below = state.train_phase(&mut [0.0; 3]);
                    let base = import_base(&state.payload, state.imported_payload, &state.global);
                    let s_base = state.base_sq.expect("Algorithm 2 sums its base");
                    for (i, r) in state.replicas.iter().enumerate() {
                        let at = format!("{what} at {precision:?}, merge {m}, replica {i}");
                        let (est, len) = (r.norm_estimate(base, s_base), state.mconfig.param_len());
                        let exact = r.l2_norm_per_param(base);
                        assert!(exact > 0.0 && exact.is_finite(), "{at}: norm {exact}");
                        assert_eq!(below[i], exact < 0.1, "{at}: the run's gate");
                        for (thr, decides) in [
                            (0.0, true),
                            (exact * 1e-3, true),
                            (exact * (1.0 - 1e-3), true),
                            (exact * (1.0 + 1e-3), true),
                            (exact * 1e3, true),
                            (f64::INFINITY, true),
                            (exact * (1.0 - 1e-12), false),
                            (exact, false),
                            (exact * (1.0 + 1e-12), false),
                        ] {
                            match est.below(len, thr) {
                                Some(side) => {
                                    assert!(decides, "{at}: decided at {thr} (norm {exact})");
                                    assert_eq!(side, exact < thr, "{at}: wrong side of {thr}");
                                }
                                None => {
                                    assert!(!decides, "{at}: undecided at {thr} (norm {exact})")
                                }
                            }
                        }
                    }
                    state.merge(&below, m);
                }
                assert_eq!(state.gate_norms.len(), 4, "{what}: one oracle per merge");
            }
        }
    }

    /// Whole runs with `pert_thr` at a relative `1e-3` and `1e-12` of a
    /// replica's exact norm, on both sides, through every covered
    /// configuration, the device loss and its redispatch included: the
    /// merge's oracle holds every side and every `MergeDecision` to the
    /// exact norms' (at `1e-12` the estimate cannot decide — the test above
    /// — so the sweep does).
    #[test]
    fn gate_differential_decisions_are_the_exact_norms() {
        for precision in [Precision::F32, Precision::Bf16] {
            for (what, config) in gate_configs(precision) {
                let spec = algorithms::adaptive_sgd();
                let norms = gate_norms(&spec, &config, 3);
                assert_eq!(norms.len(), 4, "{what}: one gate per merge");
                // Thresholds at replica 1's exact norm of the first merge.
                let exact = norms[0][1];
                for rel in [-1e-3, 1e-3, -1e-12, 1e-12] {
                    let thr = exact * (1.0 + rel);
                    let mut near = spec.clone();
                    near.merge_rule = MergeRule::Normalized(MergeParams {
                        pert_thr: thr,
                        ..MergeParams::default()
                    });
                    let norms = gate_norms(&near, &config, 3);
                    assert_eq!(norms.len(), 4, "{what} at {rel}: one gate per merge");
                    assert_eq!(norms[0][1], exact, "{what} at {rel}: the same run");
                    assert_eq!(norms[0][1] < thr, rel > 0.0, "{what} at {rel}");
                }
            }
        }
    }

    #[test]
    fn merge_parameters_that_break_the_gate_are_refused_by_name() {
        let normalized = |pert_thr, delta, gamma| TrainerSpec {
            merge_rule: MergeRule::Normalized(MergeParams {
                pert_thr,
                delta,
                gamma,
                ..MergeParams::default()
            }),
            ..algorithms::adaptive_sgd()
        };
        let average = |gamma| TrainerSpec {
            merge_rule: MergeRule::Average { gamma },
            ..algorithms::elastic_sgd()
        };
        let cfg = quick_config();
        for (spec, want) in [
            (
                normalized(f64::NAN, 0.1, 0.9),
                ConfigError::PerturbationThresholdInvalid,
            ),
            (
                normalized(-1e-9, 0.1, 0.9),
                ConfigError::PerturbationThresholdInvalid,
            ),
            (
                normalized(f64::NEG_INFINITY, 0.1, 0.9),
                ConfigError::PerturbationThresholdInvalid,
            ),
            (
                normalized(0.1, f64::NAN, 0.9),
                ConfigError::PerturbationFactorInvalid,
            ),
            (
                normalized(0.1, -0.1, 0.9),
                ConfigError::PerturbationFactorInvalid,
            ),
            (
                normalized(0.1, 1.0, 0.9),
                ConfigError::PerturbationFactorInvalid,
            ),
            (
                normalized(0.1, 0.1, f64::NAN),
                ConfigError::MomentumNotFinite,
            ),
            (
                normalized(0.1, 0.1, f64::INFINITY),
                ConfigError::MomentumNotFinite,
            ),
            (average(f64::NAN), ConfigError::MomentumNotFinite),
            (average(f64::NEG_INFINITY), ConfigError::MomentumNotFinite),
        ] {
            assert_eq!(cfg.validate(&spec, 2), Err(want), "{:?}", spec.merge_rule);
        }
        // The edges that stay open: no perturbation (`pert_thr = 0`),
        // perturbation always (`+∞`), `δ = 0`, and no momentum.
        for spec in [
            normalized(0.0, 0.0, 0.0),
            normalized(f64::INFINITY, 0.999, 0.9),
            average(0.0),
            algorithms::crossbow_sma(),
            algorithms::tensorflow_sync(),
            algorithms::adaptive_without_perturbation(),
            algorithms::adaptive_with_plain_average(),
        ] {
            assert_eq!(cfg.validate(&spec, 2), Ok(()), "{:?}", spec.merge_rule);
        }
    }

    /// An LSH shape the index cannot build — no table, or signatures of
    /// 0 or more than 32 bits — is refused by name before the run, not by
    /// an assertion inside `LshIndex::new` once it starts.
    #[test]
    fn lsh_shapes_the_index_cannot_build_are_refused() {
        let spec = algorithms::adaptive_sgd();
        for (tables, k_bits) in [(0, 9), (8, 0), (8, 33), (0, 0)] {
            let mut cfg = quick_config();
            cfg.sampled_softmax = Some(SampledSoftmax {
                tables,
                k_bits,
                ..SampledSoftmax::defaults(8)
            });
            let want = ConfigError::LshShapeInvalid { tables, k_bits };
            assert_eq!(cfg.validate(&spec, 2), Err(want));
            assert!(want
                .to_string()
                .contains(&format!("{tables} tables of {k_bits} bits")));
        }
        for (tables, k_bits) in [(1, 1), (1, 32)] {
            let mut cfg = quick_config();
            cfg.sampled_softmax = Some(SampledSoftmax {
                tables,
                k_bits,
                ..SampledSoftmax::defaults(8)
            });
            assert_eq!(cfg.validate(&spec, 2), Ok(()));
        }
    }

    /// A fleet larger than one collective reduces is refused by name
    /// before the run, not by the plan's assertion at the first merge.
    #[test]
    fn a_fleet_past_the_collective_bound_is_refused() {
        let spec = algorithms::adaptive_sgd();
        let max = asgd_collective::MAX_DEVICES;
        assert_eq!(quick_config().validate(&spec, max), Ok(()));
        let want = ConfigError::TooManyDevices { have: max + 1 };
        assert_eq!(quick_config().validate(&spec, max + 1), Err(want));
        assert_eq!(
            want.to_string(),
            format!(
                "a merge reduces at most {max} devices; the fleet has {}",
                max + 1
            )
        );
    }

    #[test]
    fn batch_sample_seed_depends_on_ids_not_order_of_dispatch() {
        let a = batch_sample_seed(&[3, 1, 4], 7);
        assert_eq!(a, batch_sample_seed(&[3, 1, 4], 7));
        assert_ne!(a, batch_sample_seed(&[1, 3, 4], 7));
        assert_ne!(a, batch_sample_seed(&[3, 1, 4], 8));
        assert_ne!(a, batch_sample_seed(&[3, 1], 7));
    }

    #[test]
    fn trace_capture_contains_batches_and_merges() {
        let ds = dataset();
        let mut config = quick_config();
        config.trace = true;
        config.mega_batch_limit = Some(1);
        let result =
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), config).run(&ds);
        assert!(result.trace.contains("batch 0"));
        assert!(result.trace.contains("merge"));
    }

    #[test]
    fn accuracy_improves_over_training() {
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(12);
        config.base_lr = 0.25;
        let result =
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), config).run(&ds);
        let first = result.records.first().unwrap().accuracy;
        let best = result.best_accuracy();
        assert!(
            best > first + 0.05,
            "no learning: first {first}, best {best}"
        );
    }

    #[test]
    fn scaling_schedule_backs_off_but_training_still_works() {
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(10);
        config.scaling_schedule = Some((0.02, 8));
        let result =
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), config).run(&ds);
        assert_eq!(result.records.len(), 10);
    }

    #[test]
    fn speed_change_rebalances_batch_sizes() {
        // GPU 1 throttles hard at mega-batch 3: afterwards the scaler should
        // push its batch size well below GPU 0's.
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(12);
        config.fault_plan = Some(FaultPlan::new().speed_change(3, 0, 1, 0.3));
        let result =
            Trainer::new(algorithms::adaptive_sgd(), homogeneous_server(2), config).run(&ds);
        let before = &result.records[2].batch_sizes;
        let after = result.records.last().unwrap();
        let gap_before = (before[0] - before[1]).abs();
        let gap_after = after.batch_sizes[0] - after.batch_sizes[1];
        assert!(
            gap_after > gap_before + 4.0,
            "throttling should widen the batch-size gap: before {before:?}, after {:?}",
            after.batch_sizes
        );
        // And the throttled GPU runs fewer batches despite the rebalancing
        // being underway.
        assert!(after.updates[0] >= after.updates[1]);
    }

    #[test]
    #[should_panic(expected = "time limit or a mega-batch limit")]
    fn missing_limits_panic() {
        let _ = Trainer::new(
            algorithms::adaptive_sgd(),
            homogeneous_server(1),
            RunConfig::paper_defaults(32, 2),
        );
    }
}
