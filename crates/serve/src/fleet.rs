//! The serving loop: registry-backed replicas, prediction cache, hedged
//! requests, and elastic autoscaling in one virtual-time scheduler.
//!
//! This module holds the crate's **only** scheduler loop (`run_session`).
//! [`serve_fleet`] is registry look-ups around it; [`crate::engine::serve`]
//! is its one-tenant, cache-off, hedge-off, fully-provisioned, one-server
//! configuration. The architecture invariant: that **single loop owns every
//! decision** (admission, cache lookups, version selection, dispatch,
//! hedging, scaling, faults) and consumes only virtual device clocks and
//! seeded state. No decision reads a prediction, so the real forward math is
//! not done at the virtual grain: dispatched rows collect per version and are
//! scored [`FORWARD_BLOCK_ROWS`] at a time, one [`Mlp::predict_topk_ws`] call
//! per block on the calling thread (the kernel pool splits it), into an
//! id-indexed buffer nobody schedules against. A row's top-k does not depend
//! on which rows it is scored with, so the outcome is a pure function of
//! `(load seed, fault seed, config)` at any `ASGD_THREADS`.
//!
//! - **Dynamic dispatch.** The next micro-batch goes to whichever
//!   commissioned replica's virtual clock frees first (the paper's
//!   one-batch-at-a-time rule, [`earliest_free`]), no earlier than the
//!   oldest pending arrival; its forward kernels are charged to that device.
//! - **Zero-loss degradation.** Faults go through a [`DevicePool`], the
//!   interpreter and policy the trainer shares; this loop only reacts.
//!   Requests wait in central queues, never on a device, so a lost slot
//!   loses nothing — it stops being dispatched to and paid for, the rows it
//!   was charged for are scored with their version's block like any others,
//!   and the queue drains through survivors.
//! - **Many models.** Requests carry a tenant; tenants map to registry
//!   versions; each version has its own FIFO so a micro-batch is always
//!   single-model. Dispatch serves the version whose queue head has waited
//!   longest (ties to the lowest version index).
//! - **Prediction cache.** Admission looks `(model signature, pool row)`
//!   up; a hit completes at `arrival + cache_latency_s` without touching a
//!   device, and its predictions are replayed from the computed request
//!   that filled the entry (after the last block is scored — reps are
//!   always computed requests, never other hits, so replay is one copy deep).
//! - **Hedged requests.** At dispatch, a request whose queueing delay
//!   crossed the [`HedgePolicy`] quantile is also charged as a singleton
//!   batch on the earliest-free *other* replica; the earlier completion
//!   (plus cross-server RTT) wins and the loser's device clock is rolled
//!   back from the moment the winner finished ([`Device::rollback_to`] —
//!   virtual-time cancellation). Predictions always come from the primary
//!   batch, so hedging changes timing, never math.
//! - **Elastic autoscaling.** Replica *slots* (one per device profile,
//!   placed round-robin across the cluster's servers so scale-out lands on
//!   different simulated machines) are commissioned and decommissioned by
//!   the [`AutoscaleController`] at window boundaries through the pool's
//!   `commissioned` flag: a booted slot joins dispatch after
//!   `boot_delay_s`, a drained slot stops being paid for. Device-seconds
//!   (the cost metric) integrate commissioned wall-time, not busy time —
//!   an idle static fleet pays for its idleness.

use crate::autoscale::{AutoscaleController, AutoscaleDecision, Provisioning};
use crate::cache::{CacheStats, PredictionCache};
use crate::engine::LatencyStats;
use crate::hedge::{HedgePolicy, HedgeStats};
use crate::loadgen::TenantRequest;
use crate::registry::{DedupStats, ModelRegistry, VersionId};
use crate::slo::SloController;
use asgd_core::ScalingParams;
use asgd_gpusim::{
    earliest_free, ClusterTopology, Device, DeviceId, DevicePool, DeviceProfile, FaultEffect,
    FaultOutcome, FaultPlan, SimTime, Unit,
};
use asgd_model::workload::inference_kernels;
use asgd_model::{Mlp, Workspace};
use asgd_sparse::CsrMatrix;
use asgd_stats::percentile;
use std::collections::VecDeque;

/// Histogram span of per-replica latency stats, in SLO multiples (the tail
/// beyond it lands in the saturating overflow bucket).
const HIST_SLO_SPAN: f64 = 8.0;

/// Rows scored per [`Mlp::predict_topk_ws`] call: enough that `W₂` is
/// streamed once per block instead of once per 1–2-row virtual micro-batch
/// (measured flat from 128 to 512), few enough that the materialized-logits
/// fallback (`k > TOPK_STREAM_MAX`) stays at `256 × classes × 4` bytes.
const FORWARD_BLOCK_ROWS: usize = 256;

/// Fleet-run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Top-k classes per request (capped at `num_classes`).
    pub k: usize,
    /// Per-request latency SLO, seconds.
    pub slo_s: f64,
    /// Micro-batch bounds of the per-replica SLO controller.
    pub scaling: ScalingParams,
    /// Adaptive micro-batching on/off (off = fixed `b_max`).
    pub adaptive: bool,
    /// Controller window length, in fleet-wide dispatches. Autoscale
    /// decisions fire at the same boundaries.
    pub window_dispatches: usize,
    /// Seed of the devices' jitter streams.
    pub device_seed: u64,
    /// Prediction-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Completion latency of a cache hit, seconds.
    pub cache_latency_s: f64,
    /// Hedge above this quantile of observed queueing delays
    /// (`None` = hedging off).
    pub hedge_quantile: Option<f64>,
    /// Queueing-delay observations required before hedging arms.
    pub hedge_min_obs: u64,
    /// Minimum actual wait before a hedge fires, seconds (noise floor).
    pub hedge_min_wait_s: f64,
    /// Replica provisioning policy.
    pub provisioning: Provisioning,
    /// Elastic floor (initial commissioned count under
    /// [`Provisioning::Auto`]).
    pub r_min: usize,
    /// Autoscale controller gain (replicas per unit relative depth error).
    pub autoscale_beta: f64,
    /// Admission-queue depth the autoscaler targets.
    pub autoscale_target_depth: f64,
    /// Virtual boot time of a newly commissioned replica, seconds.
    pub boot_delay_s: f64,
}

impl FleetConfig {
    /// Paper-flavored defaults: adaptive micro-batching with `b_max`-derived
    /// bounds, cache and hedging off, static full provisioning. Turn the
    /// subsystems on with the builder methods.
    pub fn paper_defaults(b_max: usize, slo_s: f64) -> Self {
        Self {
            k: 5,
            slo_s,
            scaling: ScalingParams::paper_defaults(b_max),
            adaptive: true,
            window_dispatches: 16,
            device_seed: 0x5E12_F1EE,
            cache_capacity: 0,
            cache_latency_s: 50e-6,
            hedge_quantile: None,
            hedge_min_obs: 64,
            hedge_min_wait_s: 0.0,
            provisioning: Provisioning::Static(usize::MAX),
            r_min: 1,
            autoscale_beta: 1.0,
            autoscale_target_depth: 16.0,
            boot_delay_s: 0.0,
        }
    }

    /// Enables the prediction cache with `capacity` entries.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Enables hedging above quantile `q` of observed queueing delays.
    pub fn hedged(mut self, q: f64) -> Self {
        self.hedge_quantile = Some(q);
        self
    }

    /// Elastic provisioning: start at `r_min` replicas, scale on queue depth.
    pub fn autoscaled(mut self, r_min: usize) -> Self {
        self.provisioning = Provisioning::Auto;
        self.r_min = r_min;
        self
    }

    /// Static provisioning at exactly `n` replicas (clamped to the slot
    /// count by the engine).
    pub fn static_replicas(mut self, n: usize) -> Self {
        self.provisioning = Provisioning::Static(n);
        self
    }
}

/// Timing record of one fleet request (simulated seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRecord {
    /// Arrival at the admission frontend.
    pub arrival: f64,
    /// Dispatch to a replica (equals `arrival` for cache hits).
    pub dispatched: f64,
    /// Completion as seen by the frontend (cross-server RTT included).
    pub completed: f64,
    /// Winning replica slot; `None` for cache hits.
    pub replica: Option<usize>,
    /// Micro-batch size the request rode in (0 for cache hits).
    pub batch: usize,
    /// Owning tenant.
    pub tenant: u16,
    /// Served from the prediction cache.
    pub cache_hit: bool,
    /// A hedge was issued for this request.
    pub hedged: bool,
    /// The hedge beat the primary batch.
    pub hedge_won: bool,
}

impl FleetRecord {
    /// End-to-end latency (the SLO'd quantity).
    pub fn latency(&self) -> f64 {
        self.completed - self.arrival
    }

    /// Time spent waiting for dispatch.
    pub fn queueing(&self) -> f64 {
        self.dispatched - self.arrival
    }
}

/// Per-slot summary of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReplicaReport {
    /// Device name (from the profile).
    pub name: String,
    /// Simulated server the slot lives on.
    pub server: usize,
    /// Still alive at end of run.
    pub alive: bool,
    /// Commissioned at end of run.
    pub commissioned: bool,
    /// Requests whose winning completion this slot produced.
    pub served: usize,
    /// Primary micro-batches executed.
    pub batches: usize,
    /// Micro-batch size at end of run.
    pub final_b: usize,
    /// Micro-batch size after each controller window this slot was
    /// dispatchable at the end of.
    pub batch_trajectory: Vec<usize>,
    /// Commissioned wall-time paid for, device-seconds.
    pub device_seconds: f64,
    /// Latency statistics of the requests this slot completed.
    pub stats: LatencyStats,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-request timing, indexed by request id (`None` = never served;
    /// zero-loss degradation says there are none).
    pub records: Vec<Option<FleetRecord>>,
    /// Row-major `n × k_eff` predicted class ids, indexed by request id.
    pub predictions: Vec<u32>,
    /// Classes returned per request.
    pub k_eff: usize,
    /// Per-slot summaries, by slot index.
    pub replicas: Vec<FleetReplicaReport>,
    /// Human-readable fault log, in firing order.
    pub fault_log: Vec<String>,
    /// Autoscale decision per window (empty under static provisioning).
    pub trajectory: Vec<AutoscaleDecision>,
    /// Prediction-cache counters.
    pub cache: CacheStats,
    /// Hedging counters.
    pub hedge: HedgeStats,
    /// Registry dedup accounting at serve time.
    pub dedup: DedupStats,
    /// Completion time of the last request.
    pub makespan_s: f64,
    /// Requests served.
    pub served: usize,
    /// Requests never served (zero by construction).
    pub lost: usize,
}

impl FleetOutcome {
    /// Exact latency percentile over every served request (id order —
    /// deterministic, unlike completion-order streaming merges). `None` on
    /// an empty run.
    pub fn latency_percentile(&self, q: f64) -> Option<f64> {
        let lats: Vec<f64> = self.records.iter().flatten().map(|r| r.latency()).collect();
        percentile(&lats, q)
    }

    /// Total commissioned device-seconds — the provisioning cost.
    pub fn device_seconds(&self) -> f64 {
        self.replicas.iter().map(|r| r.device_seconds).sum()
    }

    /// Served requests per simulated second (0 on an empty run).
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.served as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// The predictions of one request (`k_eff` class ids), or `None` for an
    /// id the run never saw.
    pub fn prediction(&self, id: u32) -> Option<&[u32]> {
        let lo = (id as usize).checked_mul(self.k_eff)?;
        self.predictions.get(lo..lo + self.k_eff)
    }
}

/// One replica slot's scheduler-side state (its device is in the pool).
struct Slot {
    controller: SloController,
    served: usize,
    batches: usize,
    window_lat: Vec<f64>,
    batch_trajectory: Vec<usize>,
    stats: LatencyStats,
    /// Commissioned `(start, end)` intervals; `None` end = still open.
    intervals: Vec<(f64, Option<f64>)>,
}

impl Slot {
    /// Closes the open commissioned interval, if any, at `at`.
    fn close(&mut self, at: f64) {
        if let Some(open) = self.intervals.last_mut().filter(|i| i.1.is_none()) {
            open.1 = Some(at.max(open.0));
        }
    }
}

/// One fault a session applied or refused, in firing order — data, not
/// prose, because the two entry points word their logs differently (`gpu1
/// lost; 17 queued re-dispatched to 3 survivors` vs `slot1 lost` + `17
/// queued drain through survivors`) and the loop must not know who called.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServedFault {
    /// The plan point it was scheduled at: `w{window}+{ordinal}`.
    pub at: String,
    pub outcome: FaultOutcome,
    /// A device lost on its own hands over `(requests queued, dispatchable
    /// slots left)`; the members of a lost server do not.
    pub handover: Option<(usize, usize)>,
}

impl ServedFault {
    /// `{at}: {unit} {effect}`, a device being called `slot_noun` — a lost
    /// server's members first get a `lost` line each.
    pub(crate) fn lines(&self, slot_noun: &str) -> Vec<String> {
        let (at, FaultOutcome { unit, effect, .. }) = (&self.at, &self.outcome);
        let name = |unit| match unit {
            Unit::Device(i) => format!("{slot_noun}{i}"),
            Unit::Server(s) => format!("server{s}"),
        };
        let said = match effect {
            FaultEffect::Speed(factor) => format!("speed -> {factor:.2}"),
            FaultEffect::Stalled(seconds) => format!("stalled {seconds:.3}s"),
            FaultEffect::Unreachable(seconds) => format!("unreachable {seconds:.3}s"),
            FaultEffect::Lost(_) => "lost".to_string(),
            FaultEffect::Refused(why) => format!("loss REFUSED ({why})"),
        };
        let mut lines = Vec::new();
        if let (Unit::Server(_), FaultEffect::Lost(members)) = (unit, effect) {
            let member = |&i: &usize| format!("{at}: {} lost", name(Unit::Device(i)));
            lines.extend(members.iter().map(member));
        }
        lines.push(format!("{at}: {} {said}", name(*unit)));
        lines
    }

    /// The fleet's wording: a hand-over gets a line of its own.
    fn fleet_lines(&self) -> Vec<String> {
        let mut lines = self.lines("slot");
        if let Some((queued, _)) = self.handover {
            let at = &self.at;
            lines.push(format!("{at}: {queued} queued drain through survivors"));
        }
        lines
    }
}

/// One tenant of a session: the model it is served, that model's content
/// signature (the cache-key prefix, shared across deduped versions) and the
/// FIFO its requests wait in (one per distinct version, so a micro-batch is
/// always single-model).
pub(crate) struct Tenant<'a> {
    pub model: &'a Mlp,
    pub sig: u64,
    pub queue: usize,
}

/// Runs a multi-tenant fleet session.
///
/// `tenant_versions[t]` is the registry version tenant `t` serves;
/// `profiles[i]` is replica slot `i`'s device, placed on server
/// `i % topo.servers()` (round-robin, so elastic scale-out lands on a
/// different simulated server). Requests (rows of `pool`) drain through
/// per-version FIFOs under `plan`'s faults, with the cache, hedging, and
/// provisioning behavior of `config`.
///
/// The returned outcome — every latency, decision, and prediction — is a
/// pure function of the inputs, bit-identical at any `ASGD_THREADS`.
///
/// # Panics
/// Panics on an empty fleet, more slots than cluster devices, an unknown
/// tenant or version, an architecture/pool mismatch, a request referencing
/// a row outside the pool, or a stream that is not the one
/// [`TenantRequest`] documents (`requests[i].id == i`, arrivals finite and
/// non-decreasing) — checked before anything runs.
#[allow(clippy::too_many_arguments)] // the session's full input tuple, each independently owned
pub fn serve_fleet(
    registry: &ModelRegistry,
    tenant_versions: &[VersionId],
    profiles: &[DeviceProfile],
    topo: &ClusterTopology,
    pool: &CsrMatrix,
    requests: &[TenantRequest],
    plan: &FaultPlan,
    config: &FleetConfig,
) -> FleetOutcome {
    assert!(
        tenant_versions.iter().all(|v| v.0 < registry.len()),
        "tenant mapped to unknown version"
    );
    let tenants: Vec<Tenant> = tenant_versions
        .iter()
        .map(|&v| Tenant {
            model: registry.model(v),
            sig: registry.version(v).sig,
            queue: v.0,
        })
        .collect();
    let devices = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| Device::new(DeviceId(i), p.clone(), config.device_seed ^ i as u64))
        .collect();
    let (out, faults) = run_session(&tenants, devices, topo, pool, requests, plan, config);
    FleetOutcome {
        fault_log: faults.iter().flat_map(ServedFault::fleet_lines).collect(),
        dedup: registry.dedup_stats(),
        ..out
    }
}

/// The serving loop — the only one in the crate. [`serve_fleet`] and
/// [`crate::engine::serve`] both end here; nothing below knows which. Slot
/// `i` runs on `devices[i]` — built by the entry point, because the two seed
/// them differently — placed on server `i % topo.servers()`. The outcome
/// comes back with `fault_log` and `dedup` empty and the faults as data:
/// their wording and the registry's accounting are the entry point's.
///
/// # Panics
/// Panics, naming the request, on a stream that is not the one
/// [`TenantRequest`] documents (`requests[i].id == i`, arrivals finite and
/// non-decreasing, rows inside the pool, tenants inside the list); on an
/// empty fleet or tenant list, more slots than cluster devices, or an
/// architecture/pool mismatch.
pub(crate) fn run_session(
    tenants: &[Tenant],
    devices: Vec<Device>,
    topo: &ClusterTopology,
    pool: &CsrMatrix,
    requests: &[TenantRequest],
    plan: &FaultPlan,
    config: &FleetConfig,
) -> (FleetOutcome, Vec<ServedFault>) {
    // First, because the loop cannot survive a bad stream: a NaN arrival is
    // never admitted (`free.max(NaN) == free`) and spins it forever.
    for (i, r) in requests.iter().enumerate() {
        let (id, at) = (r.id, r.arrival);
        assert!(
            id as usize == i,
            "request {i} has id {id}: ids are dense, in arrival order"
        );
        let ordered = at.is_finite() && (i == 0 || at >= requests[i - 1].arrival);
        assert!(
            ordered,
            "request {i} arrives at {at}: arrivals are finite and non-decreasing"
        );
        let known = r.pool_row < pool.rows() && (r.tenant as usize) < tenants.len();
        assert!(known, "request {i} is outside the pool or tenant map");
    }
    assert!(!devices.is_empty(), "need at least one device");
    assert!(
        devices.len() <= topo.n_devices(),
        "more replica slots than cluster devices"
    );
    assert!(config.k >= 1, "k must be at least 1");
    assert!(config.window_dispatches >= 1, "window must be non-empty");
    assert!(!tenants.is_empty(), "need at least one tenant");
    let arch = tenants[0].model.config();
    assert_eq!(
        pool.cols(),
        arch.num_features,
        "pool/model architecture mismatch"
    );

    let n = requests.len();
    let n_slots = devices.len();
    let k_eff = config.k.min(arch.num_classes);
    let hist_hi = config.slo_s * HIST_SLO_SPAN;
    let n_queues = tenants.iter().map(|t| t.queue + 1).max().unwrap_or(0);

    // Cross-server RTT charged on completions a non-frontend server
    // produces (the frontend lives on server 0): one result payload each
    // way over the inter-node link.
    let rtt_s = 2.0 * topo.inter_time(k_eff * 4);
    let rtt = |server: usize| if server == 0 { 0.0 } else { rtt_s };

    let mut records: Vec<Option<FleetRecord>> = vec![None; n];
    let mut predictions = vec![0u32; n * k_eff];
    let mut faults: Vec<ServedFault> = Vec::new();
    let mut trajectory: Vec<AutoscaleDecision> = Vec::new();
    let mut cache = PredictionCache::new(config.cache_capacity);
    // id of a cache hit → id of the computed request whose predictions it
    // replays (resolved after the last block is scored).
    let mut replays: Vec<(u32, u32)> = Vec::new();
    let mut hedge_policy = match config.hedge_quantile {
        Some(q) => HedgePolicy::new(q, config.hedge_min_obs, config.hedge_min_wait_s),
        None => HedgePolicy::disabled(),
    };
    let mut hedge_stats = HedgeStats::default();

    let floor = config.r_min.min(n_slots).max(1);
    let (mut autoscaler, initial) = match config.provisioning {
        Provisioning::Auto => {
            let (beta, depth) = (config.autoscale_beta, config.autoscale_target_depth);
            let ctl = AutoscaleController::new(floor, n_slots, beta, depth);
            (Some(ctl), floor)
        }
        Provisioning::Static(s) => (None, s.clamp(1, n_slots)),
    };

    let mut devices = DevicePool::new(devices, |i| i % topo.servers());
    let mut slots: Vec<Slot> = (0..n_slots)
        .map(|_| Slot {
            controller: SloController::new(config.scaling, config.slo_s),
            served: 0,
            batches: 0,
            window_lat: Vec::new(),
            batch_trajectory: Vec::new(),
            stats: LatencyStats::new(hist_hi),
            intervals: Vec::new(),
        })
        .collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        devices.set_commissioned(i, i < initial);
        slot.intervals.extend((i < initial).then_some((0.0, None)));
    }

    // The scheduler loop: single-threaded, virtual-time only.
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_queues];
    let mut queued = 0usize;
    let mut next_arr = 0usize;
    let mut window = 0u64;
    let mut in_window = 0usize;
    // A plan point `(window, in_window)` fires once, however many
    // all-cache-hit admission rounds pass before its dispatch.
    let mut point_fired = false;
    let mut batch: Vec<usize> = Vec::new();
    // The real math, off the decision path: per version FIFO, the requests
    // dispatched but not yet scored. A full list is one forward call,
    // scattered into the id-indexed buffer.
    let mut pending: Vec<Vec<usize>> = vec![Vec::new(); n_queues];
    let mut ws = Workspace::new(arch);
    let mut top: Vec<u32> = Vec::new();
    // A block's pool rows and their CSR copy, reused from block to block.
    let mut rows: Vec<usize> = Vec::new();
    let mut x = CsrMatrix::zeros(0, pool.cols());
    let mut score = |model: &Mlp, block: &mut Vec<usize>| {
        if block.is_empty() {
            return;
        }
        rows.clear();
        rows.extend(block.iter().map(|&q| requests[q].pool_row));
        pool.select_rows_into(&rows, &mut x);
        let got = model.predict_topk_ws(&x, k_eff, &mut ws, &mut top);
        debug_assert_eq!(got, k_eff);
        for (q, row) in block.drain(..).zip(top.chunks_exact(k_eff)) {
            predictions[requests[q].id as usize * k_eff..][..k_eff].copy_from_slice(row);
        }
    };
    // The events due at plan point `(w, o)` (`sweep`: every ordinal of the
    // window the run never reached), through the pool. A dead slot stops
    // being paid for at the outcome's `at`, the dispatch frontier.
    let mut fire = |devices: &mut DevicePool, slots: &mut [Slot], queued, w: u64, o, sweep| {
        for e in plan.due(w as usize, o, sweep) {
            let Some(outcome) = devices.apply(&e) else {
                continue;
            };
            let mut handover = None;
            if let FaultEffect::Lost(lost) = &outcome.effect {
                for &i in lost {
                    devices.set_commissioned(i, false);
                    slots[i].close(outcome.at.secs());
                }
                let up = devices.dispatchable().count();
                handover = matches!(outcome.unit, Unit::Device(_)).then_some((queued, up));
            }
            faults.push(ServedFault {
                at: format!("w{}+{}", e.at_mega, e.after_batches),
                outcome,
                handover,
            });
        }
    };
    // The oldest queue head `(arrival, queue)`, ties to the lowest queue.
    let oldest_head = |queues: &[VecDeque<usize>]| {
        queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.front().map(|&h| (requests[h].arrival, i)))
            .min_by(|a, b| a.partial_cmp(b).expect("arrivals were checked finite"))
    };

    loop {
        if queued == 0 && next_arr >= n {
            break;
        }
        // Fault events due before this dispatch.
        if !point_fired {
            fire(&mut devices, &mut slots, queued, window, in_window, false);
            point_fired = true;
        }

        // Dispatch to whichever commissioned replica frees first, no
        // earlier than the oldest pending request (open loop: devices
        // idle until there is work).
        let r = devices.earliest_free().expect("no dispatchable replica");
        let free = devices.device(r).now().secs();
        let first_pending = match oldest_head(&queues) {
            Some((arrival, _)) => arrival,
            None => requests[next_arr].arrival,
        };
        let t = free.max(first_pending);
        devices.device_mut(r).advance_to(SimTime(t));

        // Admit arrivals up to `t`. Admission is where the cache
        // acts: a ready hit completes immediately at the frontend and
        // never queues.
        while next_arr < n && requests[next_arr].arrival <= t {
            let req = &requests[next_arr];
            let tenant = &tenants[req.tenant as usize];
            if let Some(rep) = cache.lookup((tenant.sig, req.pool_row as u32), req.arrival) {
                records[next_arr] = Some(FleetRecord {
                    arrival: req.arrival,
                    dispatched: req.arrival,
                    completed: req.arrival + config.cache_latency_s,
                    replica: None,
                    batch: 0,
                    tenant: req.tenant,
                    cache_hit: true,
                    hedged: false,
                    hedge_won: false,
                });
                replays.push((req.id, rep));
            } else {
                queues[tenant.queue].push_back(next_arr);
                queued += 1;
            }
            next_arr += 1;
        }
        if queued == 0 {
            // Everything admitted this round hit the cache; nothing
            // to dispatch yet.
            continue;
        }

        // Serve the version whose head has waited longest (ties to
        // the lowest version index), cutting up to the replica's
        // adaptive micro-batch of already-arrived requests.
        let (_, v) = oldest_head(&queues).expect("queued > 0");
        let b = slots[r].controller.micro_batch();
        batch.clear();
        while batch.len() < b {
            match queues[v].front() {
                Some(&q) if requests[q].arrival <= t => {
                    batch.push(q);
                    queues[v].pop_front();
                    queued -= 1;
                }
                _ => break,
            }
        }
        debug_assert!(!batch.is_empty(), "dispatch with nothing arrived");

        // Charge the primary device the batch's forward kernels.
        let nnz = batch.iter().map(|&q| pool.row_nnz(requests[q].pool_row));
        let tenant = &tenants[requests[batch[0]].tenant as usize];
        let kernels = inference_kernels(arch, batch.len(), nnz.sum(), k_eff);
        let primary = devices.device_mut(r);
        primary.execute_all(&kernels);
        let done = primary.now().secs();

        // Hedge the stragglers: requests whose wait crossed the
        // policy threshold race a singleton batch on the earliest-free
        // other replica; the loser's clock is rolled back from the
        // moment the winner finished.
        for &q in &batch {
            let wait = t - requests[q].arrival;
            let mut completed = done + rtt(devices.server(r));
            let mut winner = r;
            let mut hedged = false;
            let mut hedge_won = false;
            let spare = if hedge_policy.should_hedge(wait) {
                earliest_free(devices.dispatchable().filter(|&(i, _)| i != r))
            } else {
                None
            };
            if let Some(h) = spare {
                hedged = true;
                hedge_stats.issued += 1;
                let spare = devices.device_mut(h);
                let t2 = spare.now().secs().max(t);
                spare.advance_to(SimTime(t2));
                let k1 = inference_kernels(arch, 1, pool.row_nnz(requests[q].pool_row), k_eff);
                spare.execute_all(&k1);
                let h_completed = spare.now().secs() + rtt(devices.server(h));
                if h_completed < completed {
                    hedge_won = true;
                    hedge_stats.wins += 1;
                    completed = h_completed;
                    winner = h;
                } else {
                    // Cancelled when the primary's completion reaches
                    // the frontend; work past that point is reclaimed
                    // in virtual time.
                    hedge_stats.losses += 1;
                    let cancel = completed.max(t2);
                    hedge_stats.cancelled_s += devices.device_mut(h).rollback_to(SimTime(cancel));
                }
            }
            let rec = FleetRecord {
                arrival: requests[q].arrival,
                dispatched: t,
                completed,
                replica: Some(winner),
                batch: batch.len(),
                tenant: requests[q].tenant,
                cache_hit: false,
                hedged,
                hedge_won,
            };
            records[q] = Some(rec);
            slots[winner].window_lat.push(rec.latency());
            slots[winner].stats.record(rec.latency());
            slots[winner].served += 1;
            hedge_policy.observe(wait);
            // Fill the cache at the frontend-visible completion; the
            // first computation of a key wins, so replays never alias
            // through another hit.
            let key = (tenant.sig, requests[q].pool_row as u32);
            cache.insert(key, requests[q].id, rec.completed);
        }
        slots[r].batches += 1;

        // Queue the real math behind its version (hedges re-time a
        // request, they never recompute it).
        for &q in &batch {
            pending[v].push(q);
            if pending[v].len() == FORWARD_BLOCK_ROWS {
                score(tenant.model, &mut pending[v]);
            }
        }

        in_window += 1;
        point_fired = false;
        if in_window == config.window_dispatches {
            // Boundary sweep: never-reached fault ordinals fire here,
            // exactly like the trainer's merge-boundary sweep.
            fire(&mut devices, &mut slots, queued, window, in_window, true);
            let up = slots
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| devices.is_dispatchable(*i));
            for (_, s) in up {
                if config.adaptive && !s.window_lat.is_empty() {
                    let p99 = percentile(&s.window_lat, 0.99).expect("non-empty window");
                    s.controller.observe_window(p99);
                }
                s.batch_trajectory.push(s.controller.micro_batch());
                s.window_lat.clear();
            }
            if let Some(ctl) = autoscaler.as_mut() {
                let decision = ctl.observe_depth(window, queued);
                trajectory.push(decision);
                let anchor = devices.frontier().secs();
                let mut up = devices.dispatchable().count();
                // Scale out: commission spare alive slots ascending —
                // round-robin placement sends them to other servers.
                while up < decision.replicas {
                    let spare = |&i: &usize| devices.is_alive(i) && !devices.is_dispatchable(i);
                    let Some(i) = (0..n_slots).find(spare) else {
                        break;
                    };
                    devices.set_commissioned(i, true);
                    slots[i].intervals.push((anchor, None));
                    let boot = anchor + config.boot_delay_s;
                    let device = devices.device_mut(i);
                    device.advance_to(SimTime(device.now().secs().max(boot)));
                    up += 1;
                }
                // Scale in: decommission LIFO, never below one
                // replica.
                while up > decision.replicas && up > 1 {
                    let last = (0..n_slots).rev().find(|&i| devices.is_dispatchable(i));
                    let i = last.expect("up > 0");
                    devices.set_commissioned(i, false);
                    slots[i].close(anchor.max(devices.device(i).now().secs()));
                    up -= 1;
                }
            }
            window += 1;
            in_window = 0;
        }
    }

    // What is left of each version's list, ascending.
    for (v, block) in pending.iter_mut().enumerate() {
        if let Some(tenant) = tenants.iter().find(|t| t.queue == v) {
            score(tenant.model, block);
        }
    }

    // Replay cached predictions from their computed representatives (one
    // copy deep — reps are never hits themselves).
    for &(id, rep) in &replays {
        let (dst, src) = (id as usize * k_eff, rep as usize * k_eff);
        predictions.copy_within(src..src + k_eff, dst);
    }

    let served = records.iter().filter(|r| r.is_some()).count();
    let makespan_s = records
        .iter()
        .flatten()
        .map(|r| r.completed)
        .fold(0.0f64, f64::max);
    let replicas = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let device_seconds: f64 = s
                .intervals
                .iter()
                .map(|&(start, end)| end.unwrap_or(makespan_s).max(start) - start)
                .sum();
            FleetReplicaReport {
                name: devices.device(i).profile().name.clone(),
                server: devices.server(i),
                alive: devices.is_alive(i),
                commissioned: devices.is_dispatchable(i),
                served: s.served,
                batches: s.batches,
                final_b: s.controller.micro_batch(),
                batch_trajectory: s.batch_trajectory,
                device_seconds,
                stats: s.stats,
            }
        })
        .collect();
    let outcome = FleetOutcome {
        records,
        predictions,
        k_eff,
        replicas,
        fault_log: Vec::new(),
        trajectory,
        cache: cache.stats(),
        hedge: hedge_stats,
        dedup: DedupStats::default(),
        makespan_s,
        served,
        lost: n - served,
    };
    (outcome, faults)
}
