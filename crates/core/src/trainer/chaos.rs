//! Chaos-mode scheduler extensions: applying a seeded [`FaultPlan`] and
//! degrading gracefully.
//!
//! The fault *vocabulary* lives in `asgd_gpusim::faults`; this module is the
//! trainer's *reaction*. Everything here runs on the scheduler thread and
//! consumes only virtual clocks and plan state, so a faulted run stays a
//! deterministic function of `(run seed, fault plan)` at any `ASGD_THREADS`.
//!
//! Degradation semantics (see `DESIGN.md`, "Fault model & degradation
//! semantics"):
//!
//! * **Speed change** — scheduled on the device from the current dispatch
//!   frontier onward (never retroactive to in-flight work); dynamic dispatch
//!   and Algorithm 1 re-balance around it.
//! * **Stall** — the device's virtual clock jumps forward; dynamic dispatch
//!   routes batches elsewhere until it catches up.
//! * **Device loss** — the replica's un-merged batches are re-dispatched to
//!   survivors (no sample lost, none double-counted), the dead replica is
//!   evicted from Algorithm 2 merging with `α_i` renormalized over the
//!   survivors, and batch-size scaling re-targets the surviving set. The
//!   merge stage itself is not forked: `SchedulerState::merge` runs over
//!   the live set, and a loss only shrinks that set.
//! * **Merge OOM** — the pooled reduction's scratch allocation fails and the
//!   merge's tile pass stays on the scheduler thread (nothing is submitted
//!   to the worker pool), which is bit-identical in results and simulated
//!   timing.

use super::messages::ToManager;
use super::SchedulerState;
use asgd_gpusim::{FaultKind, SimTime};
use std::sync::mpsc::Sender;

/// One fault the scheduler actually applied (the plan's events resolved to
/// concrete sim times and reactions). The log is deterministic for a fixed
/// `(run seed, fault plan)`.
#[derive(Debug, Clone, PartialEq)]
pub enum AppliedFault {
    /// A speed-factor change took effect.
    SpeedChange {
        /// Mega-batch in which it fired.
        mega: usize,
        /// Target device.
        gpu: usize,
        /// New speed factor.
        factor: f64,
        /// Sim time it was scheduled from (the dispatch frontier).
        at: f64,
    },
    /// A transient stall froze a device.
    Stall {
        /// Mega-batch in which it fired.
        mega: usize,
        /// Target device.
        gpu: usize,
        /// Stall duration in simulated seconds.
        seconds: f64,
        /// Sim time the stall began (the device's clock).
        at: f64,
    },
    /// A device was lost permanently and its in-flight work re-dispatched.
    DeviceLoss {
        /// Mega-batch in which it fired.
        mega: usize,
        /// The dead device.
        gpu: usize,
        /// Batches re-dispatched to survivors.
        redispatched: u64,
        /// Sim time of death (the device's clock).
        at: f64,
    },
    /// The pooled merge scratch allocation failed; the merge degraded to the
    /// serial reduction path.
    MergeOomFallback {
        /// Mega-batch whose merge degraded.
        mega: usize,
        /// Bytes the pooled path requested.
        requested: u64,
        /// Bytes that were available.
        available: u64,
    },
    /// An entire server died; every member replica was evicted (each also
    /// logs its own [`AppliedFault::DeviceLoss`] line).
    ServerLoss {
        /// Mega-batch in which it fired.
        mega: usize,
        /// The dead server.
        server: usize,
        /// Member devices actually evicted (already-dead members and a
        /// refused last survivor are excluded).
        lost: Vec<usize>,
        /// Batches re-dispatched off the dead server.
        redispatched: u64,
    },
    /// A transient inter-node stall froze every device of one server.
    InterNodeStall {
        /// Mega-batch in which it fired.
        mega: usize,
        /// The stalled server.
        server: usize,
        /// Stall duration in simulated seconds.
        seconds: f64,
        /// Sim time the stall began (the earliest member clock).
        at: f64,
    },
}

/// Accounting of everything chaos-related that happened in a run. Populated
/// only when [`super::RunConfig::fault_plan`] is set (a plain run reports the
/// `Default`), so the fault-free hot path stays untouched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosStats {
    /// Faults applied, in firing order.
    pub faults: Vec<AppliedFault>,
    /// Devices permanently lost, in death order.
    pub lost_gpus: Vec<usize>,
    /// Batches re-dispatched from dead replicas to survivors.
    pub redispatched_batches: u64,
    /// Batches whose trained-but-unmerged effect died with a replica (these
    /// are exactly the re-dispatched ones: discarded from the dead replica,
    /// re-run on a survivor).
    pub discarded_batches: u64,
    /// Merges that degraded to the serial (non-pooled) reduction.
    pub serial_fallback_merges: u64,
    /// Batches whose updates made it into a merge (summed over surviving
    /// replicas at every merge boundary).
    pub batches_committed: u64,
    /// Samples covered by `batches_committed`.
    pub samples_committed: u64,
}

impl ChaosStats {
    /// Whether nothing chaos-related happened.
    pub fn is_quiet(&self) -> bool {
        self.faults.is_empty()
    }

    /// Deterministic plain-text rendering (one line per fault plus the
    /// accounting summary) — the chaos CI gate byte-diffs this across
    /// `ASGD_THREADS` settings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.faults {
            match f {
                AppliedFault::SpeedChange {
                    mega,
                    gpu,
                    factor,
                    at,
                } => out.push_str(&format!(
                    "mega {mega} gpu {gpu} speed-change factor {factor:.6} at {at:.9}\n"
                )),
                AppliedFault::Stall {
                    mega,
                    gpu,
                    seconds,
                    at,
                } => out.push_str(&format!(
                    "mega {mega} gpu {gpu} stall {seconds:.6}s at {at:.9}\n"
                )),
                AppliedFault::DeviceLoss {
                    mega,
                    gpu,
                    redispatched,
                    at,
                } => out.push_str(&format!(
                    "mega {mega} gpu {gpu} device-loss redispatched {redispatched} at {at:.9}\n"
                )),
                AppliedFault::MergeOomFallback {
                    mega,
                    requested,
                    available,
                } => out.push_str(&format!(
                    "mega {mega} merge-oom requested {requested} available {available} -> serial\n"
                )),
                AppliedFault::ServerLoss {
                    mega,
                    server,
                    lost,
                    redispatched,
                } => out.push_str(&format!(
                    "mega {mega} server {server} server-loss lost {lost:?} redispatched {redispatched}\n"
                )),
                AppliedFault::InterNodeStall {
                    mega,
                    server,
                    seconds,
                    at,
                } => out.push_str(&format!(
                    "mega {mega} server {server} inter-node-stall {seconds:.6}s at {at:.9}\n"
                )),
            }
        }
        out.push_str(&format!(
            "lost {:?} redispatched {} discarded {} serial_merges {} committed {} batches / {} samples\n",
            self.lost_gpus,
            self.redispatched_batches,
            self.discarded_batches,
            self.serial_fallback_merges,
            self.batches_committed,
            self.samples_committed,
        ));
        out
    }
}

impl SchedulerState<'_> {
    /// Asks the merge memory tracker for the pooled reduction's scratch —
    /// `k` replica-sized buffers at the storage width, so a bf16 merge
    /// requests half the bytes of an f32 one and an identically-sized
    /// tracker OOMs later. (The request is the simulated device-side cost of
    /// a pooled merge; the host's tile pass needs no such buffers.) When it
    /// fails — an OOM fault hogged the capacity — the merge degrades to the
    /// serial reduction instead of aborting; returns whether the pool may be
    /// used.
    pub(super) fn pooled_merge_fits(&mut self, k: usize, mega: usize) -> bool {
        let memory = &mut self.merge_memory;
        let scratch_bytes = (k * self.global.len() * self.cfg.precision.bytes()) as u64;
        // A scheduled MergeOom manifests as a co-tenant burst eating the whole
        // remaining capacity, so the pooled scratch request below genuinely
        // fails through the memory tracker.
        let plan = self.cfg.fault_plan.as_ref();
        let hog = plan.filter(|p| p.merge_oom_at(mega)).map(|_| {
            memory
                .alloc("chaos-oom-cotenant", memory.available())
                .expect("hogging the available bytes cannot fail")
        });
        let fits = match memory.alloc("merge-pool-scratch", scratch_bytes) {
            Ok(scratch) => {
                memory.free(scratch);
                true
            }
            Err(oom) => {
                self.chaos.serial_fallback_merges += 1;
                self.chaos.faults.push(AppliedFault::MergeOomFallback {
                    mega,
                    requested: oom.requested,
                    available: oom.available,
                });
                false
            }
        };
        if let Some(h) = hog {
            memory.free(h);
        }
        fits
    }

    /// The dispatch frontier: the earliest point the scheduler can still
    /// influence — the minimum virtual clock over surviving devices.
    fn frontier(&self) -> SimTime {
        self.devices
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(d, _)| d.now())
            .fold(SimTime(f64::INFINITY), |acc, t| {
                if t.secs() < acc.secs() {
                    t
                } else {
                    acc
                }
            })
    }

    /// Fires every plan event due at `(mega, dispatched)` (or, `at_merge`,
    /// every not-yet-reached ordinal of the mega-batch). Returns the number
    /// of extra `Train` messages sent (loss re-dispatches), which the caller
    /// must add to its drain count.
    pub(super) fn fire_due_faults(
        &mut self,
        to: &[Sender<ToManager>],
        mega: usize,
        dispatched: usize,
        at_merge: bool,
        interval_updates: &mut [u64],
        interval_samples: &mut [u64],
    ) -> usize {
        let Some(plan) = self.cfg.fault_plan.as_ref() else {
            return 0;
        };
        let events = plan.due(mega, dispatched, at_merge);
        let mut extra = 0usize;
        for e in events {
            match e.kind {
                FaultKind::SpeedChange { factor } => {
                    let at = self.frontier();
                    self.devices[e.gpu].schedule_speed_factor(at, factor);
                    self.chaos.faults.push(AppliedFault::SpeedChange {
                        mega,
                        gpu: e.gpu,
                        factor,
                        at: at.secs(),
                    });
                }
                FaultKind::Stall { seconds } => {
                    let from = self.devices[e.gpu].now();
                    self.devices[e.gpu].advance_to(from + seconds);
                    self.chaos.faults.push(AppliedFault::Stall {
                        mega,
                        gpu: e.gpu,
                        seconds,
                        at: from.secs(),
                    });
                }
                FaultKind::DeviceLoss => {
                    extra += self.lose_device(e.gpu, mega, to, interval_updates, interval_samples);
                }
                FaultKind::ServerLoss => {
                    extra += self.lose_server(e.gpu, mega, to, interval_updates, interval_samples);
                }
                FaultKind::InterNodeStall { seconds } => {
                    self.inter_node_stall(e.gpu, seconds, mega);
                }
                FaultKind::MergeOom => unreachable!("MergeOom is filtered out of FaultPlan::due"),
            }
        }
        extra
    }

    /// Kills device `g`: evicts it from dispatch and merging and re-dispatches
    /// its un-merged batches to survivors. A loss targeting an already-dead
    /// device or the last survivor is ignored (the run must stay able to
    /// finish). Returns the number of re-dispatched batches.
    fn lose_device(
        &mut self,
        g: usize,
        mega: usize,
        to: &[Sender<ToManager>],
        interval_updates: &mut [u64],
        interval_samples: &mut [u64],
    ) -> usize {
        if !self.alive[g] || self.alive.iter().filter(|&&a| a).count() == 1 {
            return 0;
        }
        self.alive[g] = false;
        let at = self.devices[g].now().secs();
        // The manager drains its queued work (replying `Trained` for each
        // batch — the accounting below discards those results) and exits.
        let _ = to[g].send(ToManager::Stop);
        // Everything the replica trained since the last merge dies with it:
        // zero its accounting and hand the exact same sample batches to
        // survivors, so no sample is lost and none is double-counted.
        let in_flight = std::mem::take(&mut self.in_flight[g]);
        interval_updates[g] = 0;
        interval_samples[g] = 0;
        self.hypers[g].updates = 0;
        let redispatched = in_flight.len() as u64;
        for ids in in_flight {
            let s = self.pick_gpu();
            interval_updates[s] += 1;
            interval_samples[s] += ids.len() as u64;
            self.charge_and_send(s, ids, to);
        }
        self.chaos.redispatched_batches += redispatched;
        self.chaos.discarded_batches += redispatched;
        self.chaos.lost_gpus.push(g);
        self.chaos.faults.push(AppliedFault::DeviceLoss {
            mega,
            gpu: g,
            redispatched,
            at,
        });
        redispatched as usize
    }

    /// The devices of `server` — every device when no cluster is configured
    /// (`RunConfig::validate` has checked the index against the shape).
    fn server_members(&self, server: usize) -> std::ops::Range<usize> {
        let m = self
            .cfg
            .cluster
            .map_or(self.n(), |cl| cl.devices_per_server);
        server * m..(server + 1) * m
    }

    /// Kills every device of server `server`, in ascending local order: each
    /// member goes through the [`Self::lose_device`] eviction (re-dispatch,
    /// merge eviction, scaling re-target), then one summary fault records
    /// the node-level loss. The last fleet survivor is still refused, so a
    /// run can always finish. Returns the total re-dispatched batch count.
    fn lose_server(
        &mut self,
        server: usize,
        mega: usize,
        to: &[Sender<ToManager>],
        interval_updates: &mut [u64],
        interval_samples: &mut [u64],
    ) -> usize {
        let mut redispatched = 0usize;
        let mut lost = Vec::new();
        for g in self.server_members(server) {
            let was_alive = self.alive[g];
            redispatched += self.lose_device(g, mega, to, interval_updates, interval_samples);
            if was_alive && !self.alive[g] {
                lost.push(g);
            }
        }
        self.chaos.faults.push(AppliedFault::ServerLoss {
            mega,
            server,
            lost,
            redispatched: redispatched as u64,
        });
        redispatched
    }

    /// A transient inter-node stall: every surviving device of the server
    /// freezes for `seconds` (the uplink is gone; nothing useful can be
    /// dispatched to or drained from the node until it heals). Dynamic
    /// dispatch routes batches to other servers until the clocks catch up.
    fn inter_node_stall(&mut self, server: usize, seconds: f64, mega: usize) {
        let members: Vec<usize> = self
            .server_members(server)
            .filter(|&g| self.alive[g])
            .collect();
        if members.is_empty() {
            return;
        }
        let at = members
            .iter()
            .map(|&g| self.devices[g].now().secs())
            .fold(f64::INFINITY, f64::min);
        for &g in &members {
            let from = self.devices[g].now();
            self.devices[g].advance_to(from + seconds);
        }
        self.chaos.faults.push(AppliedFault::InterNodeStall {
            mega,
            server,
            seconds,
            at,
        });
    }
}
