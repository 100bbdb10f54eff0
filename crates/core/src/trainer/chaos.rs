//! Chaos-mode scheduler extensions: the trainer's reaction to a seeded
//! [`asgd_gpusim::FaultPlan`].
//!
//! What an event does to the devices — and whether a loss is refused — is
//! decided by the scheduler's [`asgd_gpusim::DevicePool`], the one fault
//! interpreter, which the serving loop shares; this module reacts to its
//! outcome. Faults fire while the scheduler decides a mega-batch, before its
//! replicas train, and consume only virtual clocks and plan state, so a
//! faulted run stays a deterministic function of `(run seed, fault plan)` at
//! any `ASGD_THREADS`.
//!
//! The reactions (policy: `DESIGN.md`, "Fault model & degradation
//! semantics"): a speed change or stall is logged, and dynamic dispatch and
//! Algorithm 1 re-balance around it; a refused loss is logged; per device
//! lost, ascending, the replica is dropped and its untrained batch list is
//! re-dispatched to survivors (no sample lost, none double-counted), and the
//! merge — which runs over the live set, never forked — and Algorithm 1 drop
//! it. On a merge OOM the pooled reduction's scratch allocation fails and
//! the merge's tile pass stays on the scheduler thread (nothing is submitted
//! to the worker pool), bit-identical in results and simulated timing.

use super::SchedulerState;
use asgd_gpusim::{FaultEffect, FaultOutcome, Unit};

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
    /// An entire server died; every live member replica was evicted (each
    /// also logs its own [`AppliedFault::DeviceLoss`] line).
    ServerLoss {
        /// Mega-batch in which it fired.
        mega: usize,
        /// The dead server.
        server: usize,
        /// Member devices evicted (already-dead members are excluded).
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
    /// A device or server loss was refused: it would have left nothing to
    /// dispatch to.
    LossRefused {
        /// Mega-batch in which it fired.
        mega: usize,
        /// The device or server the loss named.
        unit: Unit,
        /// Why (`last survivor`, `no survivor outside`).
        reason: &'static str,
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
                AppliedFault::LossRefused { mega, unit, reason } => {
                    let named = match unit {
                        Unit::Device(gpu) => format!("gpu {gpu} device-loss"),
                        Unit::Server(server) => format!("server {server} server-loss"),
                    };
                    out.push_str(&format!("mega {mega} {named} REFUSED ({reason})\n"));
                }
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
        let scratch_bytes = (k * self.global.param_len() * self.cfg.precision.bytes()) as u64;
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

    /// Applies the plan events due at `(mega, dispatched)` (`at_merge`: every
    /// ordinal not yet reached) through the pool and reacts.
    pub(super) fn fire_due_faults(
        &mut self,
        mega: usize,
        dispatched: usize,
        at_merge: bool,
        interval_updates: &mut [u64],
        interval_samples: &mut [u64],
    ) {
        let Some(plan) = self.cfg.fault_plan.as_ref() else {
            return;
        };
        for e in plan.due(mega, dispatched, at_merge) {
            let Some(FaultOutcome { unit, effect, at }) = self.pool.apply(&e) else {
                continue;
            };
            let at = at.secs();
            // `e.gpu` is the device or server the event named.
            let fault = match effect {
                FaultEffect::Speed(factor) => AppliedFault::SpeedChange {
                    mega,
                    gpu: e.gpu,
                    factor,
                    at,
                },
                FaultEffect::Stalled(seconds) => AppliedFault::Stall {
                    mega,
                    gpu: e.gpu,
                    seconds,
                    at,
                },
                FaultEffect::Unreachable(seconds) => AppliedFault::InterNodeStall {
                    mega,
                    server: e.gpu,
                    seconds,
                    at,
                },
                FaultEffect::Refused(reason) => AppliedFault::LossRefused { mega, unit, reason },
                FaultEffect::Lost(lost) => {
                    let redispatched = self.evict(&lost, mega, interval_updates, interval_samples);
                    // A device loss is logged by `evict` alone.
                    let Unit::Server(server) = unit else {
                        continue;
                    };
                    AppliedFault::ServerLoss {
                        mega,
                        server,
                        lost,
                        redispatched,
                    }
                }
            };
            self.chaos.faults.push(fault);
        }
    }

    /// Evicts the replicas in `lost`, which the pool has already killed (so no
    /// batch goes to one about to die): each one is dropped with its place
    /// in the merge's collective, its accounting is zeroed and its untrained
    /// batches re-dispatched to survivors. Returns their count.
    fn evict(
        &mut self,
        lost: &[usize],
        mega: usize,
        interval_updates: &mut [u64],
        interval_samples: &mut [u64],
    ) -> u64 {
        let mut total = 0;
        for &g in lost {
            let at = self.pool.device(g).now().secs();
            let live = self.replicas.iter().position(|r| r.gpu == g);
            let live = live.expect("a device the pool just killed had a replica");
            self.replicas.remove(live);
            // The survivors' collective keeps their links, profiles and
            // server assignments.
            let survivors: Vec<usize> = (0..=self.replicas.len()).filter(|&i| i != live).collect();
            self.ctx = self.ctx.subset(&survivors);
            let untrained = std::mem::take(&mut self.work[g]);
            interval_updates[g] = 0;
            interval_samples[g] = 0;
            self.hypers[g].updates = 0;
            let redispatched = untrained.len() as u64;
            for ids in untrained {
                let s = self.pick_gpu();
                interval_updates[s] += 1;
                interval_samples[s] += ids.len() as u64;
                self.charge_and_queue(s, ids);
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
            total += redispatched;
        }
        total
    }
}
