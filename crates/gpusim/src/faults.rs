//! Deterministic fault injection: seeded, reproducible fault plans.
//!
//! Elastic training treats mid-run resource *change* — stragglers, device
//! loss, shrink/grow — as the defining scenario (Adaptive Elastic Training,
//! arXiv:2110.07029; Dynamic Mini-batch SGD, arXiv:1904.12043). A
//! [`FaultPlan`] schedules such events against the *virtual* execution of a
//! training run: every event fires at a `(mega-batch index, batch ordinal)`
//! point of the scheduler's deterministic loop, so a run under faults is a
//! pure function of `(run seed, fault seed)` — the same plan replayed at any
//! `ASGD_THREADS` produces bit-identical results, which is what makes chaos
//! failures reproducible from a single logged seed.
//!
//! The fault *vocabulary* lives here, next to the device model it perturbs;
//! what an event does is decided by [`crate::DevicePool::apply`], for the
//! trainer and the serving loop alike, and only the *reaction* is theirs.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// What happens when a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device's speed factor changes (straggler spike when `factor < 1`,
    /// recovery when it returns to the profile's nominal speed). Applied
    /// *from the firing sim time onward* — never retroactively to work the
    /// device already executed (see [`crate::Device::schedule_speed_factor`]).
    SpeedChange {
        /// New speed factor (must be positive).
        factor: f64,
    },
    /// A transient stall: the device freezes for `seconds` of sim time
    /// (driver hiccup, ECC scrub, co-tenant burst). The virtual clock jumps
    /// forward; dynamic dispatch routes batches around the stalled device
    /// until it catches up.
    Stall {
        /// Stall duration in simulated seconds.
        seconds: f64,
    },
    /// Permanent device loss. The trainer re-dispatches the replica's
    /// in-flight batches, evicts it from merging (renormalizing `α_i` over
    /// survivors), and re-targets batch-size scaling to the surviving set.
    DeviceLoss,
    /// Merge-time out-of-memory on the merge arena's pooled scratch
    /// allocation: the merge must degrade to the serial (non-pooled)
    /// reduction path instead of aborting. `gpu` is ignored for this kind.
    MergeOom,
    /// Permanent loss of an entire server (node): every device of the server
    /// dies at once — power loss, kernel panic, a fabric partition declared
    /// permanent. The trainer evicts the member replicas in ascending order,
    /// re-dispatches their in-flight batches to other servers, and
    /// renormalizes `α_i` across the surviving nodes. For this kind the
    /// event's `gpu` field holds the *server* index.
    ServerLoss,
    /// A transient inter-node stall: the server's uplink degrades and every
    /// device of the server freezes for `seconds` of sim time (network
    /// partition that heals, switch buffer exhaustion, a routing flap).
    /// For this kind the event's `gpu` field holds the *server* index.
    InterNodeStall {
        /// Stall duration in simulated seconds.
        seconds: f64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Mega-batch (in-run index, 0-based) in which the event fires.
    pub at_mega: usize,
    /// Batch ordinal *within* the mega-batch at which the event fires:
    /// the event triggers just before the `after_batches`-th dispatch of
    /// that mega-batch (`0` = at the boundary, before any dispatch). Events
    /// whose ordinal exceeds the mega-batch's dispatch count fire at the
    /// merge boundary instead — no event is ever silently dropped.
    /// [`FaultKind::MergeOom`] ignores this field and fires at the merge.
    pub after_batches: usize,
    /// Target device (ignored by [`FaultKind::MergeOom`]; holds the *server*
    /// index for [`FaultKind::ServerLoss`] and [`FaultKind::InterNodeStall`]).
    pub gpu: usize,
    /// The fault itself.
    pub kind: FaultKind,
}

/// A reproducible schedule of fault events, sorted by firing point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary event (builder-style).
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self.sort();
        self
    }

    /// Schedules a speed-factor change.
    pub fn speed_change(
        self,
        at_mega: usize,
        after_batches: usize,
        gpu: usize,
        factor: f64,
    ) -> Self {
        assert!(factor > 0.0, "speed factor must be positive");
        self.with_event(FaultEvent {
            at_mega,
            after_batches,
            gpu,
            kind: FaultKind::SpeedChange { factor },
        })
    }

    /// Schedules a transient stall.
    pub fn stall(self, at_mega: usize, after_batches: usize, gpu: usize, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "stall duration must be non-negative");
        self.with_event(FaultEvent {
            at_mega,
            after_batches,
            gpu,
            kind: FaultKind::Stall { seconds },
        })
    }

    /// Schedules a permanent device loss.
    pub fn device_loss(self, at_mega: usize, after_batches: usize, gpu: usize) -> Self {
        self.with_event(FaultEvent {
            at_mega,
            after_batches,
            gpu,
            kind: FaultKind::DeviceLoss,
        })
    }

    /// Schedules the permanent loss of a whole server.
    pub fn server_loss(self, at_mega: usize, after_batches: usize, server: usize) -> Self {
        self.with_event(FaultEvent {
            at_mega,
            after_batches,
            gpu: server,
            kind: FaultKind::ServerLoss,
        })
    }

    /// Schedules a transient inter-node stall on a server's uplink.
    pub fn inter_node_stall(
        self,
        at_mega: usize,
        after_batches: usize,
        server: usize,
        seconds: f64,
    ) -> Self {
        assert!(seconds >= 0.0, "stall duration must be non-negative");
        self.with_event(FaultEvent {
            at_mega,
            after_batches,
            gpu: server,
            kind: FaultKind::InterNodeStall { seconds },
        })
    }

    /// Schedules a merge-time arena OOM at the given mega-batch's merge.
    pub fn merge_oom(self, at_mega: usize) -> Self {
        self.with_event(FaultEvent {
            at_mega,
            after_batches: 0,
            gpu: 0,
            kind: FaultKind::MergeOom,
        })
    }

    /// Generates a reproducible mixed plan for an `n_gpus`-device run of
    /// `megas` mega-batches: a straggler spike with later recovery, a
    /// transient stall, one merge-OOM, and — when the server has at least
    /// three devices and the run is long enough — one permanent device loss
    /// (never the last survivor; at most one loss so at least two replicas
    /// keep exercising the merge path).
    ///
    /// The same `(seed, n_gpus, megas)` always yields the same plan.
    pub fn random(seed: u64, n_gpus: usize, megas: usize) -> Self {
        assert!(n_gpus >= 1, "need at least one device");
        assert!(megas >= 1, "need at least one mega-batch");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_F001_DE7E_C7ED);
        let mut plan = FaultPlan::new();
        let mega = |rng: &mut StdRng, lo: usize| -> usize {
            if megas <= lo + 1 {
                megas - 1
            } else {
                rng.gen_range(lo..megas)
            }
        };
        if n_gpus >= 2 {
            // Straggler spike: throttle hard, recover a few megas later.
            let victim = rng.gen_range(0..n_gpus);
            let drop_at = mega(&mut rng, 0);
            let factor = 0.2 + 0.3 * rng.gen_range(0.0..1.0);
            plan = plan.speed_change(drop_at, rng.gen_range(0..8), victim, factor);
            if drop_at + 1 < megas {
                plan = plan.speed_change(
                    mega(&mut rng, drop_at + 1),
                    rng.gen_range(0..8),
                    victim,
                    1.0,
                );
            }
            // Transient stall on some device.
            let stalled = rng.gen_range(0..n_gpus);
            plan = plan.stall(
                mega(&mut rng, 0),
                rng.gen_range(0..8),
                stalled,
                0.05 + rng.gen_range(0.0..0.2),
            );
        }
        // Merge-time arena OOM.
        plan = plan.merge_oom(mega(&mut rng, 0));
        if n_gpus >= 3 && megas >= 3 {
            // Permanent loss of one device, mid-run and mid-mega.
            let lost = rng.gen_range(0..n_gpus);
            plan = plan.device_loss(mega(&mut rng, 1), 1 + rng.gen_range(0..6usize), lost);
        }
        plan
    }

    /// [`FaultPlan::random`] for an `servers × devices_per_server` cluster:
    /// every device-targeted victim is drawn as a `(server, local-device)`
    /// pair and mapped to its flat id through the fixed server-major
    /// ordering — the same event list is valid for any context that agrees
    /// on the shape (the topology-aware replacement for `random`'s flat-id
    /// draws). On top of the single-server vocabulary it schedules, when the
    /// cluster is big enough to survive them, one transient inter-node stall
    /// (`servers ≥ 2`) and one whole-server loss (`servers ≥ 3`, so at least
    /// two nodes keep exercising the hierarchical merge).
    ///
    /// The same `(seed, servers, devices_per_server, megas)` always yields
    /// the same plan.
    pub fn random_cluster(
        seed: u64,
        servers: usize,
        devices_per_server: usize,
        megas: usize,
    ) -> Self {
        assert!(servers >= 1, "need at least one server");
        assert!(devices_per_server >= 1, "need at least one device/server");
        assert!(megas >= 1, "need at least one mega-batch");
        let n_gpus = servers * devices_per_server;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E2F_C1A9_0B3D_77E5);
        let mut plan = FaultPlan::new();
        let mega = |rng: &mut StdRng, lo: usize| -> usize {
            if megas <= lo + 1 {
                megas - 1
            } else {
                rng.gen_range(lo..megas)
            }
        };
        // Victims are (server, local) pairs, never raw flat indices: the draw
        // stays meaningful if the same plan is replayed against a context
        // that knows the shape.
        let device = |rng: &mut StdRng| -> usize {
            let s = rng.gen_range(0..servers);
            let l = rng.gen_range(0..devices_per_server);
            s * devices_per_server + l
        };
        if n_gpus >= 2 {
            let victim = device(&mut rng);
            let drop_at = mega(&mut rng, 0);
            let factor = 0.2 + 0.3 * rng.gen_range(0.0..1.0);
            plan = plan.speed_change(drop_at, rng.gen_range(0..8), victim, factor);
            if drop_at + 1 < megas {
                plan = plan.speed_change(
                    mega(&mut rng, drop_at + 1),
                    rng.gen_range(0..8),
                    victim,
                    1.0,
                );
            }
            let stalled = device(&mut rng);
            plan = plan.stall(
                mega(&mut rng, 0),
                rng.gen_range(0..8),
                stalled,
                0.05 + rng.gen_range(0.0..0.2),
            );
        }
        plan = plan.merge_oom(mega(&mut rng, 0));
        if n_gpus >= 3 && megas >= 3 {
            let lost = device(&mut rng);
            plan = plan.device_loss(mega(&mut rng, 1), 1 + rng.gen_range(0..6usize), lost);
        }
        if servers >= 2 && megas >= 2 {
            let server = rng.gen_range(0..servers);
            plan = plan.inter_node_stall(
                mega(&mut rng, 1),
                rng.gen_range(0..8),
                server,
                0.1 + rng.gen_range(0.0..0.3),
            );
        }
        if servers >= 3 && megas >= 3 {
            let server = rng.gen_range(0..servers);
            plan = plan.server_loss(mega(&mut rng, 1), 1 + rng.gen_range(0..6usize), server);
        }
        plan
    }

    /// All scheduled events, sorted by `(at_mega, after_batches, gpu)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The first event naming a device (a server, for the server-level
    /// kinds) past `devices` (`servers`), as `(server_level, target, have)`.
    pub fn missing_target(&self, devices: usize, servers: usize) -> Option<(bool, usize, usize)> {
        self.events.iter().find_map(|e| {
            let (server_level, have) = match e.kind {
                FaultKind::MergeOom => return None,
                FaultKind::ServerLoss | FaultKind::InterNodeStall { .. } => (true, servers),
                _ => (false, devices),
            };
            (e.gpu >= have).then_some((server_level, e.gpu, have))
        })
    }

    /// Whether a [`FaultKind::MergeOom`] fires at mega-batch `at_mega`.
    pub fn merge_oom_at(&self, at_mega: usize) -> bool {
        self.events
            .iter()
            .any(|e| e.at_mega == at_mega && e.kind == FaultKind::MergeOom)
    }

    /// Events (excluding [`FaultKind::MergeOom`], which is merge-phase-only)
    /// that fire in mega-batch `at_mega` once `dispatched` batches have been
    /// dispatched within it: every event with `after_batches` in
    /// `(prev_dispatched, dispatched]`-style windows is the caller's to
    /// manage; this helper returns those with `after_batches == dispatched`
    /// exactly, plus — when `at_merge` is set — all not-yet-fired stragglers
    /// of the mega (events whose ordinal was never reached).
    pub fn due(&self, at_mega: usize, dispatched: usize, at_merge: bool) -> Vec<FaultEvent> {
        self.events
            .iter()
            .filter(|e| {
                e.at_mega == at_mega
                    && e.kind != FaultKind::MergeOom
                    && if at_merge {
                        e.after_batches >= dispatched
                    } else {
                        e.after_batches == dispatched
                    }
            })
            .copied()
            .collect()
    }

    fn sort(&mut self) {
        self.events
            .sort_by_key(|e| (e.at_mega, e.after_batches, e.gpu));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_keeps_events_sorted() {
        let plan = FaultPlan::new()
            .stall(3, 0, 1, 0.5)
            .speed_change(0, 2, 0, 0.5)
            .device_loss(1, 4, 2);
        let megas: Vec<usize> = plan.events().iter().map(|e| e.at_mega).collect();
        assert_eq!(megas, vec![0, 1, 3]);
    }

    #[test]
    fn random_plan_is_deterministic() {
        let a = FaultPlan::random(7, 4, 12);
        let b = FaultPlan::random(7, 4, 12);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, 4, 12);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_plan_stays_in_range() {
        for seed in 0..50 {
            for (n, megas) in [(1usize, 1usize), (2, 3), (3, 8), (4, 20)] {
                let plan = FaultPlan::random(seed, n, megas);
                for e in plan.events() {
                    assert!(e.at_mega < megas, "event beyond run length: {e:?}");
                    assert!(e.gpu < n, "event on unknown gpu: {e:?}");
                }
                // Never more than one loss, and none on tiny servers.
                let losses = plan
                    .events()
                    .iter()
                    .filter(|e| e.kind == FaultKind::DeviceLoss)
                    .count();
                assert!(losses <= 1);
                if n < 3 {
                    assert_eq!(losses, 0, "loss scheduled with < 3 devices");
                }
            }
        }
    }

    #[test]
    fn due_matches_exact_dispatch_points_and_sweeps_at_merge() {
        let plan = FaultPlan::new()
            .speed_change(2, 0, 0, 0.5)
            .stall(2, 3, 1, 0.1)
            .device_loss(2, 99, 0)
            .merge_oom(2);
        assert_eq!(plan.due(2, 0, false).len(), 1);
        assert_eq!(plan.due(2, 1, false).len(), 0);
        assert_eq!(plan.due(2, 3, false).len(), 1);
        // Merge sweep catches the never-reached ordinal but not MergeOom.
        let at_merge = plan.due(2, 10, true);
        assert_eq!(at_merge.len(), 1);
        assert_eq!(at_merge[0].kind, FaultKind::DeviceLoss);
        assert!(plan.merge_oom_at(2));
        assert!(!plan.merge_oom_at(1));
        assert!(plan.due(1, 0, false).is_empty());
    }

    #[test]
    #[should_panic(expected = "speed factor must be positive")]
    fn non_positive_speed_factor_panics() {
        let _ = FaultPlan::new().speed_change(0, 0, 0, 0.0);
    }

    #[test]
    fn random_cluster_plan_is_deterministic_and_shape_aware() {
        let a = FaultPlan::random_cluster(7, 4, 4, 12);
        let b = FaultPlan::random_cluster(7, 4, 4, 12);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::random_cluster(8, 4, 4, 12));
        // A different shape redraws the victims even at the same seed.
        assert_ne!(a, FaultPlan::random_cluster(7, 2, 8, 12));
    }

    #[test]
    fn random_cluster_events_stay_in_range() {
        for seed in 0..40 {
            for (servers, m, megas) in [(1usize, 1usize, 1usize), (2, 4, 3), (3, 2, 8), (8, 4, 12)]
            {
                let plan = FaultPlan::random_cluster(seed, servers, m, megas);
                for e in plan.events() {
                    assert!(e.at_mega < megas, "event beyond run length: {e:?}");
                    match e.kind {
                        FaultKind::ServerLoss | FaultKind::InterNodeStall { .. } => {
                            assert!(e.gpu < servers, "event on unknown server: {e:?}");
                        }
                        _ => assert!(e.gpu < servers * m, "event on unknown gpu: {e:?}"),
                    }
                }
                let server_losses = plan
                    .events()
                    .iter()
                    .filter(|e| e.kind == FaultKind::ServerLoss)
                    .count();
                assert!(server_losses <= 1);
                if servers < 3 {
                    assert_eq!(server_losses, 0, "server loss scheduled with < 3 servers");
                }
            }
        }
    }

    #[test]
    fn random_cluster_device_losses_map_to_consistent_locations() {
        // The topology-aware draw must keep every device-targeted victim
        // decomposable as (server, local) of the generating shape.
        for seed in 0..40 {
            let (servers, m) = (4usize, 3usize);
            let plan = FaultPlan::random_cluster(seed, servers, m, 10);
            for e in plan.events() {
                if matches!(
                    e.kind,
                    FaultKind::DeviceLoss | FaultKind::SpeedChange { .. } | FaultKind::Stall { .. }
                ) {
                    let (s, l) = (e.gpu / m, e.gpu % m);
                    assert!(
                        s < servers && l < m,
                        "victim {} has no (server, local)",
                        e.gpu
                    );
                }
            }
        }
    }

    #[test]
    fn server_loss_and_inter_node_stall_builders() {
        let plan = FaultPlan::new()
            .server_loss(2, 1, 1)
            .inter_node_stall(0, 3, 0, 0.25);
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::InterNodeStall { seconds: 0.25 }
        );
        assert_eq!(plan.events()[1].kind, FaultKind::ServerLoss);
    }
}
