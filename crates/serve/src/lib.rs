//! `asgd-serve` — heterogeneity-aware online inference with adaptive
//! micro-batching.
//!
//! The paper's training-side mechanisms map one-to-one onto a serving tier:
//!
//! | training (paper)                      | serving (this crate)              |
//! |---------------------------------------|-----------------------------------|
//! | one-batch-at-a-time dynamic dispatch  | next micro-batch to the replica whose clock frees first |
//! | Algorithm 1 batch-size scaling        | [`SloController`]: `b ← clamp(b − β·(p99−target)/target, b_min, b_max)` |
//! | chaos-harness fault injection         | same [`asgd_gpusim::FaultPlan`], at `(window, dispatch)` points, applied by the same [`asgd_gpusim::DevicePool`] under the same policy |
//! | replica loss → survivor re-dispatch   | queued requests drain through survivors; zero loss |
//!
//! A run loads a trained [`asgd_model::Mlp`] (typically via
//! [`asgd_core::load_model`] from a training checkpoint), boots one replica
//! per simulated device, and drains a seeded open-loop request stream
//! ([`open_loop_stream`]) through a central admission queue. Every
//! scheduling decision consumes only virtual clocks and seeded state, so
//! the full outcome — dispatch order, latencies, trajectories, predictions
//! — is a pure function of `(request seed, fault seed)` at any
//! `ASGD_THREADS`; the real forward math runs off the decision path, in
//! blocks of a few hundred dispatched rows, and lands in id-indexed buffers.
//!
//! ## One loop, two entry points
//!
//! The crate holds exactly one scheduler loop — the fleet session in
//! [`fleet`]. [`serve_fleet`] drives it at internet shape: a
//! [`ModelRegistry`] holds N checkpoint versions with content-addressed
//! per-layer weight dedup (versions sharing a layer share one allocation,
//! f32 and bf16 tiers alike), [`fleet_stream`] generates diurnal/bursty
//! Zipf-skewed multi-tenant load, a [`PredictionCache`] replays the Zipf
//! head without touching a device, [`HedgePolicy`]-driven hedged requests
//! race a second replica and cancel the loser in virtual time
//! ([`asgd_gpusim::Device::rollback_to`]), and an [`AutoscaleController`]
//! commissions/decommissions replica slots on admission-queue depth —
//! Algorithm 1 pointed at provisioning, placed round-robin across a
//! [`asgd_gpusim::ClusterTopology`]'s servers.
//!
//! [`serve`], the single-model engine, is layered on that session, not the
//! other way round: it is the one-tenant configuration — cache capacity 0,
//! hedging off, every device commissioned from the start, one server — and
//! only adapts inputs and outputs ([`engine`]). Either way the full outcome
//! is a pure function of `(load seed, fault seed, config)` at any
//! `ASGD_THREADS`. See DESIGN.md, "Serving subsystem".

pub mod autoscale;
pub mod cache;
pub mod engine;
pub mod fleet;
pub mod hedge;
pub mod loadgen;
pub mod registry;
pub mod slo;
pub mod stream;

pub use autoscale::{AutoscaleController, AutoscaleDecision, Provisioning};
pub use cache::{CacheStats, PredictionCache};
pub use engine::{serve, LatencyStats, ReplicaReport, RequestRecord, ServeConfig, ServeOutcome};
pub use fleet::{serve_fleet, FleetConfig, FleetOutcome, FleetRecord, FleetReplicaReport};
pub use hedge::{HedgePolicy, HedgeStats};
pub use loadgen::{fleet_stream, FleetLoadSpec, TenantRequest};
pub use registry::{adapter_variant, DedupStats, ModelRegistry, ModelVersion};
pub use registry::{RegistryError, VersionId};
pub use slo::SloController;
pub use stream::{open_loop_stream, Request};
