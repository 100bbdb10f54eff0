//! The single-model serving engine: [`serve`] and its public types.
//!
//! There is no scheduler here. [`serve`] is the one-tenant configuration of
//! the crate's one serving loop ([`crate::fleet`]) and only adapts its inputs
//! and outputs; dispatch, adaptive micro-batching, fault reactions and the
//! blocked forward math are described there.

use crate::fleet::{run_session, FleetConfig, ServedFault, Tenant};
use crate::loadgen::TenantRequest;
use crate::stream::Request;
use asgd_core::ScalingParams;
use asgd_gpusim::device::build_server;
use asgd_gpusim::{ClusterTopology, DeviceProfile, FaultPlan};
use asgd_model::Mlp;
use asgd_sparse::CsrMatrix;
use asgd_stats::{Histogram, P2Quantile};
use asgd_tensor::Precision;

/// Histogram bins of the latency distribution (per replica and fleet).
const HIST_BINS: usize = 64;

/// Serving-run parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Top-k classes returned per request (capped at `num_classes`).
    pub k: usize,
    /// Per-request latency SLO, seconds (arrival → completion).
    pub slo_s: f64,
    /// Micro-batch bounds and step, in request-count units (the paper's
    /// `b_min = b_max/8`, `β = b_min/2` defaults apply unchanged).
    pub scaling: ScalingParams,
    /// `true` = adaptive micro-batching (the SLO controller); `false` =
    /// fixed micro-batches of `b_max` (the baseline).
    pub adaptive: bool,
    /// Controller window length, in fleet-wide dispatches.
    pub window_dispatches: usize,
    /// Seed of the devices' jitter streams.
    pub device_seed: u64,
    /// Storage precision the replica weights were streamed at.
    /// [`Precision::F32`] serves the checkpoint exactly;
    /// [`Precision::Bf16`] models a bf16-streamed checkpoint — weights are
    /// narrowed once (round-to-nearest-even) and widened exactly, so every
    /// replica serves the identically-rounded model and all inference math
    /// stays f32.
    pub precision: Precision,
}

impl ServeConfig {
    /// Paper-default config: adaptive, `b_max`-derived scaling bounds.
    pub fn paper_defaults(b_max: usize, slo_s: f64) -> Self {
        Self {
            k: 5,
            slo_s,
            scaling: ScalingParams::paper_defaults(b_max),
            adaptive: true,
            window_dispatches: 16,
            device_seed: 0x5E12_EE00,
            precision: Precision::F32,
        }
    }

    /// The same config serving bf16-streamed weights.
    pub fn bf16(mut self) -> Self {
        self.precision = Precision::Bf16;
        self
    }

    /// The same config with adaptive batching disabled (fixed `b_max`).
    pub fn fixed_batch(mut self) -> Self {
        self.adaptive = false;
        self
    }
}

/// Timing record of one served request (all in simulated seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Arrival at the admission queue.
    pub arrival: f64,
    /// Dispatch to a replica (queueing ends).
    pub dispatched: f64,
    /// Completion on the device.
    pub completed: f64,
    /// Serving replica index.
    pub replica: usize,
    /// Size of the micro-batch this request rode in.
    pub batch: usize,
}

impl RequestRecord {
    /// End-to-end latency (the SLO'd quantity).
    pub fn latency(&self) -> f64 {
        self.completed - self.arrival
    }

    /// Time spent waiting in the admission queue.
    pub fn queueing(&self) -> f64 {
        self.dispatched - self.arrival
    }

    /// Time spent computing on the device.
    pub fn compute(&self) -> f64 {
        self.completed - self.dispatched
    }
}

/// Streaming latency statistics of one replica (or, merged, of the fleet).
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Median estimator.
    pub p50: P2Quantile,
    /// 95th-percentile estimator.
    pub p95: P2Quantile,
    /// 99th-percentile estimator.
    pub p99: P2Quantile,
    /// Latency histogram over `[0, hi)`.
    pub hist: Histogram,
    hi: f64,
}

impl LatencyStats {
    /// Empty statistics with a histogram over `[0, hi)` seconds.
    pub fn new(hi: f64) -> Self {
        Self {
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            hist: Histogram::new(0.0, hi, HIST_BINS),
            hi,
        }
    }

    /// Records one latency observation (seconds).
    pub fn record(&mut self, latency_s: f64) {
        self.p50.record(latency_s);
        self.p95.record(latency_s);
        self.p99.record(latency_s);
        self.hist.record(latency_s);
    }

    /// Observations recorded.
    pub fn count(&self) -> usize {
        self.p99.count()
    }

    /// Folds another replica's statistics into this one. P² merging is
    /// order-dependent — callers MUST fold replicas in ascending replica
    /// index (as [`ServeOutcome::fleet_latency`] does), never in completion
    /// order, or the fleet quantiles stop being thread-count independent.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.p50.merge(&other.p50);
        self.p95.merge(&other.p95);
        self.p99.merge(&other.p99);
        self.hist.merge(&other.hist);
    }
}

/// Per-replica serving summary.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// Device name (from the profile).
    pub name: String,
    /// Still alive at end of run.
    pub alive: bool,
    /// Requests served.
    pub served: usize,
    /// Micro-batches executed.
    pub batches: usize,
    /// Micro-batch size at end of run.
    pub final_b: usize,
    /// Micro-batch size after each controller window (the trajectory the
    /// acceptance report prints).
    pub trajectory: Vec<usize>,
    /// Latency statistics of the requests this replica served.
    pub stats: LatencyStats,
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-request timing, indexed by request id (`None` = never served;
    /// the zero-loss guarantee says there are none).
    pub records: Vec<Option<RequestRecord>>,
    /// Row-major `n_requests × k_eff` predicted class ids, indexed by
    /// request id — independent of dispatch and completion order.
    pub predictions: Vec<u32>,
    /// Classes returned per request (`min(k, num_classes)`).
    pub k_eff: usize,
    /// Per-replica summaries, by replica index.
    pub replicas: Vec<ReplicaReport>,
    /// Human-readable log of every fault applied (or refused), in firing
    /// order.
    pub fault_log: Vec<String>,
    /// Completion time of the last request, seconds.
    pub makespan_s: f64,
    /// Requests served.
    pub served: usize,
    /// Requests generated but never served (zero by construction; recorded
    /// so tests and reports can assert it).
    pub lost: usize,
}

impl ServeOutcome {
    /// Fleet-wide latency statistics: per-replica collectors folded in
    /// ascending replica index — the deterministic merge order that keeps
    /// fleet quantiles independent of thread count and completion order.
    pub fn fleet_latency(&self) -> LatencyStats {
        let hi = self.replicas.first().map_or(1.0, |r| r.stats.hi);
        let mut fleet = LatencyStats::new(hi);
        for r in &self.replicas {
            fleet.merge(&r.stats);
        }
        fleet
    }

    /// Served requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.served as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// The predictions of one request (`k_eff` class ids), or `None` for an
    /// id the run never generated — an unknown id is a caller-side lookup
    /// miss, not a panic.
    pub fn prediction(&self, id: u32) -> Option<&[u32]> {
        let lo = (id as usize).checked_mul(self.k_eff)?;
        self.predictions.get(lo..lo + self.k_eff)
    }
}

/// The engine's wording of a session's fault: devices are `gpu`s, and a
/// loss says on the same line where the queue went.
fn fault_lines(fault: &ServedFault) -> Vec<String> {
    let mut lines = fault.lines("gpu");
    if let (Some((queued, survivors)), Some(line)) = (fault.handover, lines.last_mut()) {
        *line += &format!("; {queued} queued re-dispatched to {survivors} survivors");
    }
    lines
}

/// Runs a serving session: drains `requests` (rows of `pool`) through one
/// replica of `model` per device in `profiles`, under `plan`'s faults
/// (reinterpreted at `(window, dispatch ordinal)` points), with adaptive
/// micro-batching per `config`.
///
/// This is the fleet session ([`crate::fleet`]) pinned to one tenant, cache
/// capacity 0, hedging off, every device commissioned from the start, and
/// one server (so no cross-server RTT), on devices seeded by
/// [`build_server`]. A plan event naming a device the server does not have
/// is skipped; `ServerLoss` of the only server is refused and logged, and an
/// `InterNodeStall` of it stalls every device.
///
/// The returned outcome — every latency, trajectory entry, and prediction —
/// is a pure function of the inputs, bit-identical at any `ASGD_THREADS`.
///
/// # Panics
/// Panics on an empty server, an architecture/pool width mismatch, a
/// request referencing a row outside the pool, or a stream that is not the
/// one [`Request`] documents (`requests[i].id == i`, arrivals finite and
/// non-decreasing) — checked before anything runs.
pub fn serve(
    model: &Mlp,
    profiles: &[DeviceProfile],
    pool: &CsrMatrix,
    requests: &[Request],
    plan: &FaultPlan,
    config: &ServeConfig,
) -> ServeOutcome {
    // Serve the weights at the configured streaming precision. The f32 path
    // borrows the caller's model untouched (golden outputs hold bit-exactly);
    // bf16 rounds every weight once up front — the checkpoint the replicas
    // "received" — and all the per-request math stays f32.
    let quantized_model;
    let model = match config.precision {
        Precision::F32 => model,
        Precision::Bf16 => {
            quantized_model = model.quantized(Precision::Bf16);
            &quantized_model
        }
    };
    let requests: Vec<TenantRequest> = requests
        .iter()
        .map(|r| TenantRequest {
            id: r.id,
            arrival: r.arrival,
            tenant: 0,
            pool_row: r.pool_row,
        })
        .collect();
    let fleet_config = FleetConfig {
        k: config.k,
        scaling: config.scaling,
        adaptive: config.adaptive,
        window_dispatches: config.window_dispatches,
        ..FleetConfig::paper_defaults(config.scaling.b_max as usize, config.slo_s)
    };
    let tenant = Tenant {
        model,
        sig: 0,
        queue: 0,
    };
    let (out, faults) = run_session(
        &[tenant],
        build_server(profiles, config.device_seed),
        &ClusterTopology::ethernet(1, profiles.len()),
        pool,
        &requests,
        plan,
        &fleet_config,
    );

    let records = out.records.iter().map(|rec| {
        rec.map(|r| RequestRecord {
            arrival: r.arrival,
            dispatched: r.dispatched,
            completed: r.completed,
            replica: r.replica.expect("cache off: every request is computed"),
            batch: r.batch,
        })
    });
    let replicas = out.replicas.into_iter().map(|rep| ReplicaReport {
        name: rep.name,
        alive: rep.alive,
        served: rep.served,
        batches: rep.batches,
        final_b: rep.final_b,
        trajectory: rep.batch_trajectory,
        stats: rep.stats,
    });
    ServeOutcome {
        records: records.collect(),
        predictions: out.predictions,
        k_eff: out.k_eff,
        replicas: replicas.collect(),
        fault_log: faults.iter().flat_map(fault_lines).collect(),
        makespan_s: out.makespan_s,
        served: out.served,
        lost: out.lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded per-replica latency samples (distinct distributions so merge
    /// order would actually matter if it were allowed to vary).
    fn replica_samples() -> Vec<Vec<f64>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        (0..4)
            .map(|r| {
                (0..500)
                    .map(|_| (1.0 + r as f64) * 0.010 * rng.gen::<f64>())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn merge_in_ascending_replica_order_is_reproducible() {
        // P² merging is order-dependent; the fleet contract is that callers
        // always fold ascending by replica index. Folding the same replicas
        // ascending must be bit-reproducible run to run…
        let samples = replica_samples();
        let fold_ascending = || {
            let mut fleet = LatencyStats::new(1.0);
            for s in &samples {
                let mut stats = LatencyStats::new(1.0);
                for &l in s {
                    stats.record(l);
                }
                fleet.merge(&stats);
            }
            fleet
        };
        let (a, b) = (fold_ascending(), fold_ascending());
        assert_eq!(
            a.p99.value().unwrap().to_bits(),
            b.p99.value().unwrap().to_bits()
        );
        assert_eq!(
            a.p50.value().unwrap().to_bits(),
            b.p50.value().unwrap().to_bits()
        );
        assert_eq!(a.count(), samples.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn merge_order_matters_which_is_why_the_contract_exists() {
        // …and folding in a different order genuinely changes the estimate —
        // the reason completion-order merging would break thread-count
        // invariance. (The histogram, by contrast, is exactly order-free.)
        let samples = replica_samples();
        let fold = |order: &[usize]| {
            let mut fleet = LatencyStats::new(1.0);
            for &i in order {
                let mut stats = LatencyStats::new(1.0);
                for &l in &samples[i] {
                    stats.record(l);
                }
                fleet.merge(&stats);
            }
            fleet
        };
        let asc = fold(&[0, 1, 2, 3]);
        let desc = fold(&[3, 2, 1, 0]);
        assert_ne!(
            asc.p99.value().unwrap().to_bits(),
            desc.p99.value().unwrap().to_bits(),
            "P² merge should be order-dependent for distinct distributions"
        );
        assert_eq!(asc.hist.bins(), desc.hist.bins(), "histogram is order-free");
    }
}
