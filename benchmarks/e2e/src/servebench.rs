//! The two serving workloads: `serve` / `serve_fleet` timed as black boxes,
//! the checks on what they returned, and the traced replay of their forward
//! and cache work.

use crate::metrics::{Check, Sheet, Stat};
use crate::roofline::filled;
use crate::spans::{busy_by_name, Recorder, Span};
use crate::stats::{timed_for, timed_n, Summary};
use crate::workloads::{EngineWorkload, FleetWorkload};
use asgd_model::{Mlp, Workspace};
use asgd_serve::{FleetOutcome, PredictionCache, ServeOutcome};
use asgd_sparse::{ops as sops, CsrMatrix};
use asgd_stats::fnv::{fnv1a_f64, fnv1a_u32};
use asgd_tensor::{ops, Matrix};
use std::collections::BTreeMap;
use std::time::Instant;

/// Requests the replay re-enacts (the ISSUE's "or 2,000 requests").
const REPLAY_REQUESTS: usize = 2_000;

/// One micro-batch the program computed: which model, which pool rows.
pub struct Batch {
    pub tenant: usize,
    pub rows: Vec<usize>,
    /// Ids of the requests in it, in batch order.
    pub ids: Vec<u32>,
}

/// What both entry points report, in one shape.
pub struct Served {
    pub sent: usize,
    pub served: usize,
    pub lost: usize,
    /// Simulated latency of every served request, in id order.
    pub latency_s: Vec<f64>,
    /// Simulated queueing delay of every request a device computed.
    pub wait_s: Vec<f64>,
    /// Simulated commissioned device-seconds.
    pub device_s: f64,
    /// By request id: when its computation completed, if a device computed
    /// it (a cache hit, or a lost request, has none).
    pub computed_done: Vec<Option<f64>>,
    pub k: usize,
    pub predictions: Vec<u32>,
    /// Computed micro-batches in dispatch order.
    pub batches: Vec<Batch>,
}

impl Served {
    /// Everything a repetition must reproduce bit for bit.
    fn digest(&self) -> [u64; 5] {
        [
            fnv1a_u32(&self.predictions),
            fnv1a_f64(&self.latency_s),
            self.device_s.to_bits(),
            self.served as u64,
            self.lost as u64,
        ]
    }
}

/// One computed request as its record tells it: id, dispatch time, model
/// (or replica) key, size of the micro-batch it rode in, pool row.
type Computed = (usize, f64, usize, usize, usize);

/// Groups computed requests back into the micro-batches that served them:
/// requests of one batch share their dispatch time and model.
fn batches_of(computed: impl Iterator<Item = Computed>) -> Vec<Batch> {
    struct Group {
        size: usize,
        members: Vec<(usize, usize)>,
    }
    // Non-negative finite f64s order like their bit patterns, so the map
    // iterates in dispatch order.
    let mut groups: BTreeMap<(u64, usize), Group> = BTreeMap::new();
    for (id, dispatched, key, size, row) in computed {
        groups
            .entry((dispatched.to_bits(), key))
            .or_insert(Group {
                size,
                members: Vec::new(),
            })
            .members
            .push((id, row));
    }
    let mut out = Vec::new();
    for ((_, key), g) in groups {
        // Two replicas dispatched at the same instant: cut by batch size.
        for chunk in g.members.chunks(g.size.max(1)) {
            out.push(Batch {
                tenant: key,
                rows: chunk.iter().map(|m| m.1).collect(),
                ids: chunk.iter().map(|m| m.0 as u32).collect(),
            });
        }
    }
    out
}

/// A serving workload the harness can set up, call and read.
pub trait ServeWorkload: Sized {
    type Outcome;
    fn build(seed: u64, quick: bool) -> Self;
    /// One black-box call of the entry point.
    fn call(&self) -> Self::Outcome;
    fn read(&self, o: &Self::Outcome) -> Served;
    fn limit_s(&self) -> f64;
    fn pool(&self) -> &CsrMatrix;
    fn model(&self, tenant: usize) -> &Mlp;
    /// The fleet's cache replay inputs; `None` for the single-model engine.
    fn fleet(&self) -> Option<&FleetWorkload> {
        None
    }
    /// Counters only this entry point's outcome carries.
    fn own_sheet(&self, _o: &Self::Outcome, _sheet: &mut Sheet) {}
}

impl ServeWorkload for EngineWorkload {
    type Outcome = ServeOutcome;
    fn build(seed: u64, quick: bool) -> Self {
        EngineWorkload::setup(seed, quick)
    }

    fn call(&self) -> ServeOutcome {
        self.run()
    }

    fn read(&self, o: &ServeOutcome) -> Served {
        let recs = || {
            o.records
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
        };
        Served {
            sent: self.requests.len(),
            served: o.served,
            lost: o.lost,
            latency_s: recs().map(|(_, r)| r.latency()).collect(),
            wait_s: recs().map(|(_, r)| r.queueing()).collect(),
            // Every replica stays commissioned for the whole session.
            device_s: o.replicas.len() as f64 * o.makespan_s,
            computed_done: o.records.iter().map(|r| r.map(|r| r.completed)).collect(),
            k: o.k_eff,
            predictions: o.predictions.clone(),
            batches: batches_of(recs().map(|(i, r)| {
                (
                    i,
                    r.dispatched,
                    r.replica,
                    r.batch,
                    self.requests[i].pool_row,
                )
            })),
        }
    }

    fn limit_s(&self) -> f64 {
        self.limit_s
    }

    fn pool(&self) -> &CsrMatrix {
        &self.ds.test.features
    }

    fn model(&self, _tenant: usize) -> &Mlp {
        &self.model
    }
}

impl ServeWorkload for FleetWorkload {
    type Outcome = FleetOutcome;
    fn build(seed: u64, quick: bool) -> Self {
        FleetWorkload::setup(seed, quick)
    }

    fn call(&self) -> FleetOutcome {
        self.run()
    }

    fn read(&self, o: &FleetOutcome) -> Served {
        let recs = || {
            o.records
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
        };
        let computed = || recs().filter(|(_, r)| !r.cache_hit);
        Served {
            sent: self.requests.len(),
            served: o.served,
            lost: o.lost,
            latency_s: recs().map(|(_, r)| r.latency()).collect(),
            wait_s: computed().map(|(_, r)| r.queueing()).collect(),
            device_s: o.device_seconds(),
            computed_done: o
                .records
                .iter()
                .map(|r| r.filter(|r| !r.cache_hit).map(|r| r.completed))
                .collect(),
            k: o.k_eff,
            predictions: o.predictions.clone(),
            // One FIFO per registry version keeps micro-batches single-model.
            batches: batches_of(computed().map(|(i, r)| {
                let version = self.tenant_versions[r.tenant as usize].0;
                (i, r.dispatched, version, r.batch, self.requests[i].pool_row)
            })),
        }
    }

    fn limit_s(&self) -> f64 {
        self.limit_s
    }

    fn pool(&self) -> &CsrMatrix {
        &self.ds.test.features
    }

    fn model(&self, version: usize) -> &Mlp {
        self.registry.model(asgd_serve::VersionId(version))
    }

    fn fleet(&self) -> Option<&FleetWorkload> {
        Some(self)
    }

    fn own_sheet(&self, o: &FleetOutcome, sheet: &mut Sheet) {
        sheet.set("serve.loadgen.busy_s", self.loadgen_s);
        sheet.set("serve.registry.register.busy_s", self.register_s);
        sheet.set("serve.registry.dedup_ratio", o.dedup.ratio());
        sheet.set("serve.cache.hit_rate", o.cache.hit_rate());
        sheet.set("serve.cache.evictions", o.cache.evictions as f64);
        sheet.set("serve.hedge.issued", o.hedge.issued as f64);
        sheet.set(
            "serve.hedge.wasted_share",
            o.hedge.losses as f64 / (o.hedge.issued as f64).max(1.0),
        );
        sheet.set("serve.autoscale.decisions", o.trajectory.len() as f64);
    }
}

/// The black-box measurement of one serving workload.
pub struct ServeE2e<W: ServeWorkload> {
    pub w: W,
    pub setup_s: Vec<f64>,
    pub walls: Vec<f64>,
    pub outcome: W::Outcome,
    pub served: Served,
    pub determinism_ok: bool,
}

/// Sets up `setups` times, warms up once, then times whole calls of the
/// entry point: at least `min_reps`, more while `seconds` last.
pub fn measure<W: ServeWorkload>(
    seed: u64,
    quick: bool,
    seconds: f64,
    setups: usize,
    min_reps: usize,
) -> ServeE2e<W> {
    let (w, setup_s) = timed_n(setups, || W::build(seed, quick));
    let reference = w.read(&w.call()).digest();
    let mut determinism_ok = true;
    let (outcome, walls) = timed_for(
        seconds,
        min_reps,
        || w.call(),
        |o| determinism_ok &= w.read(o).digest() == reference,
    );
    let served = w.read(&outcome);
    ServeE2e {
        w,
        setup_s,
        walls,
        outcome,
        served,
        determinism_ok,
    }
}

/// Nearest-rank order statistic: the smallest value with at least `q` of the
/// sample at or below it.
fn order_stat(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    v
}

/// The end-to-end metrics that apply to serving workloads.
pub fn e2e_stats<W: ServeWorkload>(m: &ServeE2e<W>, peak_rss_mb: f64) -> Vec<Stat> {
    let s = &m.served;
    let sent = s.sent as f64;
    let rates: Vec<f64> = m.walls.iter().map(|w| sent / w).collect();
    let lat = sorted(&s.latency_s);
    let met = lat.iter().filter(|&&l| l <= m.w.limit_s()).count();
    vec![
        Stat::timed("setup_s", "s", &m.setup_s),
        Stat::timed("serve_requests_per_s", "1/s", &rates),
        Stat::single("serve_sim_p50_us", "us", order_stat(&lat, 0.50) * 1e6),
        Stat::single("serve_sim_p99_us", "us", order_stat(&lat, 0.99) * 1e6),
        Stat::single("serve_sim_device_s", "s", s.device_s),
        // A request that was refused or lost has missed the limit.
        Stat::single("slo_met_share", "share", met as f64 / sent),
        Stat::single("failed_share", "share", (s.sent - s.served) as f64 / sent),
        Stat::single("peak_rss_mb", "MB", peak_rss_mb),
        Stat::single("determinism_ok", "count", f64::from(m.determinism_ok)),
    ]
}

pub fn checks<W: ServeWorkload>(m: &ServeE2e<W>) -> Vec<Check> {
    let s = &m.served;
    // Neither entry point refuses requests at admission: refused is 0 by
    // construction and stays in the sum so the identity reads as stated.
    let refused = 0usize;
    let mut out = vec![
        Check::new(
            "determinism",
            m.determinism_ok,
            format!(
                "{} repetitions, prediction fnv {:#018x}",
                m.walls.len(),
                fnv1a_u32(&s.predictions)
            ),
        ),
        Check::new(
            "conservation",
            s.served + refused + s.lost == s.sent && s.latency_s.len() == s.served,
            format!(
                "{} served + {refused} refused + {} lost of {} sent",
                s.served, s.lost, s.sent
            ),
        ),
    ];
    // Recompute a sample of the computed requests one by one through the
    // model's own predict call: what was served must be what the model says.
    let mut checked = 0usize;
    let mut wrong = 0usize;
    for b in s.batches.iter().step_by((s.batches.len() / 16).max(1)) {
        let (id, row) = (b.ids[0] as usize, b.rows[0]);
        let want =
            m.w.model(b.tenant)
                .predict_topk(&m.w.pool().select_rows(&[row]), s.k);
        checked += 1;
        wrong += usize::from(s.predictions[id * s.k..(id + 1) * s.k] != want[..]);
    }
    out.push(Check::new(
        "predictions_match_model",
        wrong == 0 && checked > 0,
        format!("{checked} served requests recomputed, {wrong} differ"),
    ));
    out
}

/// Operands for the two kernels inside `predict_topk_ws`, probed at each
/// replayed batch's shape.
struct Probes {
    w1: Matrix,
    b1: Vec<f32>,
    w2: Matrix,
    b2: Vec<f32>,
    h: Matrix,
    out: Vec<u32>,
    flops: BTreeMap<&'static str, f64>,
}

#[derive(Default)]
pub struct ReplayCounts {
    pub batches: usize,
    pub lookups: usize,
    pub inserts: usize,
    pub nnz_sum: usize,
    pub nnz_max: usize,
    pub flops: BTreeMap<&'static str, f64>,
    pub first_batch: Option<CsrMatrix>,
    /// Host seconds of the re-enactment itself, probe operands aside.
    pub wall_s: f64,
}

/// Re-enacts the forward work of the first `REPLAY_REQUESTS` requests —
/// `predict_topk_ws` on the very micro-batches the program cut — and, for the
/// fleet, the cache lookups and fills of those requests in arrival order.
pub fn replay<W: ServeWorkload>(m: &ServeE2e<W>, rec: &mut Recorder) -> (ReplayCounts, bool) {
    let w = &m.w;
    let s = &m.served;
    let mconfig = *w.model(0).config();
    let k = s.k;
    let mut probes = Probes {
        w1: filled(mconfig.num_features, mconfig.hidden, 1),
        b1: vec![0.01; mconfig.hidden],
        w2: filled(mconfig.hidden, mconfig.num_classes, 2),
        b2: vec![0.01; mconfig.num_classes],
        h: Matrix::zeros(0, mconfig.hidden),
        out: Vec::new(),
        flops: BTreeMap::new(),
    };
    let mut counts = ReplayCounts::default();
    let mut ws = Workspace::new(&mconfig);
    let mut out: Vec<u32> = Vec::new();
    let mut predictions_match = true;
    let horizon = REPLAY_REQUESTS.min(s.sent) as u32;
    let began = Instant::now();

    if let Some(f) = w.fleet() {
        let mut cache = PredictionCache::new(f.config.cache_capacity);
        for (req, done) in f
            .requests
            .iter()
            .zip(&s.computed_done)
            .take(horizon as usize)
        {
            let sig = f
                .registry
                .version(f.tenant_versions[req.tenant as usize])
                .sig;
            let key = (sig, req.pool_row as u32);
            let hit = rec.span("serve.cache.lookup", |_| cache.lookup(key, req.arrival));
            counts.lookups += 1;
            if let (None, Some(done)) = (hit, *done) {
                rec.span("serve.cache.insert", |_| cache.insert(key, req.id, done));
                counts.inserts += 1;
            }
        }
    }

    for (chunk, b) in s
        .batches
        .iter()
        .filter(|b| b.ids.iter().all(|&id| id < horizon))
        .enumerate()
    {
        rec.cycle = chunk as u32;
        let x = rec.span("serve.batch.select", |_| w.pool().select_rows(&b.rows));
        rec.span("model.predict_topk", |_| {
            w.model(b.tenant).predict_topk_ws(&x, k, &mut ws, &mut out)
        });
        for (j, &id) in b.ids.iter().enumerate() {
            let id = id as usize;
            predictions_match &= s.predictions[id * k..(id + 1) * k] == out[j * k..(j + 1) * k];
        }
        let (rows, h, c) = (x.rows(), mconfig.hidden, mconfig.num_classes);
        probes.h.reshape_in_place(rows, h);
        probes.out.resize(rows * k, 0);
        rec.probe("sparse.spmm", |_| {
            sops::spmm_bias_relu(&x, &probes.w1, &probes.b1, &mut probes.h)
        });
        rec.probe("tensor.gemm", |_| {
            ops::gemm_bias_topk(&probes.h, &probes.w2, &probes.b2, k, &mut probes.out)
        });
        *probes.flops.entry("sparse.spmm").or_default() += (2 * x.nnz() * h) as f64;
        *probes.flops.entry("tensor.gemm").or_default() += (2 * rows * h * c) as f64;
        counts.batches += 1;
        counts.nnz_sum += x.nnz();
        counts.nnz_max = counts.nnz_max.max(x.nnz());
        if counts.first_batch.is_none() {
            counts.first_batch = Some(x);
        }
    }
    counts.wall_s = began.elapsed().as_secs_f64();
    counts.flops = probes.flops;
    (counts, predictions_match)
}

/// Fills the serving side of the per-layer sheet.
pub fn layer_sheet<W: ServeWorkload>(
    m: &ServeE2e<W>,
    spans: &[Span],
    counts: &ReplayCounts,
    peak_gflops: f64,
    sheet: &mut Sheet,
) {
    let s = &m.served;
    let e2e_wall = Summary::of(&m.walls).median;
    let busy = busy_by_name(spans);
    let computed: usize = s.batches.iter().map(|b| b.ids.len()).sum();
    let mut replay_wall = 0.0;
    for (name, b) in &busy {
        // Scale each name's self time to the end-to-end run's call count.
        let scale = match *name {
            "serve.cache.lookup" => s.sent as f64 / counts.lookups as f64,
            "serve.cache.insert" => computed as f64 / counts.inserts as f64,
            _ => s.batches.len() as f64 / counts.batches as f64,
        };
        sheet.set_if_listed(&format!("{name}.busy_s"), b.self_s * scale);
        sheet.set_if_listed(&format!("{name}.calls"), b.calls as f64 * scale);
        if !b.probe {
            replay_wall += b.self_s * scale;
        }
        if let Some(flops) = counts.flops.get(name) {
            let gflops = flops / b.self_s / 1e9;
            sheet.set(&format!("{name}.gflops"), gflops);
            sheet.set_if_listed(&format!("{name}.peak_share"), gflops / peak_gflops);
        }
    }
    sheet.set(
        "sparse.spmm.nnz_per_batch",
        counts.nnz_sum as f64 / counts.batches as f64,
    );
    sheet.set("sparse.spmm.nnz_per_batch_max", counts.nnz_max as f64);
    sheet.set(
        "serve.batch.mean_size",
        computed as f64 / s.batches.len() as f64,
    );
    let wait = sorted(&s.wait_s);
    sheet.set("serve.queue.sim_wait_p50_us", order_stat(&wait, 0.50) * 1e6);
    sheet.set("serve.queue.sim_wait_p99_us", order_stat(&wait, 0.99) * 1e6);
    sheet.set("serve.refused", 0.0);
    sheet.set("trace.replay_wall_s", replay_wall);
    // The program runs one forward worker per replica in parallel and the
    // replay is serial, so this is negative when that speed-up outweighs the
    // scheduler loop the replay does not re-enact.
    sheet.set("serve.run.unattributed_s", e2e_wall - replay_wall);
    m.w.own_sheet(&m.outcome, sheet);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_stat_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(order_stat(&v, 0.50), 50.0);
        assert_eq!(order_stat(&v, 0.99), 99.0);
        assert_eq!(order_stat(&v, 1.0), 100.0);
        assert_eq!(order_stat(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn batches_regroup_by_dispatch_time_and_model() {
        // ids 0,1 share a dispatch at t=1 on model 0; id 2 is model 1 at the
        // same instant; ids 3,4,5 are two batches of size 2 cut at t=2.
        let computed = vec![
            (0, 1.0, 0, 2, 10),
            (2, 1.0, 1, 1, 12),
            (1, 1.0, 0, 2, 11),
            (3, 2.0, 0, 2, 13),
            (4, 2.0, 0, 2, 14),
            (5, 2.0, 0, 2, 15),
        ];
        let b = batches_of(computed.into_iter());
        let shape: Vec<(usize, Vec<u32>)> = b.iter().map(|b| (b.tenant, b.ids.clone())).collect();
        assert_eq!(
            shape,
            vec![(0, vec![0, 1]), (1, vec![2]), (0, vec![3, 4]), (0, vec![5])]
        );
        assert_eq!(b[0].rows, vec![10, 11]);
    }
}
