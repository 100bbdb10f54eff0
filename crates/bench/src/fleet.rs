//! The serving testbed: the trained serving twin the `serve` probe serves,
//! and the multi-tenant fleet scenario the `autoscale` probe and
//! `BENCH_autoscale` share.
//!
//! One place defines the testbed so the CI determinism gates and the
//! cost/latency benchmark row (`BENCH_autoscale.json`) measure the *same*
//! fleet: the serving twin (amazon-670k at scale 0.1, hidden width 8 — wide
//! head, per-request cost dominates) registered six times into a weight-dedup
//! [`ModelRegistry`] (one base + five adapter variants sharing the big
//! layers), twelve tenants mapped many-to-one onto the versions, and a
//! diurnal/bursty Zipf-skewed open-loop load over eight homogeneous replica
//! slots spread round-robin across a four-server ethernet cluster.
//!
//! Every number here is a pure function of `(master seed, knobs)` — the
//! probe byte-diffs its report across `ASGD_THREADS` settings and against
//! checked-in goldens.

use asgd_core::trainer::{RunConfig, Trainer};
use asgd_core::{algorithms, load_model};
use asgd_data::{generate, DatasetSpec, XmlDataset};
use asgd_gpusim::profile::homogeneous_server;
use asgd_gpusim::{ClusterTopology, DeviceProfile, FaultPlan};
use asgd_model::{Mlp, MlpConfig};
use asgd_serve::{
    adapter_variant, fleet_stream, serve_fleet, FleetConfig, FleetLoadSpec, FleetOutcome,
    ModelRegistry, TenantRequest, VersionId,
};
use asgd_tensor::Precision;

/// Dataset scale of the serving twin (wide head: ~67k classes).
pub const FLEET_SCALE: f64 = 0.1;
/// Hidden width of the serving twin (tiny, so per-request cost dominates).
pub const FLEET_HIDDEN: usize = 8;
/// Replica slots (= the autoscaler's ceiling and the static-max fleet).
pub const FLEET_SLOTS: usize = 8;
/// Simulated servers the slots round-robin across.
pub const FLEET_SERVERS: usize = 4;
/// Maximum micro-batch size.
pub const FLEET_B_MAX: usize = 64;
/// Registry versions (1 base + adapters); tenants map onto these mod-wise.
pub const FLEET_VERSIONS: usize = 6;

/// Scenario knobs, all overridable from the environment (see
/// [`FleetKnobs::read`]).
#[derive(Debug, Clone)]
pub struct FleetKnobs {
    /// Load-stream seed (`ASGD_SERVE_SEED`).
    pub serve_seed: u64,
    /// Fault-plan seed (`ASGD_FAULT_SEED`).
    pub fault_seed: u64,
    /// Tenant count (`ASGD_TENANTS`).
    pub tenants: usize,
    /// Zipf exponent of tenant/request popularity (`ASGD_ZIPF_S`).
    pub zipf_s: f64,
    /// Prediction-cache capacity, entries; 0 disables (`ASGD_CACHE_CAP`).
    pub cache_cap: usize,
    /// Hedge quantile in (0, 1); anything else disables (`ASGD_HEDGE_Q`).
    pub hedge_q: f64,
    /// Elastic floor `r_min` of the autoscaled session — and the size of
    /// the static-min baseline (`ASGD_AUTOSCALE`).
    pub r_min: usize,
    /// Per-request latency SLO, milliseconds (`ASGD_SLO_MS`).
    pub slo_ms: f64,
    /// Diurnal-midline offered load, requests/s (`ASGD_SERVE_RPS`).
    pub base_rps: f64,
    /// Stream length (`ASGD_SERVE_REQUESTS`).
    pub n_requests: usize,
    /// Registry storage tier (`ASGD_PRECISION`, `f32` or `bf16`).
    pub precision: Precision,
}

impl FleetKnobs {
    /// The scenario's defaults with whatever `ASGD_*` overrides `k` finds on
    /// top.
    pub fn read(k: crate::Knobs) -> Self {
        Self {
            serve_seed: k.get("ASGD_SERVE_SEED", 11),
            fault_seed: k.get("ASGD_FAULT_SEED", 7),
            tenants: k.get("ASGD_TENANTS", 12),
            zipf_s: k.get("ASGD_ZIPF_S", 1.1),
            cache_cap: k.get("ASGD_CACHE_CAP", 1024),
            hedge_q: k.get("ASGD_HEDGE_Q", 0.95),
            r_min: k.get("ASGD_AUTOSCALE", 2),
            slo_ms: k.get("ASGD_SLO_MS", 0.4),
            base_rps: k.get("ASGD_SERVE_RPS", 2.0e6),
            n_requests: k.get("ASGD_SERVE_REQUESTS", 6000),
            precision: k.get("ASGD_PRECISION", Precision::F32),
        }
    }
}

impl Default for FleetKnobs {
    /// The scenario with no override set.
    fn default() -> Self {
        Self::read(crate::Knobs(&|_| None))
    }
}

/// Trains the serving twin for two mega-batches and hands the model over
/// exactly as production would: `TrainingState` → serveable checkpoint bytes
/// at `precision` → `load_model`. `seed` is the master (dataset/training)
/// seed.
pub fn serving_twin(seed: u64, precision: Precision) -> (XmlDataset, MlpConfig, Mlp) {
    let ds = generate(&DatasetSpec::amazon_670k(FLEET_SCALE), seed ^ 0xD5);
    let mconfig = MlpConfig {
        num_features: ds.num_features,
        hidden: FLEET_HIDDEN,
        num_classes: ds.num_labels,
    };
    let mut tconfig = RunConfig::paper_defaults(48, 24);
    tconfig.hidden = FLEET_HIDDEN;
    tconfig.base_lr = 0.1;
    tconfig.seed = seed;
    tconfig.mega_batch_limit = Some(2);
    tconfig.overhead_scale = FLEET_SCALE;
    let trained = Trainer::new(algorithms::adaptive_sgd(), homogeneous_server(2), tconfig).run(&ds);
    let state = trained.final_state.expect("gpu trainer keeps a snapshot");
    let model = load_model(state.export_model_with(&mconfig, precision))
        .expect("serveable checkpoint decodes");
    (ds, mconfig, model)
}

/// The built testbed: registry, tenants, fleet shape, and request stream.
pub struct FleetScenario {
    /// The serving twin's dataset (the test split is the request pool).
    pub ds: XmlDataset,
    /// Weight-dedup registry holding base + adapter versions.
    pub registry: ModelRegistry,
    /// Tenant → version map (many-to-one).
    pub tenant_versions: Vec<VersionId>,
    /// One profile per replica slot.
    pub profiles: Vec<DeviceProfile>,
    /// Cluster the slots round-robin onto.
    pub topo: ClusterTopology,
    /// The materialized request stream.
    pub requests: Vec<TenantRequest>,
    /// Knobs the scenario was built with.
    pub knobs: FleetKnobs,
}

impl FleetScenario {
    /// Trains the [`serving_twin`] at the knobs' precision, registers base +
    /// adapter versions, and draws the request stream. `seed` is the master
    /// (dataset/training) seed.
    pub fn build(seed: u64, knobs: FleetKnobs) -> Self {
        let (ds, mconfig, base) = serving_twin(seed, knobs.precision);

        // Base + adapters: each adapter perturbs the small hidden layers and
        // shares the wide embedding/output blocks, so the registry dedups
        // most of the fleet's parameter bytes.
        let mut registry = ModelRegistry::new(mconfig);
        registry.register("base", &base, knobs.precision).unwrap();
        for i in 1..FLEET_VERSIONS as u64 {
            let variant = adapter_variant(&base, i, 1e-3);
            let name = format!("adapter-{i}");
            registry.register(name, &variant, knobs.precision).unwrap();
        }
        let tenant_versions: Vec<VersionId> = (0..knobs.tenants)
            .map(|t| VersionId(t % registry.len()))
            .collect();

        let profiles: Vec<_> = homogeneous_server(FLEET_SLOTS)
            .into_iter()
            .map(|p| p.with_overhead_scale(0.05))
            .collect();
        let topo = ClusterTopology::ethernet(FLEET_SERVERS, FLEET_SLOTS / FLEET_SERVERS);

        // Diurnal day ≈ 2/3 of the stream's expected span, plus seeded
        // bursts: the trough needs ~r_min replicas, the burst peak all of
        // them. Hot rows come from a clamped pool so the Zipf head is
        // genuinely repeated traffic.
        let pool_rows = ds.test.features.rows().min(2048);
        let expected_span = knobs.n_requests as f64 / knobs.base_rps;
        let spec = FleetLoadSpec {
            n: knobs.n_requests,
            base_rps: knobs.base_rps,
            diurnal_amplitude: 0.6,
            diurnal_period_s: expected_span * 0.66,
            burst_factor: 2.0,
            burst_every_s: expected_span * 0.25,
            burst_len_s: expected_span * 0.05,
            tenants: knobs.tenants,
            zipf_s: knobs.zipf_s,
            pool_rows,
        };
        let requests = fleet_stream(knobs.serve_seed, &spec);

        Self {
            ds,
            registry,
            tenant_versions,
            profiles,
            topo,
            requests,
            knobs,
        }
    }

    /// The SLO in seconds.
    pub fn slo_s(&self) -> f64 {
        self.knobs.slo_ms * 1e-3
    }

    /// Config shared by every session: adaptive micro-batching, the
    /// prediction cache, and hedging (when armed by the knobs).
    fn base_config(&self) -> FleetConfig {
        let mut c =
            FleetConfig::paper_defaults(FLEET_B_MAX, self.slo_s()).with_cache(self.knobs.cache_cap);
        if self.knobs.hedge_q > 0.0 && self.knobs.hedge_q < 1.0 {
            c = c.hedged(self.knobs.hedge_q);
        }
        c.autoscale_target_depth = 12.0;
        c.boot_delay_s = 2e-5;
        c
    }

    /// The elastic session: floor `r_min`, ceiling every slot.
    pub fn auto_config(&self) -> FleetConfig {
        self.base_config().autoscaled(self.knobs.r_min)
    }

    /// A static session pinned at `n` replicas.
    pub fn static_config(&self, n: usize) -> FleetConfig {
        self.base_config().static_replicas(n)
    }

    /// The three fault-free sessions the autoscaler is judged by, labelled:
    /// `elastic`, `static-min` (pinned at the elastic floor) and
    /// `static-max` (pinned at every slot).
    pub fn baselines(&self) -> [(&'static str, FleetOutcome); 3] {
        let calm = FaultPlan::new();
        [
            ("elastic", self.auto_config()),
            ("static-min", self.static_config(self.knobs.r_min)),
            ("static-max", self.static_config(FLEET_SLOTS)),
        ]
        .map(|(label, config)| (label, self.run(&config, &calm)))
    }

    /// Runs one fleet session over the scenario's stream.
    pub fn run(&self, config: &FleetConfig, plan: &FaultPlan) -> FleetOutcome {
        serve_fleet(
            &self.registry,
            &self.tenant_versions,
            &self.profiles,
            &self.topo,
            &self.ds.test.features,
            &self.requests,
            plan,
            config,
        )
    }
}
