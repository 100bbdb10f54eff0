//! Integration contracts of the multi-tenant fleet: per-tenant prediction
//! correctness through the dedup registry, thread-count invariance with
//! every subsystem armed, cache hit economics on the Zipf head, hedging
//! accounting, elastic autoscaling's cost win, and zero-loss degradation
//! under cluster faults.

use asgd_data::{generate, DatasetSpec, XmlDataset};
use asgd_gpusim::profile::{homogeneous_server, two_tier_server};
use asgd_gpusim::{ClusterTopology, DeviceProfile, FaultPlan};
use asgd_model::{Mlp, MlpConfig};
use asgd_serve::{
    adapter_variant, fleet_stream, serve_fleet, FleetConfig, FleetLoadSpec, FleetOutcome,
    ModelRegistry, TenantRequest, VersionId,
};
use asgd_sparse::CsrMatrix;
use asgd_tensor::Precision;

fn tiny_dataset() -> XmlDataset {
    generate(&DatasetSpec::amazon_670k(0.001), 42 ^ 0xD5)
}

fn mlp_config(ds: &XmlDataset) -> MlpConfig {
    MlpConfig {
        num_features: ds.num_features,
        hidden: 24,
        num_classes: ds.num_labels,
    }
}

fn scaled(profiles: Vec<DeviceProfile>) -> Vec<DeviceProfile> {
    profiles
        .into_iter()
        .map(|p| p.with_overhead_scale(0.001))
        .collect()
}

/// base + one adapter fine-tune + a pinned copy of base: three tenants, two
/// distinct models, a registry that actually dedups.
fn three_tenant_registry(ds: &XmlDataset) -> (ModelRegistry, Vec<VersionId>) {
    let config = mlp_config(ds);
    let base = Mlp::init(&config, 7);
    let mut reg = ModelRegistry::new(config);
    let v0 = reg.register("base/v1", &base, Precision::F32).unwrap();
    let v1 = reg
        .register(
            "tenant1/v1",
            &adapter_variant(&base, 1, 1e-3),
            Precision::F32,
        )
        .unwrap();
    let v2 = reg.register("pinned/v1", &base, Precision::F32).unwrap();
    (reg, vec![v0, v1, v2])
}

#[test]
fn every_tenant_is_served_its_own_version_bit_exactly() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let spec = FleetLoadSpec::steady(300, 600.0, 3, 1.0, pool.rows());
    let requests = fleet_stream(11, &spec);
    let topo = ClusterTopology::ethernet(1, 4);
    let config = FleetConfig::paper_defaults(32, 0.050);
    let outcome = serve_fleet(
        &reg,
        &tenants,
        &scaled(homogeneous_server(3)),
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    assert_eq!(outcome.served, requests.len());
    // Tenants 0 and 2 pin identical content: the registry must have
    // materialized one model and stored one set of layers for them.
    assert_eq!(outcome.dedup.versions, 3);
    assert!(
        outcome.dedup.ratio() > 1.3,
        "dedup ratio {}",
        outcome.dedup.ratio()
    );
    // Every request's predictions match direct inference on its tenant's
    // registered version — multi-model batching never crosses weights.
    assert_served_equals_direct(&outcome, &reg, &tenants, pool, &requests, config.k);
}

#[test]
fn fleet_outcome_is_thread_count_invariant_with_everything_armed() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let spec = FleetLoadSpec {
        n: 500,
        base_rps: 1.5e7,
        diurnal_amplitude: 0.5,
        diurnal_period_s: 50e-6,
        burst_factor: 2.0,
        burst_every_s: 30e-6,
        burst_len_s: 8e-6,
        tenants: 3,
        zipf_s: 1.1,
        pool_rows: pool.rows(),
    };
    let requests = fleet_stream(3, &spec);
    let topo = ClusterTopology::ethernet(3, 2);
    let profiles = scaled(homogeneous_server(6));
    let plan = FaultPlan::random(9, profiles.len(), 6);
    let mut config = FleetConfig::paper_defaults(16, 0.020)
        .with_cache(64)
        .hedged(0.9)
        .autoscaled(2);
    config.window_dispatches = 8;
    config.boot_delay_s = 2e-6;

    let run = || {
        serve_fleet(
            &reg, &tenants, &profiles, &topo, pool, &requests, &plan, &config,
        )
    };
    asgd_tensor::parallel::override_threads(1);
    let single = run();
    asgd_tensor::parallel::override_threads(8);
    let eight = run();
    asgd_tensor::parallel::override_threads(0);

    assert_eq!(single.records, eight.records, "schedules diverged");
    assert_eq!(
        single.predictions, eight.predictions,
        "predictions diverged"
    );
    assert_eq!(single.fault_log, eight.fault_log, "fault logs diverged");
    assert_eq!(single.trajectory, eight.trajectory, "autoscale diverged");
    assert_eq!(single.cache, eight.cache, "cache stats diverged");
    assert_eq!(single.hedge, eight.hedge, "hedge stats diverged");
    assert_eq!(
        single.makespan_s.to_bits(),
        eight.makespan_s.to_bits(),
        "makespans diverged"
    );
    for (a, b) in single.replicas.iter().zip(&eight.replicas) {
        assert_eq!(a.served, b.served);
        assert_eq!(a.device_seconds.to_bits(), b.device_seconds.to_bits());
    }
}

#[test]
fn the_zipf_head_hits_the_cache_and_replays_exact_predictions() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    // Zipf s=1.1 over the pool: the head dominates, so a modest cache
    // should absorb the majority of lookups once warm.
    let spec = FleetLoadSpec::steady(1500, 800.0, 3, 1.1, pool.rows());
    let requests = fleet_stream(21, &spec);
    let topo = ClusterTopology::ethernet(1, 4);
    let config = FleetConfig::paper_defaults(32, 0.050).with_cache(256);
    let outcome = serve_fleet(
        &reg,
        &tenants,
        &scaled(homogeneous_server(4)),
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    assert!(
        outcome.cache.hit_rate() > 0.5,
        "hit rate {} too low at s=1.1",
        outcome.cache.hit_rate()
    );
    assert_eq!(
        outcome.cache.hits + outcome.cache.misses,
        requests.len() as u64
    );
    let mut hits = 0usize;
    for r in &requests {
        let rec = outcome.records[r.id as usize].unwrap();
        if rec.cache_hit {
            hits += 1;
            assert_eq!(rec.replica, None);
            assert!((rec.latency() - config.cache_latency_s).abs() < 1e-12);
            // A replayed prediction is still the tenant's own model, bit
            // for bit.
            let x = pool.select_rows(&[r.pool_row]);
            let direct = reg
                .model(tenants[r.tenant as usize])
                .predict_topk(&x, config.k);
            assert_eq!(outcome.prediction(r.id).unwrap(), &direct[..]);
        }
    }
    assert_eq!(hits as u64, outcome.cache.hits);
    // Tenants 0 and 2 share content: hits must cross between them, which
    // only works because the key is the content signature, not the tenant.
    assert!(
        requests
            .iter()
            .any(|r| r.tenant == 2 && outcome.records[r.id as usize].unwrap().cache_hit),
        "the pinned tenant should profit from the base tenant's cache fills"
    );
}

#[test]
fn hedged_requests_race_consistently_and_reclaim_cancelled_time() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    // Oversubscribed two-tier fleet: waits build, the p90 threshold arms,
    // stragglers hedge onto whichever replica frees first.
    let spec = FleetLoadSpec::steady(800, 2.5e7, 3, 1.0, pool.rows());
    let requests = fleet_stream(5, &spec);
    let topo = ClusterTopology::ethernet(2, 2);
    let mut config = FleetConfig::paper_defaults(16, 0.020).hedged(0.9);
    config.hedge_min_obs = 32;
    let outcome = serve_fleet(
        &reg,
        &tenants,
        &scaled(two_tier_server(2, 2, 0.25)),
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    assert!(outcome.hedge.issued > 0, "no hedge ever fired");
    assert_eq!(
        outcome.hedge.wins + outcome.hedge.losses,
        outcome.hedge.issued
    );
    let hedged = outcome
        .records
        .iter()
        .flatten()
        .filter(|r| r.hedged)
        .count() as u64;
    assert_eq!(hedged, outcome.hedge.issued);
    if outcome.hedge.losses > 0 {
        assert!(
            outcome.hedge.cancelled_s >= 0.0,
            "cancellation cannot reclaim negative time"
        );
    }
    // Timing stays causally ordered for every record, hedged or not.
    for rec in outcome.records.iter().flatten() {
        assert!(rec.dispatched >= rec.arrival);
        assert!(rec.completed > rec.dispatched || rec.cache_hit);
    }
    // Predictions are untouched by hedging — still the tenant's model.
    assert_served_equals_direct(&outcome, &reg, &tenants, pool, &requests[..100], config.k);
}

#[test]
fn autoscaling_rides_the_burst_and_undercuts_static_max_cost() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let spec = FleetLoadSpec {
        n: 1200,
        base_rps: 8.0e6,
        diurnal_amplitude: 0.7,
        diurnal_period_s: 60e-6,
        burst_factor: 2.5,
        burst_every_s: 40e-6,
        burst_len_s: 8e-6,
        tenants: 3,
        zipf_s: 1.0,
        pool_rows: pool.rows(),
    };
    let requests = fleet_stream(13, &spec);
    let topo = ClusterTopology::ethernet(3, 2);
    let profiles = scaled(homogeneous_server(6));
    let mut auto_cfg = FleetConfig::paper_defaults(8, 0.050).autoscaled(1);
    auto_cfg.window_dispatches = 8;
    auto_cfg.autoscale_target_depth = 4.0;
    auto_cfg.boot_delay_s = 2e-6;
    let auto_run = serve_fleet(
        &reg,
        &tenants,
        &profiles,
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &auto_cfg,
    );
    let static_cfg = FleetConfig::paper_defaults(8, 0.050).static_replicas(6);
    let static_run = serve_fleet(
        &reg,
        &tenants,
        &profiles,
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &static_cfg,
    );
    assert_eq!(auto_run.lost, 0);
    assert_eq!(static_run.lost, 0);
    assert!(!auto_run.trajectory.is_empty(), "no autoscale decisions");
    let peak = auto_run
        .trajectory
        .iter()
        .map(|d| d.replicas)
        .max()
        .unwrap();
    assert!(
        peak > 1,
        "the controller never scaled out: {:?}",
        auto_run.trajectory
    );
    // Scale-out lands round-robin across servers: slot i on server i mod 3.
    for (i, r) in auto_run.replicas.iter().enumerate() {
        assert_eq!(r.server, i % 3);
    }
    // The elastic fleet pays for fewer device-seconds than full static
    // provisioning of the same slots.
    assert!(
        auto_run.device_seconds() < static_run.device_seconds(),
        "auto {} ≥ static-max {}",
        auto_run.device_seconds(),
        static_run.device_seconds()
    );
    // Static provisioning pays all six slots for the whole run.
    for r in &static_run.replicas {
        assert!((r.device_seconds - static_run.makespan_s).abs() < 1e-12);
    }
}

#[test]
fn device_loss_in_a_fleet_loses_zero_requests() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let spec = FleetLoadSpec::steady(400, 700.0, 3, 1.0, pool.rows());
    let requests = fleet_stream(7, &spec);
    let topo = ClusterTopology::ethernet(2, 2);
    let plan = FaultPlan::new().device_loss(1, 3, 2);
    let config = FleetConfig::paper_defaults(32, 0.050).static_replicas(4);
    let outcome = serve_fleet(
        &reg,
        &tenants,
        &scaled(homogeneous_server(4)),
        &topo,
        pool,
        &requests,
        &plan,
        &config,
    );
    assert_eq!(outcome.lost, 0, "device loss must lose zero requests");
    assert!(outcome.records.iter().all(Option::is_some));
    assert!(!outcome.replicas[2].alive);
    assert!(
        outcome.fault_log.iter().any(|l| l.contains("slot2 lost")),
        "loss should be logged: {:?}",
        outcome.fault_log
    );
    // The dead slot stopped being paid for at the loss, not at run end.
    assert!(outcome.replicas[2].device_seconds < outcome.makespan_s);
    assert_served_equals_direct(&outcome, &reg, &tenants, pool, &requests[..60], config.k);
}

#[test]
fn a_fault_point_fires_once_however_many_all_hit_rounds_precede_its_dispatch() {
    let ds = tiny_dataset();
    let config = mlp_config(&ds);
    let mut reg = ModelRegistry::new(config);
    let v0 = reg
        .register("base/v1", &Mlp::init(&config, 7), Precision::F32)
        .unwrap();
    let pool = &ds.test.features;
    // A warm Zipf head at a trickle of load: most admission rounds are all
    // cache hits, so the loop comes back to the same `(window, ordinal)`
    // point many times before it dispatches anything there.
    let spec = FleetLoadSpec::steady(1500, 800.0, 1, 1.1, pool.rows());
    let requests = fleet_stream(21, &spec);
    let mut plan = FaultPlan::new();
    for w in 0..20 {
        for o in 0..16 {
            plan = plan.stall(w, o, 0, 1e-6);
        }
    }
    let outcome = serve_fleet(
        &reg,
        &[v0],
        &scaled(homogeneous_server(2)),
        &ClusterTopology::ethernet(1, 2),
        pool,
        &requests,
        &plan,
        &FleetConfig::paper_defaults(32, 0.050).with_cache(256),
    );
    assert_eq!(outcome.lost, 0);
    assert!(
        outcome.cache.hit_rate() > 0.5,
        "the all-hit rounds this test needs never happened: hit rate {}",
        outcome.cache.hit_rate()
    );
    // One stall per point, one log line per stall: every line is distinct.
    let distinct: std::collections::BTreeSet<&String> = outcome.fault_log.iter().collect();
    assert!(!distinct.is_empty(), "no stall ever fired");
    assert_eq!(
        outcome.fault_log.len(),
        distinct.len(),
        "a stall scheduled once was served more than once"
    );
}

/// `fleet.rs::FORWARD_BLOCK_ROWS` (private): the rows of one forward call.
const BLOCK: usize = 256;

/// `counts[t]` requests of tenant `t`, interleaved round-robin by arrival at
/// a rate that forms backlogs, so micro-batches of several rows land on
/// either side of a block boundary.
fn interleaved_stream(counts: [usize; 3], pool_rows: usize) -> Vec<TenantRequest> {
    let mut left = counts;
    let mut out: Vec<TenantRequest> = Vec::new();
    let mut turn = 0;
    while left.iter().any(|&c| c > 0) {
        let tenant = (0..3).map(|d| (turn + d) % 3).find(|&t| left[t] > 0);
        let tenant = tenant.expect("some tenant has requests left");
        left[tenant] -= 1;
        turn = tenant + 1;
        out.push(TenantRequest {
            id: out.len() as u32,
            arrival: out.len() as f64 * 6.0e-8,
            tenant: tenant as u16,
            pool_row: (out.len() * 7 + tenant) % pool_rows,
        });
    }
    out
}

/// Three tenants on three distinct models.
fn three_model_registry(ds: &XmlDataset) -> (ModelRegistry, Vec<VersionId>) {
    let config = mlp_config(ds);
    let base = Mlp::init(&config, 7);
    let mut reg = ModelRegistry::new(config);
    let versions = vec![
        reg.register("base/v1", &base, Precision::F32).unwrap(),
        reg.register("t1/v1", &adapter_variant(&base, 1, 1e-2), Precision::F32)
            .unwrap(),
        reg.register("t2/v1", &adapter_variant(&base, 2, 1e-2), Precision::F32)
            .unwrap(),
    ];
    (reg, versions)
}

/// Every request's prediction against a one-row forward of its own version.
fn assert_served_equals_direct(
    outcome: &FleetOutcome,
    reg: &ModelRegistry,
    tenants: &[VersionId],
    pool: &CsrMatrix,
    requests: &[TenantRequest],
    k: usize,
) {
    for r in requests {
        let x = pool.select_rows(&[r.pool_row]);
        let direct = reg.model(tenants[r.tenant as usize]).predict_topk(&x, k);
        assert_eq!(
            outcome.prediction(r.id).unwrap(),
            &direct[..],
            "request {} (tenant {}) served ≠ direct",
            r.id,
            r.tenant
        );
    }
}

#[test]
fn version_counts_on_either_side_of_a_block_are_all_scored() {
    // The forward math runs per version in blocks of BLOCK rows plus one
    // tail call: a version that ends one short of a block, exactly on it
    // (empty tail), one past it (one-row tail) and past two blocks.
    let ds = tiny_dataset();
    let (reg, tenants) = three_model_registry(&ds);
    let pool = &ds.test.features;
    let topo = ClusterTopology::ethernet(1, 4);
    let config = FleetConfig::paper_defaults(16, 0.020);
    for counts in [
        [BLOCK - 1, BLOCK, BLOCK + 1],
        [2 * BLOCK + 3, BLOCK + 1, BLOCK],
    ] {
        let requests = interleaved_stream(counts, pool.rows());
        let outcome = serve_fleet(
            &reg,
            &tenants,
            &scaled(two_tier_server(2, 1, 0.5)),
            &topo,
            pool,
            &requests,
            &FaultPlan::new(),
            &config,
        );
        assert_eq!(outcome.served, requests.len());
        assert_eq!(outcome.cache.hits, 0, "every request is computed");
        let batched = outcome.records.iter().flatten().filter(|r| r.batch > 1);
        assert!(batched.count() > 0, "no backlog formed: {counts:?}");
        assert_served_equals_direct(&outcome, &reg, &tenants, pool, &requests, config.k);
    }
}

#[test]
fn device_and_server_loss_fill_every_served_id_exactly_once() {
    // Rows a slot was charged for are scored with their version's block,
    // possibly long after the slot died: nothing of it may go missing, and
    // nothing may be written for a request that rode no batch.
    let ds = tiny_dataset();
    let (reg, tenants) = three_model_registry(&ds);
    let pool = &ds.test.features;
    // A hot set of rows, so the cache has something to replay.
    let requests = interleaved_stream([BLOCK + 40, BLOCK + 41, 90], 16);
    let topo = ClusterTopology::ethernet(3, 2);
    let mut config = FleetConfig::paper_defaults(16, 0.020).with_cache(32);
    config.window_dispatches = 8;
    let plans = [
        FaultPlan::new().device_loss(0, 3, 1).device_loss(2, 5, 4),
        FaultPlan::new().server_loss(1, 2, 1).device_loss(3, 1, 0),
    ];
    for plan in &plans {
        let outcome = serve_fleet(
            &reg,
            &tenants,
            &scaled(homogeneous_server(6)),
            &topo,
            pool,
            &requests,
            plan,
            &config,
        );
        let lost = |l: &String| l.contains("lost");
        assert!(
            outcome.fault_log.iter().any(lost),
            "{:?}",
            outcome.fault_log
        );
        assert!(outcome.replicas.iter().any(|r| !r.alive && r.served > 0));
        // One write per id: a scatter for each request that rode a batch, a
        // replay for each cache hit, never both, never neither.
        let mut writes = vec![0u32; requests.len()];
        for (id, rec) in outcome.records.iter().enumerate() {
            let rec = rec.unwrap_or_else(|| panic!("request {id} never served"));
            writes[id] += (rec.replica.is_some() && rec.batch > 0) as u32;
            writes[id] += rec.cache_hit as u32;
        }
        assert!(writes.iter().all(|&w| w == 1), "{writes:?}");
        let scattered = outcome.records.iter().flatten().filter(|r| !r.cache_hit);
        let by_slot: usize = outcome.replicas.iter().map(|r| r.served).sum();
        assert_eq!(scattered.count(), by_slot);
        assert!(outcome.cache.hits > 0, "no replay in this run");
        assert_served_equals_direct(&outcome, &reg, &tenants, pool, &requests, config.k);
    }
}

#[test]
#[should_panic(expected = "request 5 has id 4")]
fn a_duplicate_id_is_refused_by_the_fleet_entry_point_too() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_model_registry(&ds);
    let pool = &ds.test.features;
    let mut requests = interleaved_stream([4, 4, 4], pool.rows());
    requests[5].id = 4;
    serve_fleet(
        &reg,
        &tenants,
        &scaled(homogeneous_server(2)),
        &ClusterTopology::ethernet(1, 2),
        pool,
        &requests,
        &FaultPlan::new(),
        &FleetConfig::paper_defaults(16, 0.020),
    );
}
