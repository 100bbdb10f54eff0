//! Conservation harness for the one serving loop, driven through both entry
//! points: under arbitrary fault plans — `FaultPlan::random` and
//! `FaultPlan::random_cluster`, far beyond the checked-in seeds — and every
//! combination of cache, hedging and provisioning, no request is lost or
//! doubled, the per-slot accounting adds up, and the whole outcome is the
//! same at `ASGD_THREADS` 1 and 8.

use asgd_data::{generate, DatasetSpec};
use asgd_gpusim::profile::{heterogeneous_server, homogeneous_server};
use asgd_gpusim::{ClusterTopology, FaultPlan};
use asgd_model::{Mlp, MlpConfig};
use asgd_serve::{
    adapter_variant, fleet_stream, open_loop_stream, serve, serve_fleet, FleetConfig,
    FleetLoadSpec, FleetOutcome, ModelRegistry, ServeConfig, ServeOutcome, TenantRequest,
    VersionId,
};
use asgd_sparse::CsrMatrix;
use asgd_tensor::Precision;

const SEEDS: u64 = 50;
const WINDOWS: usize = 4;

/// The fleet invariants of one run.
fn check_fleet(o: &FleetOutcome, requests: &[TenantRequest], sigs: &[u64], what: &str) {
    let n = requests.len();
    assert_eq!(o.records.len(), n, "{what}");
    assert_eq!(o.served + o.lost, n, "{what}");
    assert_eq!(o.lost, 0, "{what}");
    // Records are indexed by request id, so "exactly one record per id" is
    // "no hole" (ids are dense by construction of the stream).
    assert!(o.records.iter().all(Option::is_some), "{what}: a hole");
    let computed = o.records.iter().flatten().filter(|r| !r.cache_hit).count();
    assert_eq!(computed as u64, o.cache.misses, "{what}");
    assert_eq!(n as u64, o.cache.hits + o.cache.misses, "{what}");
    for (i, slot) in o.replicas.iter().enumerate() {
        let named = o.records.iter().flatten().filter(|r| r.replica == Some(i));
        assert_eq!(slot.served, named.count(), "{what}: slot {i}");
        assert!(
            slot.device_seconds.is_finite() && slot.device_seconds >= 0.0,
            "{what}: slot {i} paid {}",
            slot.device_seconds
        );
    }
    let by_slot: usize = o.replicas.iter().map(|s| s.served).sum();
    assert_eq!(by_slot, computed, "{what}");
    assert_eq!(o.hedge.issued, o.hedge.wins + o.hedge.losses, "{what}");
    // A hit replays a computed request of the same content and row that had
    // completed by the hit's arrival — its filler, or a twin of it.
    for (hit, rec) in requests.iter().zip(o.records.iter().flatten()) {
        if !rec.cache_hit {
            continue;
        }
        let same_content = |t: u16| sigs[t as usize] == sigs[hit.tenant as usize];
        let filler = requests.iter().find(|f| {
            let fr = o.records[f.id as usize].unwrap();
            !fr.cache_hit
                && f.pool_row == hit.pool_row
                && same_content(f.tenant)
                && fr.completed <= hit.arrival
        });
        let filler = filler.unwrap_or_else(|| panic!("{what}: hit {} has no filler", hit.id));
        assert_eq!(o.prediction(hit.id), o.prediction(filler.id), "{what}");
    }
}

fn assert_same_fleet(a: &FleetOutcome, b: &FleetOutcome, what: &str) {
    assert_eq!(a.records, b.records, "{what}: schedules");
    assert_eq!(a.predictions, b.predictions, "{what}: predictions");
    assert_eq!(a.fault_log, b.fault_log, "{what}: fault logs");
    assert_eq!(a.trajectory, b.trajectory, "{what}: autoscale");
    assert_eq!((a.cache, a.hedge), (b.cache, b.hedge), "{what}: counters");
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits(), "{what}");
    for (x, y) in a.replicas.iter().zip(&b.replicas) {
        assert_eq!(
            (x.alive, x.commissioned, x.served, x.batches, x.final_b),
            (y.alive, y.commissioned, y.served, y.batches, y.final_b),
            "{what}"
        );
        assert_eq!(x.batch_trajectory, y.batch_trajectory, "{what}");
        assert_eq!(
            x.device_seconds.to_bits(),
            y.device_seconds.to_bits(),
            "{what}"
        );
    }
}

fn check_serve(o: &ServeOutcome, n: usize, what: &str) {
    assert_eq!(o.records.len(), n, "{what}");
    assert_eq!(o.served + o.lost, n, "{what}");
    assert_eq!(o.lost, 0, "{what}");
    assert!(o.records.iter().all(Option::is_some), "{what}: a hole");
    for (i, rep) in o.replicas.iter().enumerate() {
        let named = o.records.iter().flatten().filter(|r| r.replica == i);
        assert_eq!(rep.served, named.count(), "{what}: replica {i}");
    }
    assert_eq!(
        o.replicas.iter().map(|r| r.served).sum::<usize>(),
        n,
        "{what}"
    );
}

fn assert_same_serve(a: &ServeOutcome, b: &ServeOutcome, what: &str) {
    assert_eq!(a.records, b.records, "{what}: schedules");
    assert_eq!(a.predictions, b.predictions, "{what}: predictions");
    assert_eq!(a.fault_log, b.fault_log, "{what}: fault logs");
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits(), "{what}");
    for (x, y) in a.replicas.iter().zip(&b.replicas) {
        assert_eq!(
            (x.alive, x.served, x.batches, x.final_b, &x.trajectory),
            (y.alive, y.served, y.batches, y.final_b, &y.trajectory),
            "{what}"
        );
    }
}

/// Every fleet case of the sweep: seeds × {flat, cluster} plans × cache ×
/// hedge × provisioning.
fn fleet_sweep(reg: &ModelRegistry, tenants: &[VersionId], pool: &CsrMatrix) -> Vec<FleetOutcome> {
    let topo = ClusterTopology::ethernet(3, 2);
    let sigs: Vec<u64> = tenants.iter().map(|&v| reg.version(v).sig).collect();
    let mut out = Vec::new();
    for seed in 0..SEEDS {
        let spec = FleetLoadSpec {
            n: 160,
            base_rps: 1.5e7,
            diurnal_amplitude: 0.5,
            diurnal_period_s: 50e-6,
            burst_factor: 2.0,
            burst_every_s: 30e-6,
            burst_len_s: 8e-6,
            tenants: tenants.len(),
            zipf_s: 1.1,
            pool_rows: pool.rows(),
        };
        let requests = fleet_stream(seed, &spec);
        let profiles: Vec<_> = match seed % 2 {
            0 => homogeneous_server(6),
            _ => heterogeneous_server(6),
        }
        .into_iter()
        .map(|p| p.with_overhead_scale(0.001))
        .collect();
        let plans = [
            FaultPlan::random(seed, profiles.len(), WINDOWS),
            FaultPlan::random_cluster(seed, 3, 2, WINDOWS),
        ];
        for (p, plan) in plans.iter().enumerate() {
            for knobs in 0..8u32 {
                let (cache, hedge, auto) = (knobs & 1 != 0, knobs & 2 != 0, knobs & 4 != 0);
                let mut config = FleetConfig::paper_defaults(16, 0.020);
                config.window_dispatches = 8;
                config.boot_delay_s = 2e-6;
                config.hedge_min_obs = 16;
                if cache {
                    config = config.with_cache(64);
                }
                if hedge {
                    config = config.hedged(0.9);
                }
                if auto {
                    config = config.autoscaled(2);
                }
                let o = serve_fleet(
                    reg, tenants, &profiles, &topo, pool, &requests, plan, &config,
                );
                let what =
                    format!("fleet seed {seed} plan {p} cache {cache} hedge {hedge} auto {auto}");
                check_fleet(&o, &requests, &sigs, &what);
                out.push(o);
            }
        }
    }
    out
}

/// Every engine case of the sweep: seeds × {flat, cluster} plans (cut for a
/// 6-device cluster, so some events name devices a smaller server lacks) ×
/// adaptive/fixed, on 1–6 devices.
fn serve_sweep(model: &Mlp, pool: &CsrMatrix) -> Vec<ServeOutcome> {
    let mut out = Vec::new();
    for seed in 0..SEEDS {
        let requests = open_loop_stream(seed, 160, 1.5e7, pool.rows());
        let profiles: Vec<_> = heterogeneous_server(1 + (seed % 6) as usize)
            .into_iter()
            .map(|p| p.with_overhead_scale(0.001))
            .collect();
        let plans = [
            FaultPlan::random(seed, 6, WINDOWS),
            FaultPlan::random_cluster(seed, 3, 2, WINDOWS),
        ];
        for (p, plan) in plans.iter().enumerate() {
            for adaptive in [true, false] {
                let mut config = ServeConfig::paper_defaults(16, 0.000_002);
                config.window_dispatches = 8;
                config.adaptive = adaptive;
                let o = serve(model, &profiles, pool, &requests, plan, &config);
                check_serve(
                    &o,
                    requests.len(),
                    &format!("serve seed {seed} plan {p} adaptive {adaptive}"),
                );
                out.push(o);
            }
        }
    }
    out
}

#[test]
fn no_request_is_lost_or_doubled_under_arbitrary_fault_plans() {
    let ds = generate(&DatasetSpec::amazon_670k(0.001), 42 ^ 0xD5);
    let config = MlpConfig {
        num_features: ds.num_features,
        hidden: 8,
        num_classes: ds.num_labels,
    };
    let base = Mlp::init(&config, 7);
    let mut reg = ModelRegistry::new(config);
    // Three tenants, two distinct contents (the pinned copy dedups to base).
    let tenants = vec![
        reg.register("base/v1", &base, Precision::F32).unwrap(),
        reg.register(
            "tenant1/v1",
            &adapter_variant(&base, 1, 1e-3),
            Precision::F32,
        )
        .unwrap(),
        reg.register("pinned/v1", &base, Precision::F32).unwrap(),
    ];
    let pool = &ds.test.features;

    asgd_tensor::parallel::override_threads(1);
    let (fleet_1, serve_1) = (fleet_sweep(&reg, &tenants, pool), serve_sweep(&base, pool));
    asgd_tensor::parallel::override_threads(8);
    let (fleet_8, serve_8) = (fleet_sweep(&reg, &tenants, pool), serve_sweep(&base, pool));
    asgd_tensor::parallel::override_threads(0);

    assert_eq!(fleet_1.len(), SEEDS as usize * 16);
    for (i, (a, b)) in fleet_1.iter().zip(&fleet_8).enumerate() {
        assert_same_fleet(a, b, &format!("fleet case {i}, threads 1 vs 8"));
    }
    for (i, (a, b)) in serve_1.iter().zip(&serve_8).enumerate() {
        assert_same_serve(a, b, &format!("serve case {i}, threads 1 vs 8"));
    }
    // The sweep is not vacuous: every subsystem and fault reaction it
    // claims to cover actually happened somewhere in it.
    assert!(fleet_1.iter().any(|o| o.cache.hits > 0), "no cache hit");
    assert!(fleet_1.iter().any(|o| o.hedge.wins > 0), "no hedge won");
    assert!(fleet_1.iter().any(|o| o.hedge.losses > 0), "no hedge lost");
    assert!(fleet_1
        .iter()
        .any(|o| o.trajectory.iter().any(|d| d.replicas > 2)));
    for needle in ["slot", "server", "lost", "stalled", "speed", "unreachable"] {
        let said = |log: &[String]| log.iter().any(|l| l.contains(needle));
        assert!(
            fleet_1.iter().any(|o| said(&o.fault_log)),
            "no {needle:?} line"
        );
    }
    for needle in ["gpu", "lost;", "stalled", "speed", "server0 unreachable"] {
        let said = |log: &[String]| log.iter().any(|l| l.contains(needle));
        assert!(
            serve_1.iter().any(|o| said(&o.fault_log)),
            "no {needle:?} line"
        );
    }
    assert!(serve_1.iter().any(|o| o
        .replicas
        .iter()
        .any(|r| r.trajectory.iter().any(|&b| b < 16))));
}
