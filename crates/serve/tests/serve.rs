//! Integration contracts of the serving engine: checkpoint→serve handoff,
//! thread-count invariance, zero-loss degradation, and the SLO controller's
//! tail-latency win over fixed-size micro-batching.

use asgd_core::{algorithms, load_model, trainer::RunConfig, trainer::Trainer};
use asgd_data::{generate, DatasetSpec, XmlDataset};
use asgd_gpusim::profile::{heterogeneous_server, homogeneous_server, two_tier_server};
use asgd_gpusim::{DeviceProfile, FaultKind, FaultPlan};
use asgd_model::{Mlp, MlpConfig};
use asgd_serve::{open_loop_stream, serve, Request, ServeConfig, ServeOutcome};
use asgd_sparse::CsrMatrix;

const HIDDEN: usize = 24;

fn tiny_dataset() -> XmlDataset {
    generate(&DatasetSpec::amazon_670k(0.001), 42 ^ 0xD5)
}

fn mlp_config(ds: &XmlDataset) -> MlpConfig {
    MlpConfig {
        num_features: ds.num_features,
        hidden: HIDDEN,
        num_classes: ds.num_labels,
    }
}

/// Trains two mega-batches, round-trips the result through the serveable
/// checkpoint format, and returns the loaded model.
fn train_and_reload(ds: &XmlDataset) -> Mlp {
    let mut config = RunConfig::paper_defaults(32, 8);
    config.hidden = HIDDEN;
    config.base_lr = 0.1;
    config.seed = 42;
    config.mega_batch_limit = Some(2);
    config.overhead_scale = 0.001;
    let result = Trainer::new(algorithms::adaptive_sgd(), homogeneous_server(2), config).run(ds);
    let state = result.final_state.expect("gpu trainer keeps a snapshot");
    load_model(state.export_model(&mlp_config(ds))).expect("checkpoint decodes")
}

fn scaled(profiles: Vec<DeviceProfile>) -> Vec<DeviceProfile> {
    profiles
        .into_iter()
        .map(|p| p.with_overhead_scale(0.001))
        .collect()
}

fn run(
    model: &Mlp,
    profiles: &[DeviceProfile],
    pool: &CsrMatrix,
    requests: &[Request],
    plan: &FaultPlan,
    config: &ServeConfig,
) -> ServeOutcome {
    serve(model, profiles, pool, requests, plan, config)
}

/// Every request's served prediction against a one-row forward of `model`.
fn assert_served_equals_direct(
    outcome: &ServeOutcome,
    model: &Mlp,
    pool: &CsrMatrix,
    requests: &[Request],
    k: usize,
) {
    for r in requests {
        let x = pool.select_rows(&[r.pool_row]);
        assert_eq!(
            outcome.prediction(r.id).unwrap(),
            &model.predict_topk(&x, k)[..],
            "request {} served ≠ direct inference",
            r.id
        );
    }
}

#[test]
fn checkpoint_to_serve_roundtrip_is_bit_identical() {
    let ds = tiny_dataset();
    let model = train_and_reload(&ds);
    let pool = &ds.test.features;
    let requests = open_loop_stream(11, 200, 400.0, pool.rows());
    let config = ServeConfig::paper_defaults(32, 0.050);
    let outcome = run(
        &model,
        &scaled(two_tier_server(1, 1, 0.5)),
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.served, requests.len());
    assert_eq!(outcome.lost, 0);
    // Every served prediction must match direct inference on the same row —
    // bit for bit, independent of which replica served it and in which
    // micro-batch it rode (row-wise kernels make batch composition
    // irrelevant to a row's values).
    assert_served_equals_direct(&outcome, &model, pool, &requests, config.k);
}

#[test]
fn bf16_serving_matches_the_quantized_model_exactly() {
    let ds = tiny_dataset();
    let model = train_and_reload(&ds);
    let pool = &ds.test.features;
    let requests = open_loop_stream(11, 120, 400.0, pool.rows());
    let config = ServeConfig::paper_defaults(32, 0.050).bf16();
    let outcome = run(
        &model,
        &scaled(two_tier_server(1, 1, 0.5)),
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    // bf16 serving is direct inference on the once-quantized model — the
    // single round point is the streamed checkpoint, nothing downstream.
    let reference = model.quantized(asgd_tensor::Precision::Bf16);
    assert_served_equals_direct(&outcome, &reference, pool, &requests, config.k);
}

#[test]
fn serve_outcome_is_thread_count_invariant() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 7);
    let pool = &ds.test.features;
    let requests = open_loop_stream(3, 400, 800.0, pool.rows());
    let profiles = scaled(two_tier_server(2, 2, 0.5));
    let plan = FaultPlan::random(9, profiles.len(), 6);
    let config = ServeConfig::paper_defaults(32, 0.020);

    asgd_tensor::parallel::override_threads(1);
    let single = run(&model, &profiles, pool, &requests, &plan, &config);
    asgd_tensor::parallel::override_threads(8);
    let eight = run(&model, &profiles, pool, &requests, &plan, &config);
    asgd_tensor::parallel::override_threads(0);

    assert_eq!(single.records, eight.records, "schedules diverged");
    assert_eq!(
        single.predictions, eight.predictions,
        "predictions diverged"
    );
    assert_eq!(single.fault_log, eight.fault_log, "fault logs diverged");
    assert_eq!(
        single.makespan_s.to_bits(),
        eight.makespan_s.to_bits(),
        "makespans diverged"
    );
    for (a, b) in single.replicas.iter().zip(&eight.replicas) {
        assert_eq!(a.trajectory, b.trajectory, "trajectories diverged");
        assert_eq!(a.served, b.served);
    }
    let (pa, pb) = (single.fleet_latency(), eight.fleet_latency());
    assert_eq!(
        pa.p99.value().unwrap().to_bits(),
        pb.p99.value().unwrap().to_bits(),
        "fleet p99 diverged"
    );
}

#[test]
fn device_loss_mid_run_loses_zero_requests() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 8);
    let pool = &ds.test.features;
    let requests = open_loop_stream(5, 300, 600.0, pool.rows());
    let profiles = scaled(homogeneous_server(4));
    // Kill gpu 2 in the second controller window, mid-window.
    let plan = FaultPlan::new().device_loss(1, 3, 2);
    let config = ServeConfig::paper_defaults(32, 0.020);
    let outcome = run(&model, &profiles, pool, &requests, &plan, &config);

    assert_eq!(outcome.lost, 0, "device loss must lose zero requests");
    assert_eq!(outcome.served, requests.len());
    assert!(outcome.records.iter().all(Option::is_some));
    assert!(!outcome.replicas[2].alive, "gpu 2 should be dead");
    assert_eq!(
        outcome.replicas.iter().filter(|r| r.alive).count(),
        3,
        "three survivors"
    );
    assert!(
        outcome.fault_log.iter().any(|l| l.contains("gpu2 lost")),
        "loss should be logged: {:?}",
        outcome.fault_log
    );
    // The survivors picked up the dead replica's share.
    let survivor_served: usize = outcome
        .replicas
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(_, r)| r.served)
        .sum();
    assert_eq!(survivor_served + outcome.replicas[2].served, requests.len());
    // Predictions still match direct inference — in-flight work was drained,
    // not dropped.
    assert_served_equals_direct(&outcome, &model, pool, &requests[..50], config.k);
}

#[test]
fn losing_the_last_survivor_is_refused() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 9);
    let pool = &ds.test.features;
    let requests = open_loop_stream(6, 120, 600.0, pool.rows());
    let profiles = scaled(homogeneous_server(2));
    let plan = FaultPlan::new().device_loss(0, 1, 0).device_loss(0, 5, 1);
    let outcome = run(
        &model,
        &profiles,
        pool,
        &requests,
        &plan,
        &ServeConfig::paper_defaults(32, 0.020),
    );
    assert_eq!(outcome.lost, 0);
    assert_eq!(outcome.replicas.iter().filter(|r| r.alive).count(), 1);
    assert!(
        outcome.fault_log.iter().any(|l| l.contains("REFUSED")),
        "refusal should be logged: {:?}",
        outcome.fault_log
    );
}

#[test]
fn stall_and_speed_faults_keep_the_run_deterministic() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 10);
    let pool = &ds.test.features;
    let requests = open_loop_stream(7, 200, 600.0, pool.rows());
    let profiles = scaled(homogeneous_server(3));
    let plan = FaultPlan::new()
        .speed_change(0, 2, 1, 0.3)
        .stall(1, 0, 0, 0.01)
        .speed_change(2, 4, 1, 1.0);
    let config = ServeConfig::paper_defaults(32, 0.020);
    let a = run(&model, &profiles, pool, &requests, &plan, &config);
    let b = run(&model, &profiles, pool, &requests, &plan, &config);
    assert_eq!(a.lost, 0);
    assert_eq!(a.records, b.records);
    assert_eq!(a.fault_log, b.fault_log);
    assert!(a.fault_log.iter().any(|l| l.contains("speed")));
    assert!(a.fault_log.iter().any(|l| l.contains("stalled")));
}

#[test]
fn outcome_accessors_are_total() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 4);
    let pool = &ds.test.features;
    let config = ServeConfig::paper_defaults(32, 0.020);
    // An empty run must not divide by zero or panic anywhere.
    let empty = run(
        &model,
        &scaled(homogeneous_server(2)),
        pool,
        &[],
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(empty.served, 0);
    assert_eq!(empty.throughput_rps(), 0.0);
    assert_eq!(empty.prediction(0), None);
    // An unknown id on a real run is a lookup miss, not a panic.
    let requests = open_loop_stream(2, 40, 600.0, pool.rows());
    let outcome = run(
        &model,
        &scaled(homogeneous_server(2)),
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert!(outcome.prediction(39).is_some());
    assert_eq!(outcome.prediction(40), None);
    assert_eq!(outcome.prediction(u32::MAX), None);
    assert!(outcome.throughput_rps() > 0.0);
}

#[test]
fn adaptive_micro_batching_shrinks_p99_on_a_two_tier_fleet() {
    // The serving testbed where micro-batch size is the latency knob: a
    // wide-head classifier (many classes, tiny hidden layer) makes
    // per-request softmax/top-k cost dominate per-batch flat cost, so a slow
    // device greedily draining full-size batches inflates exactly those
    // requests' tail latency. Offered load sits near aggregate capacity so
    // backlog bursts actually form.
    let ds = generate(&DatasetSpec::amazon_670k(0.03), 42 ^ 0xD5);
    let cfg = MlpConfig {
        num_features: ds.num_features,
        hidden: 8,
        num_classes: ds.num_labels,
    };
    let model = Mlp::init(&cfg, 12);
    let pool = &ds.test.features;
    let profiles: Vec<_> = two_tier_server(2, 2, 0.25)
        .into_iter()
        .map(|p| p.with_overhead_scale(0.05))
        .collect();
    let requests = open_loop_stream(13, 1200, 4.0e6, pool.rows());
    let config = ServeConfig::paper_defaults(64, 0.000_015);
    let adaptive = run(
        &model,
        &profiles,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    let fixed = run(
        &model,
        &profiles,
        pool,
        &requests,
        &FaultPlan::new(),
        &config.clone().fixed_batch(),
    );
    assert_eq!(adaptive.lost, 0);
    assert_eq!(fixed.lost, 0);
    let (pa, pf) = (adaptive.fleet_latency(), fixed.fleet_latency());
    let (a99, f99) = (pa.p99.value().unwrap(), pf.p99.value().unwrap());
    assert!(
        a99 < 0.95 * f99,
        "adaptive p99 {a99:.6}s should clearly beat fixed p99 {f99:.6}s"
    );
    // The controller actually moved: the slow replicas shrank below b_max.
    for slow in [2usize, 3] {
        assert!(
            adaptive.replicas[slow].trajectory.iter().any(|&b| b < 64),
            "slow replica {slow} never shrank: {:?}",
            adaptive.replicas[slow].trajectory
        );
    }
    // The fixed baseline never moves.
    assert!(fixed
        .replicas
        .iter()
        .all(|r| r.trajectory.iter().all(|&b| b == 64)));
}

/// FNV-1a over everything a `serve` run produced: every record bit, each
/// replica's report fields and trajectory, the fault log, and the
/// predictions.
fn outcome_fnv(o: &ServeOutcome) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    let mut word = |w: u64| bytes.extend_from_slice(&w.to_le_bytes());
    for rec in &o.records {
        match rec {
            None => word(u64::MAX),
            Some(r) => {
                word(r.arrival.to_bits());
                word(r.dispatched.to_bits());
                word(r.completed.to_bits());
                word(r.replica as u64);
                word(r.batch as u64);
            }
        }
    }
    for rep in &o.replicas {
        word(rep.alive as u64);
        word(rep.served as u64);
        word(rep.batches as u64);
        word(rep.final_b as u64);
        word(rep.trajectory.len() as u64);
        rep.trajectory.iter().for_each(|&b| word(b as u64));
        word(rep.stats.p99.value().map_or(0, f64::to_bits));
    }
    o.predictions.iter().for_each(|&p| word(p as u64));
    word(o.k_eff as u64);
    word(o.makespan_s.to_bits());
    word(o.served as u64);
    word(o.lost as u64);
    for name in o.replicas.iter().map(|r| &r.name).chain(&o.fault_log) {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(b'\n');
    }
    asgd_stats::fnv1a(bytes)
}

/// One pinned session: `(request seed, fault seed)` on `profiles`, a
/// backlog-forming rate so the controller, the queue and every fault kind
/// of `FaultPlan::random` are actually exercised.
fn golden_case(seeds: (u64, u64), profiles: Vec<DeviceProfile>, config: &ServeConfig) -> u64 {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 21);
    let pool = &ds.test.features;
    let profiles: Vec<_> = profiles
        .into_iter()
        .map(|p| p.with_overhead_scale(0.05))
        .collect();
    let requests = open_loop_stream(seeds.0, 1500, 4.0e7, pool.rows());
    let plan = FaultPlan::random(seeds.1, profiles.len(), 3);
    let outcome = run(&model, &profiles, pool, &requests, &plan, config);
    assert_eq!(outcome.lost, 0);
    assert!(!outcome.fault_log.is_empty(), "the plan never fired");
    outcome_fnv(&outcome)
}

#[test]
fn pinned_sessions_match_their_checked_in_checksums() {
    // Cut from the engine's own scheduler loop before `serve` became the
    // one-tenant configuration of the fleet session: the adapter must
    // reproduce every bit of it. If a change is *supposed* to move a serving
    // schedule, re-derive the constants from the printed values.
    let adaptive = ServeConfig::paper_defaults(32, 0.000_004);
    let fixed = adaptive.clone().fixed_batch();
    let cases: [(&str, u64, u64); 6] = [
        (
            "11/7 adaptive, two-tier 2+2",
            golden_case((11, 7), two_tier_server(2, 2, 0.25), &adaptive),
            0x588c_b52d_57a2_f150,
        ),
        (
            "11/7 fixed, heterogeneous 4",
            golden_case((11, 7), heterogeneous_server(4), &fixed),
            0xbde7_5e67_b7f9_e5d1,
        ),
        (
            "23/5 adaptive bf16, heterogeneous 4",
            golden_case((23, 5), heterogeneous_server(4), &adaptive.clone().bf16()),
            0xdb6e_a5ed_2594_eaf0,
        ),
        (
            "23/5 fixed, homogeneous 3",
            golden_case((23, 5), homogeneous_server(3), &fixed),
            0xcade_b6cd_b2a7_cfac,
        ),
        (
            "3/99 adaptive, heterogeneous 5",
            golden_case((3, 99), heterogeneous_server(5), &adaptive),
            0x580a_4fe0_7c60_ddf6,
        ),
        (
            "3/99 fixed, two-tier 1+2",
            golden_case((3, 99), two_tier_server(1, 2, 0.5), &fixed),
            0x9eae_38d6_b0ed_7738,
        ),
    ];
    let report: Vec<String> = cases
        .iter()
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, want {want:#018x}"))
        .collect();
    assert!(
        cases.iter().all(|(_, got, want)| got == want),
        "pinned serve checksums diverged:\n  {}",
        report.join("\n  ")
    );
}

#[test]
fn faults_naming_a_device_the_server_lacks_are_skipped() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 14);
    let pool = &ds.test.features;
    let requests = open_loop_stream(8, 300, 600.0, pool.rows());
    let profiles = scaled(homogeneous_server(2));
    // A plan cut for a 4-device server, plus one of each kind aimed past the
    // end of this 2-device one.
    let plan = FaultPlan::random(9, 4, 3)
        .speed_change(0, 1, 2, 0.5)
        .stall(0, 2, 3, 0.01)
        .device_loss(0, 3, 7);
    let config = ServeConfig::paper_defaults(32, 0.020);
    let outcome = run(&model, &profiles, pool, &requests, &plan, &config);
    assert_eq!(outcome.lost, 0);
    assert_eq!(outcome.served, requests.len());
    // The events that do name gpu0/gpu1 still apply.
    let in_range = |e: &&asgd_gpusim::FaultEvent| e.gpu < 2 && e.kind != FaultKind::MergeOom;
    assert_eq!(
        outcome.fault_log.len(),
        plan.events().iter().filter(in_range).count(),
        "{:?}",
        outcome.fault_log
    );
    assert!(!outcome.fault_log.is_empty(), "nothing in range: {plan:?}");
    for gone in ["gpu2", "gpu3", "gpu7"] {
        assert!(
            !outcome.fault_log.iter().any(|l| l.contains(gone)),
            "{gone} does not exist: {:?}",
            outcome.fault_log
        );
    }
}

#[test]
fn cluster_fault_kinds_act_on_the_engines_one_server() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 15);
    let pool = &ds.test.features;
    let requests = open_loop_stream(9, 200, 600.0, pool.rows());
    let profiles = scaled(homogeneous_server(3));
    let config = ServeConfig::paper_defaults(32, 0.020);
    // Losing the only server would lose every replica: refused. Stalling its
    // uplink stalls every replica. Server 1 does not exist: nothing to lose.
    let plan = FaultPlan::new()
        .server_loss(0, 2, 0)
        .server_loss(0, 3, 1)
        .inter_node_stall(0, 4, 0, 0.5);
    let outcome = run(&model, &profiles, pool, &requests, &plan, &config);
    let clean = run(
        &model,
        &profiles,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    assert!(outcome.replicas.iter().all(|r| r.alive));
    assert_eq!(
        outcome.fault_log,
        [
            "w0+2: server0 loss REFUSED (no survivor outside)",
            "w0+4: server0 unreachable 0.500s",
        ]
    );
    // Every replica sat out the stall, so the requests that arrived during
    // it waited for its end.
    assert!(outcome.makespan_s >= 0.5);
    let waited = |o: &ServeOutcome| {
        o.records
            .iter()
            .flatten()
            .filter(|r| r.queueing() > 0.1)
            .count()
    };
    assert!(waited(&outcome) > 0 && waited(&clean) == 0);
}

#[test]
fn k_above_the_streaming_limit_is_served_through_the_materialized_fallback() {
    // More than one block of requests at a `k` the fused streaming top-k
    // does not take: full blocks and the tail both go through `ws.probs`.
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 16);
    let pool = &ds.test.features;
    let requests = open_loop_stream(10, 300, 4.0e7, pool.rows());
    let mut config = ServeConfig::paper_defaults(32, 0.020);
    config.k = asgd_tensor::ops::TOPK_STREAM_MAX + 8;
    assert!(config.k < ds.num_labels);
    let outcome = run(
        &model,
        &scaled(homogeneous_server(2)),
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.k_eff, config.k);
    assert_served_equals_direct(&outcome, &model, pool, &requests, config.k);
}

#[test]
fn a_pinned_session_has_one_checksum_at_one_two_and_eight_threads() {
    // The blocked forward forks on the kernel pool: 1,500 requests are five
    // full blocks and a tail, split however the thread count says.
    let config = ServeConfig::paper_defaults(32, 0.000_004);
    let fnvs = [1, 2, 8].map(|threads| {
        asgd_tensor::parallel::override_threads(threads);
        golden_case((11, 7), two_tier_server(2, 2, 0.25), &config)
    });
    asgd_tensor::parallel::override_threads(0);
    assert_eq!(fnvs, [0x588c_b52d_57a2_f150; 3], "{fnvs:#018x?}");
}

/// A session over a stream that breaks the `Request` contract at index 3.
fn serve_broken_stream(break_it: impl Fn(&mut [Request])) {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 17);
    let pool = &ds.test.features;
    let mut requests = open_loop_stream(12, 8, 600.0, pool.rows());
    break_it(&mut requests);
    let config = ServeConfig::paper_defaults(32, 0.020);
    let profiles = scaled(homogeneous_server(2));
    run(
        &model,
        &profiles,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
}

#[test]
#[should_panic(expected = "request 3 arrives at NaN")]
fn a_nan_arrival_is_refused_instead_of_spinning_forever() {
    serve_broken_stream(|r| r[3].arrival = f64::NAN);
}

#[test]
#[should_panic(expected = "request 3 arrives at")]
fn an_arrival_earlier_than_its_predecessor_is_refused() {
    serve_broken_stream(|r| r[3].arrival = r[2].arrival / 2.0);
}

#[test]
#[should_panic(expected = "request 3 has id 8")]
fn an_id_past_the_end_is_refused_before_the_session_runs() {
    serve_broken_stream(|r| r[3].id = 8);
}

#[test]
#[should_panic(expected = "request 3 has id 2")]
fn a_duplicate_id_is_refused() {
    serve_broken_stream(|r| r[3].id = 2);
}
