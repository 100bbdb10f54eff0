//! Chaos suite: seeded fault injection against the full trainer stack.
//!
//! Every test drives a real training run through a [`FaultPlan`] and checks
//! the degradation contract (see `DESIGN.md`, "Fault model & degradation
//! semantics"): no sample lost or double-counted, dead replicas evicted with
//! `α_i` renormalized over survivors, arena OOM degrading to the serial
//! reduction with identical numerics, and the whole faulted run remaining a
//! deterministic function of `(run seed, fault plan)`.

use adaptive_sgd::collective::InterNode;
use adaptive_sgd::core::metrics::RunResult;
use adaptive_sgd::core::{
    algorithms,
    trainer::{RunConfig, SampledSoftmax, Trainer},
    AppliedFault, ClusterConfig, StalenessBound,
};
use adaptive_sgd::data::{generate, DatasetSpec, XmlDataset};
use adaptive_sgd::gpusim::profile::heterogeneous_server;
use adaptive_sgd::gpusim::FaultPlan;
use adaptive_sgd::tensor::Precision;

const MEGAS: usize = 4;

fn dataset() -> XmlDataset {
    generate(&DatasetSpec::tiny("chaos"), 11)
}

fn config(megas: usize) -> RunConfig {
    let mut c = RunConfig::paper_defaults(64, 8); // 512-sample mega-batches
    c.hidden = 16;
    c.base_lr = 0.2;
    c.mega_batch_limit = Some(megas);
    c.overhead_scale = 0.001;
    c
}

fn run(n_gpus: usize, plan: Option<FaultPlan>) -> RunResult {
    run_with(n_gpus, plan, MergePath::DenseF32)
}

/// The merge-stage inputs the random-plan tests sweep: the paper-default
/// dense f32 gather, and the sampled-softmax + sparse-merge path through the
/// bf16 arena — the `GetDelta` gather, reconstructed over the parked base,
/// under whatever survivor subset the plan leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MergePath {
    DenseF32,
    SparseBf16,
}

impl MergePath {
    fn apply(self, cfg: &mut RunConfig) {
        if self == MergePath::SparseBf16 {
            cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
            cfg.sparse_merge = true;
            // The tiny label space makes every union dense; keep the sparse
            // schedule under test instead of the density fallback.
            cfg.sparse_max_density = 1.0;
            cfg.precision = Precision::Bf16;
        }
    }
}

fn run_with(n_gpus: usize, plan: Option<FaultPlan>, path: MergePath) -> RunResult {
    let ds = dataset();
    let mut cfg = config(MEGAS);
    cfg.trace = true;
    cfg.fault_plan = plan;
    path.apply(&mut cfg);
    Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(n_gpus),
        cfg,
    )
    .run(&ds)
}

/// Σα must be exactly 1 over the participating replicas, except when
/// Algorithm 2's perturbation deliberately shifted the extreme weights by
/// ±δ (paper default δ = 0.1), which bounds |Σα − 1| by δ.
fn assert_weight_sum(r: &adaptive_sgd::core::MergeRecord) {
    let sum: f64 = r.merge_weights.iter().sum();
    let tol = if r.perturbed { 0.1 + 1e-9 } else { 1e-9 };
    assert!(
        (sum - 1.0).abs() <= tol,
        "Σα = {sum} (perturbed: {}) at merge {}",
        r.perturbed,
        r.merge_index
    );
}

/// The survivor-merge contract at every recorded merge: Σα = 1 over the
/// participating replicas and weight exactly 0 in every slot whose device
/// was lost at or before that mega-batch.
fn assert_survivor_weights(result: &RunResult) {
    for r in &result.records {
        assert_weight_sum(r);
        for f in &result.chaos.faults {
            if let AppliedFault::DeviceLoss { mega, gpu, .. } = f {
                if *mega <= r.merge_index {
                    assert_eq!(
                        r.merge_weights[*gpu], 0.0,
                        "dead gpu {gpu} carries weight at merge {}",
                        r.merge_index
                    );
                }
            }
        }
    }
}

/// Total committed samples must equal the dispatched mega-batches exactly —
/// chaos or not, every granted sample is trained on a surviving replica
/// exactly once.
fn assert_balanced_accounting(result: &RunResult, megas: usize, mega_batch_size: usize) {
    assert_eq!(
        result.chaos.samples_committed,
        (megas * mega_batch_size) as u64,
        "samples lost or double-counted"
    );
    let recorded_updates: u64 = result
        .records
        .iter()
        .map(|r| r.updates.iter().sum::<u64>())
        .sum();
    assert_eq!(
        result.chaos.batches_committed, recorded_updates,
        "committed batches disagree with the per-merge records"
    );
}

/// What every random fault plan must leave intact, whichever gather the
/// merge stage runs: the run completes, samples balance, survivors carry
/// Σα = 1 with dead slots at 0, weights stay finite, and every merge went
/// through the requested path.
fn assert_random_plan_contract(result: &RunResult, seed: u64, path: MergePath) {
    assert_eq!(
        result.records.len(),
        MEGAS,
        "seed {seed} {path:?} aborted the run"
    );
    assert_balanced_accounting(result, MEGAS, 512);
    assert_survivor_weights(result);
    assert!(
        result.final_model.iter().all(|w| w.is_finite()),
        "seed {seed} {path:?} produced non-finite weights"
    );
    assert!(
        !result.chaos.is_quiet(),
        "seed {seed}: a random plan must apply something"
    );
    assert_eq!(
        result.sparse_merge.as_ref().map(|s| s.merges),
        (path == MergePath::SparseBf16).then_some(MEGAS as u64),
        "seed {seed} {path:?}: every merge must take the requested gather"
    );
}

#[test]
fn replica_loss_completes_with_balanced_accounting() {
    let plan = FaultPlan::new().device_loss(1, 6, 0);
    let result = run(4, Some(plan));

    assert_eq!(result.records.len(), MEGAS, "run did not complete");
    assert_eq!(result.chaos.lost_gpus, vec![0]);
    assert!(
        result.chaos.redispatched_batches >= 1,
        "the dead replica had in-flight batches to re-dispatch"
    );
    assert_eq!(
        result.chaos.redispatched_batches,
        result.chaos.discarded_batches
    );
    assert_balanced_accounting(&result, MEGAS, 512);

    // From the loss on, the dead replica contributes no updates and no merge
    // weight; the survivors' weights renormalize to Σα = 1 (up to Algorithm
    // 2's deliberate ±δ perturbation when it fires).
    for r in &result.records[1..] {
        assert_eq!(r.updates[0], 0, "dead replica recorded updates");
        assert_eq!(r.merge_weights[0], 0.0, "dead replica kept merge weight");
        assert_weight_sum(r);
    }
    // And the loss itself is on the fault log with its re-dispatch count.
    assert!(result.chaos.faults.iter().any(|f| matches!(
        f,
        AppliedFault::DeviceLoss { mega: 1, gpu: 0, redispatched, .. } if *redispatched >= 1
    )));
}

#[test]
fn merged_models_stay_finite_under_faults() {
    let plan = FaultPlan::new()
        .speed_change(0, 2, 1, 0.3)
        .device_loss(1, 4, 2)
        .merge_oom(2);
    let result = run(4, Some(plan));
    assert!(
        result.final_model.iter().all(|w| w.is_finite()),
        "non-finite weights after faulted run"
    );
    for r in &result.records {
        assert!(r.mean_loss.is_finite());
        assert!(r.merge_weights.iter().all(|w| w.is_finite()));
        assert_weight_sum(r);
    }
}

#[test]
fn staleness_bound_holds_for_survivors_under_device_loss() {
    let cfg = config(MEGAS);
    let bound = StalenessBound::derive(&cfg.scaling_params, cfg.mega_batch_size, 4);
    let plan = FaultPlan::new().device_loss(1, 6, 3);
    let result = run(4, Some(plan));
    for r in &result.records {
        let alive: Vec<u64> = r
            .updates
            .iter()
            .enumerate()
            .filter(|&(g, _)| !result.chaos.lost_gpus.contains(&g) || r.merge_index == 0)
            .map(|(_, &u)| u)
            .collect();
        assert!(
            bound.check(&alive),
            "staleness bound violated at merge {}: {:?} vs [{}, {}]",
            r.merge_index,
            alive,
            bound.min_updates,
            bound.max_updates
        );
    }
}

#[test]
fn arena_oom_degrades_to_serial_with_identical_numerics() {
    // The serial reduction is bit-identical (results AND simulated timing)
    // to the pooled path, so a run whose only fault is a merge OOM must be
    // indistinguishable from the fault-free run everywhere except the log.
    let clean = run(4, None);
    let oom = run(4, Some(FaultPlan::new().merge_oom(1)));

    assert_eq!(oom.chaos.serial_fallback_merges, 1);
    assert!(oom.chaos.faults.iter().any(|f| matches!(
        f,
        AppliedFault::MergeOomFallback { mega: 1, requested, available }
            if requested > available
    )));
    assert_eq!(
        clean.final_model, oom.final_model,
        "serial fallback changed the numerics"
    );
    assert_eq!(clean.trace, oom.trace, "serial fallback changed the timing");
    let times = |r: &RunResult| r.records.iter().map(|x| x.sim_time).collect::<Vec<_>>();
    assert_eq!(times(&clean), times(&oom));
}

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    // An armed-but-empty plan turns the chaos bookkeeping on without
    // injecting anything: the run itself must not change at all.
    let clean = run(3, None);
    let armed = run(3, Some(FaultPlan::new()));
    assert_eq!(clean.final_model, armed.final_model);
    assert_eq!(clean.trace, armed.trace);
    assert!(armed.chaos.is_quiet());
    assert!(clean.chaos.is_quiet());
    assert_balanced_accounting(&armed, MEGAS, 512);
    // The quiet run commits nothing to the chaos counters.
    assert_eq!(clean.chaos.samples_committed, 0);
}

#[test]
fn straggler_spike_sheds_load_until_recovery() {
    let clean = run(4, None);
    let plan = FaultPlan::new()
        .speed_change(0, 4, 0, 0.15)
        .speed_change(2, 0, 0, 1.0);
    let spiked = run(4, Some(plan));

    let sc: Vec<&AppliedFault> = spiked
        .chaos
        .faults
        .iter()
        .filter(|f| matches!(f, AppliedFault::SpeedChange { .. }))
        .collect();
    assert_eq!(sc.len(), 2, "both speed events must apply");
    // While throttled, dynamic dispatch routes work away from the victim.
    assert!(
        spiked.records[1].updates[0] < clean.records[1].updates[0],
        "throttled gpu kept its load: {} vs {}",
        spiked.records[1].updates[0],
        clean.records[1].updates[0]
    );
    assert_balanced_accounting(&spiked, MEGAS, 512);
}

#[test]
fn transient_stall_routes_batches_around_the_victim() {
    let clean = run(4, None);
    let stalled = run(4, Some(FaultPlan::new().stall(0, 2, 0, 1.0)));
    assert!(stalled.chaos.faults.iter().any(|f| matches!(
        f,
        AppliedFault::Stall { mega: 0, gpu: 0, seconds, .. } if *seconds == 1.0
    )));
    // A one-second freeze dwarfs the mega-batch: the victim does (almost)
    // nothing more in it while the others absorb its share.
    assert!(
        stalled.records[0].updates[0] < clean.records[0].updates[0],
        "stalled gpu kept dispatching: {} vs {}",
        stalled.records[0].updates[0],
        clean.records[0].updates[0]
    );
    assert_balanced_accounting(&stalled, MEGAS, 512);
}

#[test]
fn faulted_runs_are_bit_identical_across_re_runs() {
    let plan = FaultPlan::random(7, 4, MEGAS);
    let a = run(4, Some(plan.clone()));
    let b = run(4, Some(plan));
    assert_eq!(a.final_model, b.final_model);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.chaos, b.chaos);
    assert_eq!(a.chaos.render(), b.chaos.render());
    let acc = |r: &RunResult| r.records.iter().map(|x| x.accuracy).collect::<Vec<_>>();
    assert_eq!(acc(&a), acc(&b));
}

#[test]
fn random_plans_always_complete_with_balanced_accounting() {
    for seed in [1u64, 13, 99] {
        for path in [MergePath::DenseF32, MergePath::SparseBf16] {
            let plan = FaultPlan::random(seed, 3, MEGAS);
            let result = run_with(3, Some(plan), path);
            assert_random_plan_contract(&result, seed, path);
        }
    }
}

#[test]
fn elastic_sgd_survives_device_loss_too() {
    // The degradation path is spec-independent (any MegaBatch-merging
    // trainer): Elastic SGD with plain averaging also evicts and completes.
    let ds = dataset();
    let mut cfg = config(MEGAS);
    cfg.fault_plan = Some(FaultPlan::new().device_loss(1, 5, 1));
    let result = Trainer::new(algorithms::elastic_sgd(), heterogeneous_server(3), cfg).run(&ds);
    assert_eq!(result.records.len(), MEGAS);
    assert_eq!(result.chaos.lost_gpus, vec![1]);
    for r in &result.records[1..] {
        assert_weight_sum(r);
        assert_eq!(r.merge_weights[1], 0.0);
    }
    assert_balanced_accounting(&result, MEGAS, 512);
}

#[test]
#[should_panic(expected = "fault injection requires merge-per-mega-batch")]
fn fault_plan_rejects_per_round_merging() {
    let mut cfg = config(2);
    cfg.fault_plan = Some(FaultPlan::new().merge_oom(0));
    let _ = Trainer::new(algorithms::tensorflow_sync(), heterogeneous_server(2), cfg);
}

#[test]
fn sampled_device_loss_redispatch_reproduces_candidate_sets() {
    // The sampled-softmax determinism contract under chaos: a batch's
    // candidate set is a pure function of (LSH seed, last-synced model,
    // batch labels, id-derived sample seed) — none of which change when a
    // device loss re-dispatches the batch to a survivor. If re-dispatch
    // changed even one candidate set, the survivor's replica (and the merged
    // global) would diverge between thread counts and re-runs; instead the
    // whole faulted run must be bit-identical.
    let run_sampled = |threads: usize| {
        adaptive_sgd::tensor::parallel::override_threads(threads);
        let ds = dataset();
        let mut cfg = config(MEGAS);
        cfg.trace = true;
        cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        cfg.fault_plan = Some(FaultPlan::new().device_loss(1, 6, 0));
        let r = Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(4), cfg).run(&ds);
        adaptive_sgd::tensor::parallel::override_threads(0);
        r
    };
    let a = run_sampled(1);
    let b = run_sampled(8);
    assert!(
        a.chaos.redispatched_batches >= 1,
        "the loss must have re-dispatched in-flight sampled batches"
    );
    assert_eq!(a.chaos.lost_gpus, vec![0]);
    assert_eq!(
        a.final_model, b.final_model,
        "re-dispatched candidate sets were not reproduced"
    );
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.chaos.render(), b.chaos.render());
    assert_balanced_accounting(&a, MEGAS, 512);
}

/// A faulted run over a simulated multi-node cluster: same trainer, but the
/// fleet is `servers × per` and merges go through the two-level hierarchical
/// schedule over the slow inter-node link.
fn cluster_run(servers: usize, per: usize, plan: Option<FaultPlan>) -> RunResult {
    cluster_run_with(servers, per, plan, MergePath::DenseF32)
}

fn cluster_run_with(
    servers: usize,
    per: usize,
    plan: Option<FaultPlan>,
    path: MergePath,
) -> RunResult {
    let ds = dataset();
    let mut cfg = config(MEGAS);
    cfg.trace = true;
    cfg.fault_plan = plan;
    path.apply(&mut cfg);
    cfg.cluster = Some(ClusterConfig {
        servers,
        devices_per_server: per,
        inter: InterNode::Ring,
    });
    Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(servers * per),
        cfg,
    )
    .run(&ds)
}

#[test]
fn server_loss_mid_run_evicts_every_member_and_rebalances() {
    // Losing a whole node kills all of its devices at once: every member is
    // evicted, their in-flight batches re-dispatch to the surviving nodes,
    // and Algorithm 2's α weights renormalize over the survivors — who keep
    // merging *across* the remaining inter-node links.
    let plan = FaultPlan::new().server_loss(1, 4, 0);
    let result = cluster_run(3, 2, Some(plan));

    assert_eq!(result.records.len(), MEGAS, "run did not complete");
    assert_eq!(result.chaos.lost_gpus, vec![0, 1], "whole node must die");
    assert!(result.chaos.faults.iter().any(|f| matches!(
        f,
        AppliedFault::ServerLoss { mega: 1, server: 0, lost, .. } if lost == &vec![0, 1]
    )));
    for r in &result.records[1..] {
        assert_eq!(r.updates[0] + r.updates[1], 0, "dead node kept training");
        assert_eq!(r.merge_weights[0], 0.0);
        assert_eq!(r.merge_weights[1], 0.0);
        assert_weight_sum(r);
    }
    assert_balanced_accounting(&result, MEGAS, 512);
}

#[test]
fn losing_the_last_server_is_refused_whole() {
    // Kill both nodes of a 2×2 cluster: the second server loss would leave
    // nothing to dispatch to, so it is refused whole — and logged — rather
    // than stopping half-way through the server's members.
    let plan = FaultPlan::new().server_loss(1, 2, 0).server_loss(1, 3, 1);
    let result = cluster_run(2, 2, Some(plan));
    assert_eq!(result.records.len(), MEGAS);
    assert_eq!(result.chaos.lost_gpus, vec![0, 1], "server 1 must survive");
    assert!(result
        .chaos
        .render()
        .contains("mega 1 server 1 server-loss REFUSED (no survivor outside)\n"));
    assert_balanced_accounting(&result, MEGAS, 512);
}

/// The device batch `n` of a traced run was dispatched to.
fn batch_device(result: &RunResult, n: u64) -> usize {
    let label = format!(" batch {n} (");
    let line = result.trace.lines().find(|l| l.contains(&label));
    // `[start - end] gpu{g} batch {n} (…`
    let gpu = line
        .expect("batch in the trace")
        .split("] gpu")
        .nth(1)
        .unwrap();
    gpu[..gpu.find(' ').unwrap()].parse().unwrap()
}

#[test]
fn server_loss_hands_each_in_flight_batch_once_to_another_server() {
    // Each loss fires with one batch in flight on the dying server. Every
    // member must be dead before the batch moves: handed to a member about
    // to die, it would be re-dispatched again (`redispatched 2`, or 3 on the
    // 3×3 case, for one batch).
    for (servers, per, after, server) in [(3, 2, 1, 0), (3, 2, 3, 1), (3, 3, 7, 2)] {
        let plan = FaultPlan::new().server_loss(1, after, server);
        let result = cluster_run(servers, per, Some(plan));
        let what = format!("{servers}x{per} server_loss(1, {after}, {server})");
        let chaos = &result.chaos;
        let counts = (chaos.redispatched_batches, chaos.discarded_batches);
        assert_eq!(counts, (1, 1), "{what}");
        assert!(
            chaos.faults.iter().any(|f| matches!(
                f,
                AppliedFault::ServerLoss {
                    redispatched: 1,
                    ..
                }
            )),
            "{what}"
        );
        // Batches are numbered run-wide; mega 0 dispatched `before`, so the
        // hand-over is number `before + after`.
        let before: u64 = result.records[0].updates.iter().sum();
        let to = batch_device(&result, before + after as u64);
        assert_ne!(
            to / per,
            server,
            "{what}: handed to gpu {to}, a dying member"
        );
        assert_balanced_accounting(&result, MEGAS, 512);
    }
}

/// The conservation contract of one sweep run on a fleet of `per`-device
/// servers: every sample committed once, every discarded batch re-run once,
/// a server loss hands over exactly what its members' lines say and leaves
/// no member alive.
fn assert_conserved(r: &RunResult, megas: usize, per: usize, what: &str) {
    assert_balanced_accounting(r, megas, 512);
    let chaos = &r.chaos;
    assert_eq!(
        chaos.redispatched_batches, chaos.discarded_batches,
        "{what}"
    );
    for f in &chaos.faults {
        let AppliedFault::ServerLoss {
            mega,
            server,
            lost,
            redispatched,
        } = f
        else {
            continue;
        };
        let by_member = chaos.faults.iter().map(|d| match d {
            AppliedFault::DeviceLoss {
                mega: m,
                gpu,
                redispatched,
                ..
            } if m == mega && lost.contains(gpu) => *redispatched,
            _ => 0,
        });
        assert_eq!(*redispatched, by_member.sum::<u64>(), "{what}");
        for g in server * per..(server + 1) * per {
            assert!(
                chaos.lost_gpus.contains(&g),
                "{what}: gpu {g} outlived server {server}"
            );
        }
    }
}

#[test]
fn random_plans_conserve_work_at_any_thread_count() {
    // `FaultPlan::random` on a flat 4-GPU server and `random_cluster` on a
    // 3×2 cluster, far beyond the checked-in seeds, alternating the two
    // merge paths by seed; each run again at 8 threads.
    let ds = dataset();
    let megas = 3;
    let run = |plan: &FaultPlan, cluster: bool, path: MergePath, threads: usize| {
        let mut cfg = config(megas);
        cfg.fault_plan = Some(plan.clone());
        path.apply(&mut cfg);
        cfg.cluster = cluster.then_some(ClusterConfig {
            servers: 3,
            devices_per_server: 2,
            inter: InterNode::Ring,
        });
        let server = heterogeneous_server(if cluster { 6 } else { 4 });
        adaptive_sgd::tensor::parallel::override_threads(threads);
        let r = Trainer::new(algorithms::adaptive_sgd(), server, cfg).run(&ds);
        adaptive_sgd::tensor::parallel::override_threads(0);
        r
    };
    let mut server_losses = 0;
    for seed in 0..24u64 {
        let path = [MergePath::DenseF32, MergePath::SparseBf16][seed as usize % 2];
        let plans = [
            (false, 4, FaultPlan::random(seed, 4, megas)),
            (true, 2, FaultPlan::random_cluster(seed, 3, 2, megas)),
        ];
        for (cluster, per, plan) in &plans {
            let what = format!("seed {seed} cluster {cluster} {path:?}");
            let a = run(plan, *cluster, path, 1);
            assert_conserved(&a, megas, *per, &what);
            let b = run(plan, *cluster, path, 8);
            assert_eq!(a.chaos, b.chaos, "{what}: threads 1 vs 8");
            assert_eq!(a.final_model, b.final_model, "{what}: threads 1 vs 8");
            let is_server_loss = |f: &&AppliedFault| matches!(f, AppliedFault::ServerLoss { .. });
            server_losses += a.chaos.faults.iter().filter(is_server_loss).count();
        }
    }
    assert!(server_losses > 0, "the sweep never lost a server");
}

#[test]
fn inter_node_stall_routes_load_to_the_other_nodes() {
    let clean = cluster_run(2, 2, None);
    let stalled = cluster_run(2, 2, Some(FaultPlan::new().inter_node_stall(0, 2, 1, 0.5)));
    assert!(stalled.chaos.faults.iter().any(|f| matches!(
        f,
        AppliedFault::InterNodeStall { mega: 0, server: 1, seconds, .. } if *seconds == 0.5
    )));
    // A half-second uplink stall freezes every device on the node: dynamic
    // dispatch routes its share of mega 0 to the healthy node.
    let node1 = |r: &RunResult| r.records[0].updates[2] + r.records[0].updates[3];
    assert!(
        node1(&stalled) < node1(&clean),
        "stalled node kept its load: {} vs {}",
        node1(&stalled),
        node1(&clean)
    );
    assert_balanced_accounting(&stalled, MEGAS, 512);
}

#[test]
fn cluster_faulted_runs_are_bit_identical_across_re_runs() {
    let plan = FaultPlan::random_cluster(7, 2, 2, MEGAS);
    let a = cluster_run(2, 2, Some(plan.clone()));
    let b = cluster_run(2, 2, Some(plan));
    assert_eq!(a.final_model, b.final_model);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.chaos, b.chaos);
    assert_eq!(a.chaos.render(), b.chaos.render());
}

#[test]
fn random_cluster_plans_always_complete_with_balanced_accounting() {
    for seed in [1u64, 13, 99] {
        for path in [MergePath::DenseF32, MergePath::SparseBf16] {
            let plan = FaultPlan::random_cluster(seed, 3, 2, MEGAS);
            let result = cluster_run_with(3, 2, Some(plan), path);
            assert_random_plan_contract(&result, seed, path);
        }
    }
}

#[test]
fn losing_the_last_survivor_is_refused() {
    // A plan that tries to kill both devices: the second loss must be
    // ignored (the run has to finish), leaving exactly one survivor.
    let plan = FaultPlan::new().device_loss(1, 2, 0).device_loss(1, 3, 1);
    let result = run(2, Some(plan));
    assert_eq!(result.records.len(), MEGAS);
    assert_eq!(
        result.chaos.lost_gpus,
        vec![0],
        "second loss must be refused"
    );
    assert!(result
        .chaos
        .render()
        .contains("mega 1 gpu 1 device-loss REFUSED (last survivor)\n"));
    assert_balanced_accounting(&result, MEGAS, 512);
}
