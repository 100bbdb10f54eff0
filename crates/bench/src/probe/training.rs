//! The four training scenarios — `chaos`, `cluster`, `sampled`,
//! `sparse_merge` — are one program: assemble a traced [`RunConfig`], train
//! adaptive SGD on a heterogeneous server, render the sections. A scenario
//! is what it declares here: its knobs, header, artifact name, fault plan
//! and cluster shape.

use super::{fnv_line, plan_lines, suffix, Probe};
use crate::{Env, Knobs};
use asgd_collective::InterNode;
use asgd_core::trainer::{RunConfig, SampledSoftmax, Trainer};
use asgd_core::{algorithms, ClusterConfig, RunResult};
use asgd_gpusim::profile::heterogeneous_server;
use asgd_gpusim::FaultPlan;
use asgd_stats::fnv::{fnv1a, fnv1a_f32};
use asgd_tensor::Precision;
use std::fmt::Write as _;

/// A declared training scenario.
struct Training {
    header: String,
    gpus: usize,
    config: RunConfig,
    /// The sparse-merge scenario: train twice — dense merge, then sparse
    /// delta merge — and report the sparse run with the bit-identity verdict.
    paired: bool,
}

pub(super) fn declare<'a>(scenario: &str, env: &'a Env, k: Knobs) -> Probe<'a> {
    let megas = env.mega_limit;
    // What every scenario starts from; each arm applies what it declares on
    // top and names its artifact.
    let mut t = Training {
        header: String::new(),
        gpus: 4,
        config: env.run_config(0.2),
        paired: false,
    };
    t.config.trace = true;
    let artifact = match scenario {
        "chaos" => {
            let seed: u64 = k.get("ASGD_FAULT_SEED", 7);
            t.gpus = k.get("ASGD_FAULT_GPUS", 4);
            let tier = k.get("ASGD_PRECISION", Precision::F32);
            t.config.precision = tier;
            t.config.fault_plan = Some(FaultPlan::random(seed, t.gpus, megas));
            t.header = format!(
                "chaos probe: fault seed {seed}, {} gpus, {megas} megas, {} merge arena\n",
                t.gpus,
                tier.name()
            );
            format!("chaos_probe_{seed}{}.txt", suffix(tier))
        }
        "cluster" => {
            let seed: u64 = k.get("ASGD_FAULT_SEED", 7);
            let servers: usize = k.get("ASGD_SERVERS", 4);
            let per: usize = k.get("ASGD_DEVICES_PER_SERVER", 4);
            let shapes = [("ring", InterNode::Ring), ("tree", InterNode::Tree)];
            let inter = k.word("ASGD_INTER", InterNode::Ring, &shapes);
            let tier = k.get("ASGD_PRECISION", Precision::F32);
            t.gpus = servers * per;
            t.config.precision = tier;
            t.config.fault_plan = Some(FaultPlan::random_cluster(seed, servers, per, megas));
            t.config.cluster = Some(ClusterConfig {
                servers,
                devices_per_server: per,
                inter,
            });
            t.header = format!(
                "cluster probe: fault seed {seed}, {servers}x{per} cluster ({} gpus), \
                 {inter:?} inter-node, {megas} megas, {} merge arena\n",
                t.gpus,
                tier.name()
            );
            format!("cluster_probe_{seed}_{servers}x{per}{}.txt", suffix(tier))
        }
        "sampled" => {
            // Always trains sampled; 16 negatives by default keep the
            // debug-profile leg of the gate fast.
            let s = env.sampled.unwrap_or_else(|| SampledSoftmax::defaults(16));
            t.config.sampled_softmax = Some(s);
            t.header = format!(
                "sampled probe: {} tables x {} bits, {} negatives, lsh seed {:#x}, {megas} megas\n",
                s.tables, s.k_bits, s.neg_samples, s.seed
            );
            "sampled_probe.txt".into()
        }
        "sparse_merge" => {
            let servers: usize = k.get("ASGD_SERVERS", 1);
            let per: usize = k.get("ASGD_DEVICES_PER_SERVER", 4);
            let seed = k.parse("ASGD_FAULT_SEED", Some(7u64), |t| match t {
                "none" => Some(None),
                _ => t.parse().ok().map(Some),
            });
            let tier = k.get("ASGD_PRECISION", Precision::F32);
            t.paired = true;
            t.gpus = servers.max(1) * per;
            t.config.precision = tier;
            // A flat single server unless told otherwise; the default plan
            // replays device losses through the survivor-subset union path.
            t.config.cluster = (servers > 1).then_some(ClusterConfig {
                servers,
                devices_per_server: per,
                inter: InterNode::Ring,
            });
            t.config.fault_plan = seed.map(|seed| match t.config.cluster {
                Some(_) => FaultPlan::random_cluster(seed, servers, per, megas),
                None => FaultPlan::random(seed, t.gpus, megas),
            });
            let sampled = env.sampled.unwrap_or_else(|| SampledSoftmax::defaults(64));
            t.config.sampled_softmax = Some(sampled);
            // Probe-scale unions are dense (tiny label space), which would
            // send every merge through the dense fallback; force the sparse
            // schedule so the golden gates the path under test. Traffic
            // claims live in BENCH_sparse_merge.json, not here.
            t.config.sparse_max_density = 1.0;
            t.header = format!(
                "sparse-merge probe: fault seed {seed:?}, {servers}x{per} ({} gpus), \
                 {megas} megas, {} merge arena\n",
                t.gpus,
                tier.name()
            );
            let seed = seed.map_or_else(|| "none".into(), |s| s.to_string());
            // A cluster run names its shape, so it never lands on the flat
            // golden.
            let shape = t
                .config
                .cluster
                .map_or_else(String::new, |_| format!("_{servers}x{per}"));
            format!("sparse_merge_probe_{seed}{shape}{}.txt", suffix(tier))
        }
        other => unreachable!("{other} is not a training scenario"),
    };
    Probe {
        artifact,
        report: Box::new(move || t.report(env)),
    }
}

/// One `merge …` row per mega-batch.
fn merge_rows(out: &mut String, result: &RunResult) {
    for r in &result.records {
        let _ = writeln!(
            out,
            "merge {} time {:.9} loss {:.9} acc {:.6} updates {:?}",
            r.merge_index, r.sim_time, r.mean_loss, r.accuracy, r.updates
        );
    }
}

impl Training {
    fn report(self, env: &Env) -> String {
        let dataset = env.dataset(&env.dataset_specs()[0]);
        let train = |config: RunConfig| {
            let server = heterogeneous_server(self.gpus);
            Trainer::new(algorithms::adaptive_sgd(), server, config).run(&dataset)
        };
        let mut out = self.header.clone();
        if let Some(plan) = &self.config.fault_plan {
            plan_lines(&mut out, plan);
        }
        if !self.paired {
            let run = train(self.config.clone());
            if self.config.fault_plan.is_some() {
                out.push_str(&run.chaos.render());
            }
            merge_rows(&mut out, &run);
            fnv_line(&mut out, "trace", fnv1a(run.trace.bytes()));
            fnv_line(&mut out, "model", fnv1a_f32(&run.final_model));
            return out;
        }
        let merged = |sparse_merge| {
            train(RunConfig {
                sparse_merge,
                ..self.config.clone()
            })
        };
        let (dense, sparse) = (merged(false), merged(true));
        assert_eq!(
            dense.final_model, sparse.final_model,
            "sparse delta merge broke the bit-identity contract"
        );
        out.push_str(&sparse.chaos.render());
        merge_rows(&mut out, &sparse);
        let stats = sparse.sparse_merge.as_ref().expect("sparse stats");
        let _ = writeln!(
            out,
            "sparse merges {} fallbacks {} sparse_bytes {} dense_bytes {} ratio {:.3}",
            stats.merges,
            stats.fallbacks,
            stats.sparse_bytes,
            stats.dense_bytes,
            stats.bytes_ratio()
        );
        fnv_line(&mut out, "dense model", fnv1a_f32(&dense.final_model));
        fnv_line(&mut out, "sparse model", fnv1a_f32(&sparse.final_model));
        out.push_str("models bit-identical true\n");
        fnv_line(&mut out, "sparse trace", fnv1a(sparse.trace.bytes()));
        out
    }
}
