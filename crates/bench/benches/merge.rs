//! Model-merging microbenchmarks: Algorithm 2's weight computation, the
//! weighted model sum, the momentum update, Algorithm 1's scaling step, and
//! the full merge stage (gather + all-reduce + global update +
//! redistribution) as the trainer runs it — persistent arena, one fused
//! pass — against allocate-per-merge over the step-by-step functions.

use asgd_bench::experiments::arena_merge;
use asgd_collective::{allreduce, Algorithm, CollectiveContext};
use asgd_core::merging::apply_global_update;
use asgd_core::{compute_merge_weights, scale_batch_sizes, GpuHyper, MergeParams, ScalingParams};
use asgd_gpusim::{profile, SimTime, Topology};
use asgd_model::{Mlp, MlpConfig};
use asgd_tensor::{ops, FlatVec, Matrix, Precision};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn hypers(n: usize) -> Vec<GpuHyper> {
    (0..n)
        .map(|i| GpuHyper {
            batch_size: 256.0 - i as f64 * 17.0,
            lr: 0.1,
            updates: 20 + (i as u64 * 3) % 7,
        })
        .collect()
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm2_weights");
    for n in [2usize, 4, 8] {
        let gs = hypers(n);
        let norms = vec![0.05; n];
        let params = MergeParams::default();
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| compute_merge_weights(&gs, &norms, &params));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("weighted_model_sum");
    for len in [1usize << 16, 1 << 20] {
        let mats: Vec<Matrix> = (0..4)
            .map(|d| Matrix::from_fn(1, len, |_, i| ((i + d) % 7) as f32))
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let weights = [0.3, 0.3, 0.2, 0.2];
        group.bench_function(BenchmarkId::from_parameter(len), |b| {
            let mut out = Matrix::zeros(1, len);
            b.iter(|| ops::weighted_sum(&refs, &weights, &mut out));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("momentum_global_update");
    for len in [1usize << 16, 1 << 20] {
        let merged = vec![0.5f32; len];
        group.bench_function(BenchmarkId::from_parameter(len), |b| {
            b.iter_batched(
                || (vec![1.0f32; len], vec![0.8f32; len]),
                |(mut global, mut prev)| apply_global_update(&merged, &mut global, &mut prev, 0.9),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();

    c.bench_function("algorithm1_batch_scaling_8gpus", |b| {
        let params = ScalingParams::paper_defaults(1024);
        b.iter_batched(
            || hypers(8),
            |mut gs| scale_batch_sizes(&mut gs, &params),
            criterion::BatchSize::SmallInput,
        );
    });
}

/// One full scheduler-side merge with 4 replicas at the two shapes the
/// wall-clock benchmark merges: 13.1 M parameters in f32
/// (`train_sampled_merge`) and 6.1 M in bf16 (`train_cluster_bf16_chaos`).
/// The `arena` variants run the trainer's steady state
/// ([`asgd_bench::experiments::arena_merge`]: recycled buffers, one fused
/// reduce/update/payload pass, one shared payload); `alloc_per_merge`
/// allocates the flats and redistribution clones fresh every merge and
/// walks the step-by-step library functions — what the arena and the fused
/// pass save.
fn bench_merge_stage(c: &mut Criterion) {
    let n = 4;
    let ctx = CollectiveContext::new(Topology::pcie(n), &profile::heterogeneous_server(n));
    let mut group = c.benchmark_group("merge_stage");
    group.sample_size(10);

    for (name, precision, (features, hidden, classes)) in [
        ("arena_4x_13.1M_f32", Precision::F32, (135_909, 64, 67_009)),
        ("arena_4x_6.1M_bf16", Precision::Bf16, (40_773, 128, 6_701)),
    ] {
        let config = MlpConfig {
            num_features: features,
            hidden,
            num_classes: classes,
        };
        let mut replicas: Vec<Mlp> = (0..n).map(|g| Mlp::init(&config, 3 + g as u64)).collect();
        let mut global = replicas[0].to_flat();
        let mut prev_global = global.clone();
        let mut bufs: Vec<FlatVec> = (0..n).map(|_| FlatVec::empty(precision)).collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                arena_merge(
                    &mut replicas,
                    &mut bufs,
                    &mut global,
                    &mut prev_global,
                    &ctx,
                )
            });
        });
    }

    let config = MlpConfig {
        num_features: 135_909,
        hidden: 64,
        num_classes: 67_009,
    };
    let mut replicas: Vec<Mlp> = (0..n).map(|g| Mlp::init(&config, 3 + g as u64)).collect();
    let mut global = replicas[0].to_flat();
    let mut prev_global = global.clone();
    let weights = vec![1.0 / n as f64; n];
    let arrivals = vec![SimTime::ZERO; n];
    let algo = Algorithm::MultiStreamRing { partitions: 4 };
    group.bench_function("alloc_per_merge_4x_13.1M_f32", |b| {
        b.iter(|| {
            let mut fresh: Vec<Vec<f32>> = replicas.iter().map(|r| r.to_flat()).collect();
            allreduce(&mut fresh, &weights, algo, &ctx, &arrivals);
            let merged = fresh.swap_remove(0);
            apply_global_update(&merged, &mut global, &mut prev_global, 0.9);
            for r in replicas.iter_mut() {
                let flat = global.clone();
                r.load_flat(&flat);
            }
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_merge, bench_merge_stage
}
criterion_main!(benches);
