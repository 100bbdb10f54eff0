//! Model-merging microbenchmarks: Algorithm 2's weight computation, the
//! weighted model sum, the momentum update, Algorithm 1's scaling step, and
//! the full merge stage (gather + all-reduce + global update +
//! redistribution) with and without the persistent merge arena.

use asgd_collective::{allreduce, allreduce_flat, Algorithm, CollectiveContext};
use asgd_core::merging::{apply_global_update, apply_global_update_flat, redistribute_global};
use asgd_core::{compute_merge_weights, scale_batch_sizes, GpuHyper, MergeParams, ScalingParams};
use asgd_gpusim::{profile, SimTime, Topology};
use asgd_model::{Mlp, MlpConfig};
use asgd_tensor::{ops, FlatVec, Matrix};
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

/// One full scheduler-side merge at the amazon-like shape (hot_path bench's
/// shape), 4 replicas: gather every replica flat, weighted all-reduce
/// (multi-stream ring), momentum global update, redistribute + load. The
/// `arena` variant recycles persistent buffers (the trainer's steady
/// state); `alloc_per_merge` allocates the flats and redistribution clones
/// fresh every merge — quantifying what the arena saves.
fn bench_merge_stage(c: &mut Criterion) {
    let n = 4;
    let config = MlpConfig {
        num_features: 135_909,
        hidden: 128,
        num_classes: 6_701,
    };
    let mut replicas: Vec<Mlp> = (0..n).map(|g| Mlp::init(&config, 3 + g as u64)).collect();
    let mut global = replicas[0].to_flat();
    let mut prev_global = global.clone();
    let weights = vec![1.0 / n as f64; n];
    let ctx = CollectiveContext::new(Topology::pcie(n), &profile::heterogeneous_server(n));
    let arrivals = vec![SimTime::ZERO; n];
    let algo = Algorithm::MultiStreamRing { partitions: 4 };

    let mut group = c.benchmark_group("merge_stage");
    group.sample_size(10);

    let mut bufs: Vec<FlatVec> = (0..n).map(|_| FlatVec::default()).collect();
    group.bench_function("arena_4x_amazon", |b| {
        b.iter(|| {
            for (r, buf) in replicas.iter().zip(bufs.iter_mut()) {
                r.write_flat_buf(buf);
            }
            allreduce_flat(&mut bufs, &weights, algo, &ctx, &arrivals);
            apply_global_update_flat(&bufs[0], &mut global, &mut prev_global, 0.9);
            redistribute_global(&global, &mut bufs);
            for (r, buf) in replicas.iter_mut().zip(&bufs) {
                r.read_flat_buf(buf);
            }
        });
    });

    group.bench_function("alloc_per_merge_4x_amazon", |b| {
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
