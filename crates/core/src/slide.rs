//! The SLIDE CPU baseline trainer (the paper's fourth comparator, Fig. 5).
//!
//! Small batches, per-sample LSH-sampled softmax updates, periodic hash-table
//! rebuilds, and a CPU cost model ([`asgd_gpusim::DeviceProfile::cpu_server`])
//! whose throughput scales with the Hogwild thread count. Numerically the
//! updates are applied sequentially (Hogwild with a small learning rate is
//! well-approximated by sequential application, and it keeps runs
//! deterministic); *time* is charged as if the threads ran in parallel.
//!
//! This module lives in `asgd-core` (ported from `asgd-slide`) so the LSH
//! crate can stay a leaf shared by the main trainer's sampled-softmax path —
//! which supersedes this per-sample engine for training at scale; what
//! remains here is the baseline's distinct *scenario*: per-sample updates,
//! activation-driven candidate queries, and the CPU cost model.

use crate::{MergeRecord, RunResult};
use asgd_data::{SampleStream, XmlDataset};
use asgd_gpusim::{Device, DeviceId, DeviceProfile, KernelKind};
use asgd_model::{eval, Mlp, MlpConfig};
use asgd_slide::LshIndex;

/// SLIDE hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SlideConfig {
    /// Mini-batch size (SLIDE thrives on small batches / many updates).
    pub batch_size: usize,
    /// LSH tables.
    pub l_tables: usize,
    /// Bits per table.
    pub k_bits: usize,
    /// Rebuild the hash tables every this many samples.
    pub rebuild_every_samples: usize,
    /// Hogwild worker threads (drives the simulated CPU throughput).
    pub threads: usize,
    /// Minimum active-set size: when the LSH buckets return fewer
    /// candidates, random negative classes are padded in (SLIDE's random
    /// sampling fallback). Without negatives, sampled softmax sees only
    /// positive classes and degenerates.
    pub min_active: usize,
    /// Maximum active-set size (caps per-sample cost in dense bucket
    /// regimes).
    pub max_active: usize,
    /// Learning rate.
    pub lr: f64,
    /// Hidden width (must match the GPU runs for comparability).
    pub hidden: usize,
    /// Record accuracy every this many samples (use the GPU mega-batch size
    /// so curves align).
    pub record_every_samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Stop at this simulated time (seconds), if set.
    pub time_limit: Option<f64>,
    /// Stop after this many samples, if set.
    pub sample_limit: Option<u64>,
    /// Evaluation chunk size.
    pub eval_chunk: usize,
}

impl SlideConfig {
    /// Defaults mirroring the SLIDE paper's configuration, scaled down.
    pub fn defaults(record_every_samples: usize) -> Self {
        SlideConfig {
            batch_size: 64,
            l_tables: 8,
            k_bits: 9,
            rebuild_every_samples: 4096,
            threads: 16,
            min_active: 24,
            max_active: 256,
            lr: 0.05,
            hidden: 128,
            record_every_samples,
            seed: 42,
            time_limit: None,
            sample_limit: None,
            eval_chunk: 256,
        }
    }
}

/// The SLIDE training engine.
#[derive(Debug, Clone)]
pub struct SlideTrainer {
    config: SlideConfig,
}

impl SlideTrainer {
    /// Creates a trainer; at least one stop limit must be set.
    pub fn new(config: SlideConfig) -> Self {
        assert!(
            config.time_limit.is_some() || config.sample_limit.is_some(),
            "set a time limit or a sample limit"
        );
        assert!(config.batch_size >= 1);
        Self { config }
    }

    /// Trains on `dataset`; returns records compatible with the GPU runs.
    pub fn run(&self, dataset: &XmlDataset) -> RunResult {
        let cfg = &self.config;
        let mconfig = MlpConfig {
            num_features: dataset.num_features,
            hidden: cfg.hidden,
            num_classes: dataset.num_labels,
        };
        let mut model = Mlp::init(&mconfig, cfg.seed);
        let mut lsh = LshIndex::new(cfg.l_tables, cfg.k_bits, cfg.hidden, cfg.seed ^ 0x51DE);
        lsh.rebuild(model.w2());
        let mut device = Device::new(
            DeviceId(0),
            DeviceProfile::cpu_server("slide-cpu", cfg.threads),
            cfg.seed,
        );
        let mut stream = SampleStream::new(dataset.train.len(), cfg.seed ^ 0xBEEF);
        let mut pad_rng =
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed ^ 0x9A9A);
        let mut records = Vec::new();
        let mut since_rebuild = 0usize;
        let mut since_record = 0usize;
        let mut merge_index = 0usize;
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0usize;
        let mut updates_in_interval = 0u64;

        'outer: loop {
            let ids = stream.take(cfg.batch_size);
            let x = dataset.train.features.select_rows(&ids);
            let h = model.hidden_forward(&x);
            let mut active_total = 0usize;
            for (r, &id) in ids.iter().enumerate() {
                let labels = &dataset.train.labels[id];
                if labels.is_empty() {
                    continue;
                }
                let mut active = lsh.query(h.row(r));
                // Cap dense-bucket regimes: keep a random subset of the LSH
                // candidates (true labels are re-added below regardless).
                if active.len() > cfg.max_active {
                    for i in 0..cfg.max_active {
                        let j = i + (rand::Rng::gen_range(&mut pad_rng, 0..active.len() - i));
                        active.swap(i, j);
                    }
                    active.truncate(cfg.max_active);
                }
                // SLIDE always includes the true labels in the active set.
                active.extend_from_slice(labels);
                active.sort_unstable();
                active.dedup();
                // Pad with random negatives up to the minimum active size —
                // sampled softmax needs negative classes to discriminate.
                let want = cfg.min_active.min(dataset.num_labels);
                while active.len() < want {
                    let c = rand::Rng::gen_range(&mut pad_rng, 0..dataset.num_labels) as u32;
                    if let Err(pos) = active.binary_search(&c) {
                        active.insert(pos, c);
                    }
                }
                active_total += active.len();
                let (idx, val) = x.row(r);
                loss_sum +=
                    model.train_sample_sampled(idx, val, h.row(r), labels, &active, cfg.lr as f32);
                loss_n += 1;
            }
            updates_in_interval += 1;

            // Charge the CPU cost: hidden forward on the batch + per-sample
            // sampled output work (forward + backward + update ≈ 6·|active|·h
            // flops — scattered column access, so it runs at the CPU's
            // *sparse* throughput) + touched-feature updates.
            let kinds = [
                KernelKind::SpMm {
                    nnz: x.nnz(),
                    n: cfg.hidden,
                },
                KernelKind::SpMm {
                    nnz: 3 * active_total,
                    n: cfg.hidden,
                },
                // LSH queries: L tables x K hyperplane projections of the
                // hidden activation, per sample.
                KernelKind::Gemm {
                    m: ids.len(),
                    k: cfg.hidden,
                    n: cfg.l_tables * cfg.k_bits,
                },
                KernelKind::Elementwise {
                    elems: x.nnz() * cfg.hidden / 4 + cfg.hidden * ids.len(),
                },
            ];
            device.execute_all(&kinds);

            since_rebuild += ids.len();
            if since_rebuild >= cfg.rebuild_every_samples {
                lsh.rebuild(model.w2());
                // Rebuild streams all neuron vectors through the hash planes.
                device.execute(KernelKind::Reduce {
                    elems: cfg.hidden * dataset.num_labels * cfg.l_tables / 8,
                });
                since_rebuild = 0;
            }

            since_record += ids.len();
            if since_record >= cfg.record_every_samples {
                since_record = 0;
                let accuracy = eval::top1_accuracy(
                    &model,
                    &dataset.test.features,
                    &dataset.test.labels,
                    cfg.eval_chunk,
                );
                records.push(MergeRecord {
                    merge_index,
                    sim_time: device.now().secs(),
                    epochs: stream.epochs(),
                    accuracy,
                    mean_loss: if loss_n == 0 {
                        0.0
                    } else {
                        loss_sum / loss_n as f64
                    },
                    batch_sizes: vec![cfg.batch_size as f64],
                    updates: vec![updates_in_interval],
                    perturbed: false,
                    merge_weights: vec![1.0],
                });
                merge_index += 1;
                loss_sum = 0.0;
                loss_n = 0;
                updates_in_interval = 0;
                if let Some(limit) = cfg.time_limit {
                    if device.now().secs() >= limit {
                        break 'outer;
                    }
                }
            }
            if let Some(limit) = cfg.sample_limit {
                if stream.drawn() >= limit {
                    break 'outer;
                }
            }
        }

        RunResult {
            name: "slide-cpu".into(),
            records,
            final_model: std::sync::Arc::new(model.into_flat()),
            trace: String::new(),
            final_state: None,
            chaos: Default::default(),
            sparse_merge: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_data::{generate, DatasetSpec};

    fn quick() -> SlideConfig {
        let mut c = SlideConfig::defaults(200);
        c.hidden = 12;
        c.batch_size = 16;
        c.sample_limit = Some(1200);
        c.rebuild_every_samples = 400;
        c.k_bits = 4;
        c.min_active = 12;
        c.eval_chunk = 64;
        c.lr = 0.2;
        c
    }

    #[test]
    fn slide_runs_and_records() {
        let ds = generate(&DatasetSpec::tiny("slide"), 4);
        let result = SlideTrainer::new(quick()).run(&ds);
        assert!(!result.records.is_empty());
        assert_eq!(result.name, "slide-cpu");
        for w in result.records.windows(2) {
            assert!(w[1].sim_time > w[0].sim_time);
        }
    }

    #[test]
    fn slide_learns_on_tiny_data() {
        let ds = generate(&DatasetSpec::tiny("slide2"), 5);
        let mut cfg = quick();
        cfg.sample_limit = Some(6000);
        // Accuracy of the untrained model (same init seed/hidden).
        let mconfig = asgd_model::MlpConfig {
            num_features: ds.num_features,
            hidden: cfg.hidden,
            num_classes: ds.num_labels,
        };
        let untrained = Mlp::init(&mconfig, cfg.seed);
        let base = eval::top1_accuracy(&untrained, &ds.test.features, &ds.test.labels, 64);
        let result = SlideTrainer::new(cfg).run(&ds);
        let best = result.best_accuracy();
        assert!(
            best > base + 0.1,
            "no improvement over untrained: {base} -> {best}"
        );
    }

    #[test]
    fn slide_is_deterministic() {
        let ds = generate(&DatasetSpec::tiny("slide3"), 6);
        let a = SlideTrainer::new(quick()).run(&ds);
        let b = SlideTrainer::new(quick()).run(&ds);
        assert_eq!(a.final_model, b.final_model);
    }

    #[test]
    fn more_threads_faster_simulated_time() {
        let ds = generate(&DatasetSpec::tiny("slide4"), 7);
        let run = |threads: usize| {
            let mut c = quick();
            c.threads = threads;
            SlideTrainer::new(c)
                .run(&ds)
                .records
                .last()
                .unwrap()
                .sim_time
        };
        assert!(run(16) < run(2), "threads should shorten simulated time");
    }

    #[test]
    fn slide_performs_many_more_updates_than_large_batch() {
        // The statistical-efficiency driver: with b = 16 SLIDE does ~12.5x
        // the updates of a b = 200 GPU batch per mega-batch of samples.
        let ds = generate(&DatasetSpec::tiny("slide5"), 8);
        let result = SlideTrainer::new(quick()).run(&ds);
        let updates: u64 = result.records.iter().map(|r| r.updates[0]).sum();
        assert!(updates >= 60, "updates {updates}");
    }

    #[test]
    #[should_panic(expected = "time limit or a sample limit")]
    fn missing_limits_panic() {
        let _ = SlideTrainer::new(SlideConfig::defaults(100));
    }
}
