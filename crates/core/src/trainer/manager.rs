//! The GPU manager: one worker thread per device doing the numeric work.
//!
//! In HeteroGPU the GPU manager coordinates transfers and launches CUDA
//! kernels; here it executes the *real* forward/backward/update math on the
//! CPU while the scheduler charges the corresponding kernels to the
//! simulated device (see [`super::Trainer`]). Keeping the cost accounting on
//! the scheduler is what makes dynamic dispatch deterministic: the
//! assignment of batch *k* depends only on virtual clocks, never on how fast
//! the host CPU happens to run a manager thread.

use super::messages::{FromManager, ToManager};
use asgd_data::XmlDataset;
use asgd_model::{Mlp, Workspace};
use asgd_slide::{CandidateSampler, LshIndex};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// Tracks which sparse rows (W1 feature rows first, then output-class
/// columns) this replica has dirtied since its last model sync — the
/// dirty-set side of the sparse delta merge.
///
/// On the sampled-softmax path the set is *exact and free*: a training
/// step writes precisely the batch's CSR feature columns into `W₁` and an
/// update entry for **every** LSH candidate into `W₂`/`b₂` (even at zero
/// gradient), so marking `x.indices()` plus the candidate set reproduces
/// the touched-row set bit-for-bit. `b₁` updates densely every batch and
/// rides along in the delta's dense block instead.
struct DirtyRows {
    features: usize,
    num_rows: usize,
    bits: Vec<u64>,
}

impl DirtyRows {
    fn new(features: usize, classes: usize) -> Self {
        let num_rows = features + classes;
        Self {
            features,
            num_rows,
            bits: vec![0; num_rows.div_ceil(64)],
        }
    }

    fn mark_features(&mut self, idx: &[u32]) {
        for &f in idx {
            let r = f as usize;
            debug_assert!(r < self.features);
            self.bits[r / 64] |= 1 << (r % 64);
        }
    }

    fn mark_classes(&mut self, cand: &[u32]) {
        let features = self.features;
        for &c in cand {
            let r = features + c as usize;
            debug_assert!(r < self.num_rows);
            self.bits[r / 64] |= 1 << (r % 64);
        }
    }

    /// Everything dirty — a `Blend` pulls every parameter toward the
    /// target, so no sparsity survives it.
    fn mark_all(&mut self) {
        self.bits.fill(!0u64);
    }

    fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Collects the dirty rows, sorted ascending, into a recycled buffer.
    fn collect_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for (w, &word) in self.bits.iter().enumerate() {
            let mut b = word;
            while b != 0 {
                let r = w * 64 + b.trailing_zeros() as usize;
                if r >= self.num_rows {
                    break;
                }
                out.push(r as u32);
                b &= b - 1;
            }
        }
    }
}

/// One device's numeric state: the replica plus everything a training step
/// reuses — a [`Workspace`] owned for the replica's lifetime, so
/// steady-state steps re-allocate no activation/gradient buffer.
///
/// With a `sampler`, training runs the LSH-sampled softmax. The manager
/// never hashes: the scheduler builds one index per model-sync point (run
/// start, `SetModel`, `Blend`) from bytes identical on every replica and the
/// sampler adopts it, so a batch's candidate set depends only on
/// `(LSH seed, synced model, batch labels, sample_seed)` — never on which
/// manager trains it.
struct Manager<'a> {
    gpu: usize,
    replica: Mlp,
    dataset: &'a XmlDataset,
    ws: Workspace,
    sampler: Option<CandidateSampler>,
    dirty: DirtyRows,
    /// Dense training touches every `W₂` column, so a dirty-row delta after
    /// a dense batch would silently under-report; the trainer only sends
    /// `GetDelta` on the sampled path, and this flag turns a violation into
    /// a loud failure instead of a wrong merge.
    dense_trained: bool,
    /// Reusable view of the batch's label slices: borrows from the shared
    /// dataset instead of cloning every label vector per batch.
    labels: Vec<&'a [u32]>,
}

impl<'a> Manager<'a> {
    fn new(
        gpu: usize,
        replica: Mlp,
        dataset: &'a XmlDataset,
        sampler: Option<CandidateSampler>,
    ) -> Self {
        let c = *replica.config();
        Manager {
            gpu,
            ws: Workspace::new(&c),
            replica,
            dataset,
            sampler,
            dirty: DirtyRows::new(c.num_features, c.num_classes),
            dense_trained: false,
            labels: Vec::new(),
        }
    }

    /// Executes one command and returns its reply; `None` on `Stop`.
    fn handle(&mut self, msg: ToManager) -> Option<FromManager> {
        let gpu = self.gpu;
        Some(match msg {
            ToManager::Train {
                batch_ids,
                lr,
                sample_seed,
            } => {
                let train = &self.dataset.train;
                let x = train.features.select_rows(&batch_ids);
                self.labels.clear();
                self.labels
                    .extend(batch_ids.iter().map(|&i| train.labels[i].as_slice()));
                let out = match self.sampler.as_mut() {
                    Some(sampler) => {
                        let cand = sampler.select(&self.labels, sample_seed);
                        // The candidate set *is* the exact W₂ touched set:
                        // every candidate column gets an update write.
                        self.dirty.mark_features(x.indices());
                        self.dirty.mark_classes(cand);
                        self.replica.train_batch_sampled_ws(
                            &x,
                            &self.labels,
                            cand,
                            lr,
                            &mut self.ws,
                        )
                    }
                    None => {
                        self.dense_trained = true;
                        self.replica
                            .train_batch_ws(&x, &self.labels, lr, &mut self.ws)
                    }
                };
                FromManager::Trained {
                    gpu,
                    loss: out.loss,
                    batch_size: out.batch_size,
                }
            }
            ToManager::GetModel { mut buf } => {
                self.replica.write_flat_buf(&mut buf);
                FromManager::Model {
                    gpu,
                    flat: buf,
                    norm_per_param: self.replica.l2_norm_per_param(),
                }
            }
            ToManager::SetModel { buf, index } => {
                self.replica.read_flat_buf(&buf);
                // The acknowledgement promises the payload is released.
                drop(buf);
                // A model sync is the delta baseline: nothing dirty yet.
                self.dirty.clear();
                self.adopt(index);
                FromManager::Redistributed
            }
            ToManager::Blend {
                target,
                pull,
                index,
            } => {
                // Blended replicas diverge per manager; the index was hashed
                // from the shared blend *target*, so candidate selection
                // stays replica-independent.
                self.adopt(index);
                self.replica.blend_from_flat_buf(&target, pull);
                drop(target);
                self.dirty.mark_all();
                FromManager::Redistributed
            }
            ToManager::GetDelta {
                mut rows,
                mut payload,
            } => {
                assert!(
                    !self.dense_trained,
                    "sparse deltas require the sampled-softmax path \
                     (dense training dirties every W2 column)"
                );
                self.dirty.collect_into(&mut rows);
                self.replica.write_delta_buf(&rows, &mut payload);
                FromManager::Delta {
                    gpu,
                    rows,
                    payload,
                    norm_per_param: self.replica.l2_norm_per_param(),
                }
            }
            ToManager::Stop => return None,
        })
    }

    /// Switches the sampler to the index that came with a model sync,
    /// releasing this manager's share of the previous one.
    fn adopt(&mut self, index: Option<Arc<LshIndex>>) {
        if let (Some(sampler), Some(index)) = (self.sampler.as_mut(), index) {
            sampler.set_index(index);
        }
    }
}

/// Runs the manager loop until `Stop` (or a disconnected channel). Intended
/// to run on a scoped thread borrowing the shared dataset.
pub(crate) fn run_manager(
    gpu: usize,
    replica: Mlp,
    dataset: &XmlDataset,
    rx: Receiver<ToManager>,
    tx: Sender<FromManager>,
    sampler: Option<CandidateSampler>,
) {
    let mut manager = Manager::new(gpu, replica, dataset, sampler);
    while let Ok(msg) = rx.recv() {
        let Some(reply) = manager.handle(msg) else {
            return;
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::arena::IndexArena;
    use super::super::SampledSoftmax;
    use super::*;
    use asgd_data::{generate, DatasetSpec};
    use asgd_model::MlpConfig;
    use asgd_tensor::{FlatVec, Precision};
    use std::sync::mpsc::channel;

    fn setup() -> (XmlDataset, Mlp) {
        let ds = generate(&DatasetSpec::tiny("m"), 3);
        let config = MlpConfig {
            num_features: ds.num_features,
            hidden: 8,
            num_classes: ds.num_labels,
        };
        (ds, Mlp::init(&config, 1))
    }

    /// Runs a manager on a scoped thread, feeding it `cmds`, returning all
    /// replies.
    fn drive(ds: &XmlDataset, model: Mlp, cmds: Vec<ToManager>) -> Vec<FromManager> {
        drive_mode(ds, model, cmds, None)
    }

    fn drive_mode(
        ds: &XmlDataset,
        model: Mlp,
        cmds: Vec<ToManager>,
        sampled: Option<CandidateSampler>,
    ) -> Vec<FromManager> {
        let (to_tx, to_rx) = channel();
        let (from_tx, from_rx) = channel();
        let mut replies = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| run_manager(0, model, ds, to_rx, from_tx, sampled));
            for c in cmds {
                to_tx.send(c).unwrap();
            }
            to_tx.send(ToManager::Stop).unwrap();
            while let Ok(r) = from_rx.recv() {
                replies.push(r);
            }
        });
        replies
    }

    #[test]
    fn manager_trains_and_reports() {
        let (ds, model) = setup();
        let replies = drive(
            &ds,
            model,
            vec![
                ToManager::Train {
                    batch_ids: vec![0, 1, 2],
                    lr: 0.1,
                    sample_seed: 0,
                },
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                },
            ],
        );
        assert_eq!(replies.len(), 2);
        match &replies[0] {
            FromManager::Trained {
                gpu,
                loss,
                batch_size,
            } => {
                assert_eq!(*gpu, 0);
                assert!(*loss > 0.0);
                assert_eq!(*batch_size, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &replies[1] {
            FromManager::Model {
                flat,
                norm_per_param,
                ..
            } => {
                assert!(!flat.is_empty());
                assert!(*norm_per_param > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_model_roundtrips_through_get() {
        let (ds, model) = setup();
        let target = FlatVec::F32(Mlp::init(model.config(), 99).to_flat());
        let replies = drive(
            &ds,
            model,
            vec![
                set_model(&target, None),
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                },
            ],
        );
        assert!(matches!(replies[0], FromManager::Redistributed));
        match &replies[1] {
            FromManager::Model { flat, .. } => assert_eq!(flat, &target),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A bf16 gather/redistribute cycle keeps the replica at exactly one
    /// rounding of the model it was set to: `SetModel` widens bf16 exactly,
    /// so the next gather reproduces the same bits.
    #[test]
    fn bf16_set_model_roundtrips_bit_exactly() {
        let (ds, model) = setup();
        let source = Mlp::init(model.config(), 99);
        let mut target = FlatVec::empty(Precision::Bf16);
        source.write_flat_buf(&mut target);
        let replies = drive(
            &ds,
            model,
            vec![
                set_model(&target, None),
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::Bf16),
                },
            ],
        );
        match &replies[1] {
            FromManager::Model { flat, .. } => assert_eq!(flat, &target),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn blend_moves_halfway() {
        let (ds, model) = setup();
        let start = model.to_flat();
        let target = Arc::new(FlatVec::F32(vec![0.0f32; start.len()]));
        let replies = drive(
            &ds,
            model,
            vec![
                ToManager::Blend {
                    target,
                    pull: 0.5,
                    index: None,
                },
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                },
            ],
        );
        match &replies[1] {
            FromManager::Model { flat, .. } => {
                for (i, want) in start.iter().enumerate() {
                    assert!((flat.get_f32(i) - want * 0.5).abs() < 1e-6);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The merge-protocol buffer cycle reuses one heap allocation: lend via
    /// `GetModel`, get it back via `Model`, share it via `SetModel` — by the
    /// time `Redistributed` arrives the manager's share is gone and the
    /// buffer is uniquely owned again — pointer-stable after the first fill,
    /// and the contents stay bit-identical to a freshly allocated `to_flat`.
    #[test]
    fn merge_protocol_recycles_one_buffer_without_reallocating() {
        let (ds, model) = setup();
        let mut twin = model.clone();
        let mut tws = Workspace::new(twin.config());
        let (to_tx, to_rx) = channel();
        let (from_tx, from_rx) = channel();
        std::thread::scope(|s| {
            s.spawn(|| run_manager(0, model, &ds, to_rx, from_tx, None));

            // First round trip sizes the buffer (the one allowed allocation).
            to_tx
                .send(ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                })
                .unwrap();
            let buf = match from_rx.recv().unwrap() {
                FromManager::Model { flat, .. } => flat,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(buf, FlatVec::F32(twin.to_flat()));
            let ptr = buf.as_ptr_addr();

            // Redistribute and train, then gather again with the same buffer.
            let shared = Arc::new(buf);
            to_tx
                .send(ToManager::SetModel {
                    buf: Arc::clone(&shared),
                    index: None,
                })
                .unwrap();
            assert!(matches!(
                from_rx.recv().unwrap(),
                FromManager::Redistributed
            ));
            let buf = Arc::try_unwrap(shared).expect("share dropped before the acknowledgement");
            assert_eq!(buf.as_ptr_addr(), ptr);
            let batch_ids = vec![0usize, 1, 2];
            to_tx
                .send(ToManager::Train {
                    batch_ids: batch_ids.clone(),
                    lr: 0.1,
                    sample_seed: 0,
                })
                .unwrap();
            let _ = from_rx.recv().unwrap();
            to_tx.send(ToManager::GetModel { buf }).unwrap();
            let buf = match from_rx.recv().unwrap() {
                FromManager::Model { flat, .. } => flat,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(
                buf.as_ptr_addr(),
                ptr,
                "steady-state gather must not realloc"
            );

            // Replay the same step on the twin: the recycled buffer holds
            // exactly what a fresh allocation would.
            let x = ds.train.features.select_rows(&batch_ids);
            let labels: Vec<&[u32]> = batch_ids
                .iter()
                .map(|&i| ds.train.labels[i].as_slice())
                .collect();
            twin.train_batch_ws(&x, &labels, 0.1, &mut tws);
            assert_eq!(buf, FlatVec::F32(twin.to_flat()));

            to_tx.send(ToManager::Stop).unwrap();
        });
    }

    #[test]
    fn disconnected_channel_terminates_manager() {
        let (ds, model) = setup();
        let (to_tx, to_rx) = channel::<ToManager>();
        let (from_tx, _from_rx) = channel();
        std::thread::scope(|s| {
            s.spawn(|| run_manager(0, model, &ds, to_rx, from_tx, None));
            drop(to_tx);
        });
    }

    fn sampled_cfg() -> SampledSoftmax {
        SampledSoftmax {
            tables: 4,
            k_bits: 5,
            neg_samples: 8,
            seed: 7,
        }
    }

    /// The scheduler's side of a sampled run: the index arena over the
    /// start-up model.
    fn index_arena(model: &Mlp) -> IndexArena {
        IndexArena::new(&sampled_cfg(), model)
    }

    /// A stand-alone sampler hashed from a dense `W₂` — what every manager
    /// used to build for itself.
    fn standalone(w2: &asgd_tensor::Matrix) -> CandidateSampler {
        let c = sampled_cfg();
        let mut s = CandidateSampler::new(c.tables, c.k_bits, w2.rows(), c.neg_samples, c.seed);
        s.rebuild(w2);
        s
    }

    /// The `SetModel` the scheduler sends: with an arena, the index synced
    /// from exactly the buffer being shipped.
    fn set_model(buf: &FlatVec, arena: Option<&mut IndexArena>) -> ToManager {
        ToManager::SetModel {
            buf: Arc::new(buf.clone()),
            index: arena.map(|a| a.sync(buf)),
        }
    }

    /// Two managers given the same synced model and the same `Train` message
    /// must produce bit-identical losses and replicas — this is exactly the
    /// property the device-loss re-dispatch path relies on: the surviving
    /// manager reproduces the dead replica's candidate sets from the shared
    /// `(LSH seed, synced W₂, labels, sample_seed)` inputs alone.
    #[test]
    fn sampled_training_is_replica_independent() {
        let (ds, model) = setup();
        let synced = FlatVec::F32(Mlp::init(model.config(), 99).to_flat());
        let run = |model: Mlp| {
            let mut arena = index_arena(&model);
            let sampler = arena.sampler();
            drive_mode(
                &ds,
                model,
                vec![
                    set_model(&synced, Some(&mut arena)),
                    ToManager::Train {
                        batch_ids: vec![0, 2, 4],
                        lr: 0.1,
                        sample_seed: 0xB00F,
                    },
                    ToManager::GetModel {
                        buf: FlatVec::empty(Precision::F32),
                    },
                ],
                Some(sampler),
            )
        };
        // Different pre-sync replicas: the sync point must erase the
        // difference entirely.
        let a = run(Mlp::init(model.config(), 1));
        let b = run(Mlp::init(model.config(), 2));
        let loss_of = |r: &[FromManager]| match &r[1] {
            FromManager::Trained { loss, .. } => loss.to_bits(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(loss_of(&a), loss_of(&b));
        let flat_of = |r: &[FromManager]| match &r[2] {
            FromManager::Model { flat, .. } => flat.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(flat_of(&a), flat_of(&b));
    }

    /// The delta protocol's core contract: after a sync and a sampled train
    /// step, `GetDelta`'s `(rows, payload)` must (a) bit-match gathering the
    /// same rows out of the dense `GetModel` buffer and (b) reconstruct that
    /// dense buffer bit-exactly when scattered over the synced base — the
    /// exactness the whole sparse merge path rests on.
    #[test]
    fn delta_reconstructs_the_replica_bit_exactly() {
        use asgd_collective::{gather_delta, scatter_delta, SparseLayout};
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let mut arena = index_arena(&model);
        let sampler = arena.sampler();
        let replies = drive_mode(
            &ds,
            model,
            vec![
                set_model(&synced, Some(&mut arena)),
                ToManager::Train {
                    batch_ids: vec![0, 2, 4],
                    lr: 0.1,
                    sample_seed: 0xB00F,
                },
                ToManager::GetDelta {
                    rows: Vec::new(),
                    payload: FlatVec::empty(Precision::F32),
                },
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                },
            ],
            Some(sampler),
        );
        let (rows, payload) = match &replies[2] {
            FromManager::Delta { rows, payload, .. } => (rows, payload),
            other => panic!("unexpected {other:?}"),
        };
        let flat = match &replies[3] {
            FromManager::Model { flat, .. } => flat,
            other => panic!("unexpected {other:?}"),
        };
        assert!(!rows.is_empty(), "a sampled batch must dirty some rows");
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows not ascending");
        let layout = SparseLayout::new(config.num_features, config.hidden, config.num_classes);
        let mut expect = FlatVec::empty(Precision::F32);
        gather_delta(&layout, rows, flat, &mut expect);
        assert_eq!(payload, &expect, "delta payload != dense gather");
        let mut base = synced.clone();
        scatter_delta(&layout, rows, payload, &mut base);
        assert_eq!(&base, flat, "scatter over base != replica");
    }

    /// `SetModel` is the delta baseline: a `GetDelta` straight after a sync
    /// reports no dirty rows and only the dense `b₁` block as payload.
    #[test]
    fn set_model_clears_the_dirty_set() {
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let mut arena = index_arena(&model);
        let sampler = arena.sampler();
        let replies = drive_mode(
            &ds,
            model,
            vec![
                ToManager::Train {
                    batch_ids: vec![0, 1],
                    lr: 0.1,
                    sample_seed: 3,
                },
                set_model(&synced, Some(&mut arena)),
                ToManager::GetDelta {
                    rows: Vec::new(),
                    payload: FlatVec::empty(Precision::F32),
                },
            ],
            Some(sampler),
        );
        let (rows, payload) = match &replies[2] {
            FromManager::Delta { rows, payload, .. } => (rows, payload),
            other => panic!("unexpected {other:?}"),
        };
        assert!(rows.is_empty(), "sync must clear the dirty set");
        assert_eq!(payload.len(), config.hidden, "empty delta carries only b1");
        let b1_off = config.num_features * config.hidden;
        for k in 0..config.hidden {
            assert_eq!(
                payload.get_f32(k).to_bits(),
                synced.get_f32(b1_off + k).to_bits()
            );
        }
    }

    /// A `Blend` pulls every parameter, so the following delta must cover
    /// every row — no sparsity survives a CROSSBOW-style merge.
    #[test]
    fn blend_dirties_every_row() {
        let (ds, model) = setup();
        let config = *model.config();
        let target = Arc::new(FlatVec::F32(Mlp::init(&config, 99).to_flat()));
        let mut arena = index_arena(&model);
        let sampler = arena.sampler();
        let index = Some(arena.sync(&target));
        let replies = drive_mode(
            &ds,
            model,
            vec![
                ToManager::Blend {
                    target,
                    pull: 0.5,
                    index,
                },
                ToManager::GetDelta {
                    rows: Vec::new(),
                    payload: FlatVec::empty(Precision::F32),
                },
            ],
            Some(sampler),
        );
        let rows = match &replies[1] {
            FromManager::Delta { rows, .. } => rows,
            other => panic!("unexpected {other:?}"),
        };
        let total = config.num_features + config.num_classes;
        assert_eq!(rows.len(), total);
        assert_eq!(rows.first(), Some(&0));
        assert_eq!(rows.last(), Some(&((total - 1) as u32)));
    }

    /// The scheduler-side build hashes the `W₂` region of the flat buffer it
    /// is about to ship — for a `Blend`, the shared *target*, not any
    /// per-manager blended replica: selecting through the synced index must
    /// match selecting after a direct rebuild from the target's dense `W₂`,
    /// for f32 and (exactly widened) bf16 targets alike.
    #[test]
    fn blend_rebuild_reads_the_target_w2_region() {
        let (_ds, model) = setup();
        let target_model = Mlp::init(model.config(), 99);
        let mut arena = index_arena(&model);
        let mut synced = arena.sampler();
        let labels: Vec<&[u32]> = vec![&[1, 5], &[9]];

        // f32 target.
        synced.set_index(arena.sync(&FlatVec::F32(target_model.to_flat())));
        let mut reference = standalone(target_model.w2());
        for seed in [0u64, 42, 0xB00F] {
            assert_eq!(
                synced.select(&labels, seed).to_vec(),
                reference.select(&labels, seed),
                "f32 target rebuild diverged at seed {seed}"
            );
        }

        // bf16 target: widening is exact, so the tables must match a
        // rebuild from the widened replica's dense W₂.
        let mut bf16_target = FlatVec::empty(Precision::Bf16);
        target_model.write_flat_buf(&mut bf16_target);
        synced.set_index(arena.sync(&bf16_target));
        let mut widened = model.clone();
        widened.read_flat_buf(&bf16_target);
        let mut reference = standalone(widened.w2());
        for seed in [0u64, 42] {
            assert_eq!(
                synced.select(&labels, seed).to_vec(),
                reference.select(&labels, seed),
                "bf16 target rebuild diverged at seed {seed}"
            );
        }
    }

    /// The shared-index contract of a `SetModel` sync: afterwards every
    /// manager's sampler holds the scheduler's live index itself (not a
    /// copy), the previous buffer is the scheduler's alone again, and
    /// selection equals what a stand-alone rebuild from the manager's own
    /// imported `W₂` would give — at both storage precisions.
    #[test]
    fn every_manager_adopts_the_schedulers_index() {
        let (ds, model) = setup();
        let n = 3;
        let mut arena = index_arena(&model);
        let mut managers: Vec<Manager> = (0..n)
            .map(|g| Manager::new(g, model.clone(), &ds, Some(arena.sampler())))
            .collect();
        assert_eq!(arena.holders(), n);
        let labels: Vec<&[u32]> = vec![&[1, 5], &[9]];
        for (round, precision) in [Precision::F32, Precision::Bf16].into_iter().enumerate() {
            let mut synced = FlatVec::empty(precision);
            Mlp::init(model.config(), 99 + round as u64).write_flat_buf(&mut synced);
            let previous = arena.live().clone();
            let index = arena.sync(&synced);
            for m in &mut managers {
                let msg = ToManager::SetModel {
                    buf: Arc::new(synced.clone()),
                    index: Some(index.clone()),
                };
                assert!(matches!(m.handle(msg), Some(FromManager::Redistributed)));
            }
            drop(index);
            assert_eq!(arena.holders(), n, "{precision:?}: every manager adopted");
            assert_eq!(
                Arc::strong_count(&previous),
                2,
                "{precision:?}: the old buffer is back with the scheduler (+ this test)"
            );
            for m in &mut managers {
                let mut reference = standalone(m.replica.w2());
                let sampler = m.sampler.as_mut().unwrap();
                assert!(Arc::ptr_eq(sampler.index(), arena.live()));
                for seed in [0u64, 0xB00F] {
                    assert_eq!(
                        sampler.select(&labels, seed).to_vec(),
                        reference.select(&labels, seed),
                        "{precision:?} gpu {} seed {seed}",
                        m.gpu
                    );
                }
            }
        }
    }

    /// Device loss between two merges: the lost manager keeps the index of
    /// the sync it last saw, so a batch re-dispatched to a survivor inside
    /// that mega-batch re-selects bit-identical candidates; the following
    /// syncs reach survivors only, and rebuilding the buffer the lost
    /// manager still holds never writes under it.
    #[test]
    fn lost_manager_keeps_its_index_and_survivors_reselect_identically() {
        let (ds, model) = setup();
        let mut arena = index_arena(&model);
        let mut managers: Vec<Manager> = (0..3)
            .map(|g| Manager::new(g, model.clone(), &ds, Some(arena.sampler())))
            .collect();
        let sync = |arena: &mut IndexArena, managers: &mut [Manager], seed: u64| {
            let buf = FlatVec::F32(Mlp::init(model.config(), seed).to_flat());
            let index = arena.sync(&buf);
            for m in managers {
                m.handle(ToManager::SetModel {
                    buf: Arc::new(buf.clone()),
                    index: Some(index.clone()),
                });
            }
        };
        sync(&mut arena, &mut managers, 50);

        // Manager 2 trains a batch, then its device is lost; the scheduler
        // re-dispatches the same ids (hence the same sample seed) to 0.
        let labels: Vec<&[u32]> = [0usize, 2, 4]
            .iter()
            .map(|&i| ds.train.labels[i].as_slice())
            .collect();
        let mut lost = managers.pop().unwrap();
        let on_lost = lost
            .sampler
            .as_mut()
            .unwrap()
            .select(&labels, 0xB00F)
            .to_vec();
        let survivor = managers[0].sampler.as_mut().unwrap();
        assert_eq!(survivor.select(&labels, 0xB00F), on_lost);

        // Next merge: survivors only. The lost manager's share stays on the
        // buffer that just went idle.
        sync(&mut arena, &mut managers, 51);
        assert_eq!(arena.holders(), 2, "only survivors adopt");
        let lost_index = lost.sampler.as_ref().unwrap().index().clone();
        assert!(!Arc::ptr_eq(&lost_index, arena.live()));

        // The merge after that rebuilds the buffer the lost manager still
        // holds: it must get a private copy, not a rewrite.
        sync(&mut arena, &mut managers, 52);
        assert_eq!(arena.holders(), 2);
        assert!(!Arc::ptr_eq(&lost_index, arena.live()));
        let lost_sampler = lost.sampler.as_mut().unwrap();
        assert_eq!(lost_sampler.select(&labels, 0xB00F), on_lost);
        for m in &mut managers {
            let mut reference = standalone(m.replica.w2());
            let sampler = m.sampler.as_mut().unwrap();
            assert!(Arc::ptr_eq(sampler.index(), arena.live()));
            assert_eq!(
                sampler.select(&labels, 7).to_vec(),
                reference.select(&labels, 7)
            );
        }
    }
}
