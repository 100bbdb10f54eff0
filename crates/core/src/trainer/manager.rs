//! The GPU manager's state: one [`Replica`] per device doing the numeric work.
//!
//! In HeteroGPU the GPU manager coordinates transfers and launches CUDA
//! kernels; here a replica executes the *real* forward/backward/update math
//! on the CPU while the scheduler charges the corresponding kernels to the
//! simulated device (see [`super::Trainer`]). The scheduler decides a whole
//! mega-batch (or round) on virtual clocks first, then every live replica
//! runs its share on a scoped thread that borrows it for that phase alone —
//! so its operations are plain method calls, and the assignment of batch *k*
//! never depends on how fast the host runs a replica.

use crate::merging::NormEstimate;
use asgd_data::XmlDataset;
use asgd_model::{MlpConfig, Overlay, Workspace};
use asgd_slide::{CandidateSampler, LshIndex};
use asgd_sparse::CsrMatrix;
use asgd_tensor::kernels::{sum_sq_lanes, Widen};
use asgd_tensor::FlatRef;
use std::sync::Arc;

/// `Σ base²` and `Σ cur²` (in `f64`) over a set of parameters, and how many.
#[derive(Default)]
struct ChangedSq {
    base: f64,
    cur: f64,
    count: usize,
}

impl ChangedSq {
    /// Adds a run of parameters, `base` and `cur` at the same positions.
    fn run<E: Widen>(&mut self, base: &[E], cur: &[f32]) {
        self.base += sum_sq_lanes(base);
        self.cur += sum_sq_lanes(cur);
        self.count += cur.len();
    }

    /// Adds one parameter.
    fn one<E: Widen>(&mut self, base: E, cur: f32) {
        let (b, c) = (f64::from(base.widen()), f64::from(cur));
        self.base += b * b;
        self.cur += c * c;
        self.count += 1;
    }
}

/// One device's numeric state: the replica, an [`Overlay`] on the model it
/// last imported, plus everything a training step reuses — a [`Workspace`]
/// owned for the replica's lifetime, so steady-state steps re-allocate no
/// activation/gradient buffer.
///
/// With a `sampler`, training runs the LSH-sampled softmax. A replica never
/// hashes: the scheduler builds one index per model-sync point (run start,
/// [`Replica::set_model`], [`Replica::blend`]) from bytes identical on every
/// replica and the sampler adopts it, so a batch's candidate set depends
/// only on `(LSH seed, synced model, batch labels, sample_seed)` — never on
/// which replica trains it.
///
/// Every method that reads parameters takes `base`, the buffer of the last
/// [`Replica::set_model`] (or the start-up model the replica was built
/// on), where the overlay reads the rows it holds no slot for.
pub(super) struct Replica<'a> {
    /// The device this replica trains on.
    pub(super) gpu: usize,
    overlay: Overlay,
    dataset: &'a XmlDataset,
    ws: Workspace,
    sampler: Option<CandidateSampler>,
    /// The rows changed since the last import, ascending, as of the last
    /// [`Replica::collect_rows`].
    rows: Vec<u32>,
    /// Whether no step or import came after that.
    rows_current: bool,
    /// Reusable view of the batch's label slices: borrows from the shared
    /// dataset instead of cloning every label vector per batch.
    labels: Vec<&'a [u32]>,
    /// The batch's feature rows, selected into the same buffers every batch.
    x: CsrMatrix,
}

impl<'a> Replica<'a> {
    /// The replica of device `gpu`, trained as `overlay`, with the sampled
    /// softmax iff it has a `sampler`.
    pub(super) fn new(
        gpu: usize,
        overlay: Overlay,
        dataset: &'a XmlDataset,
        sampler: Option<CandidateSampler>,
    ) -> Self {
        let c = *overlay.config();
        Replica {
            gpu,
            ws: Workspace::new(&c),
            overlay,
            dataset,
            sampler,
            rows: Vec::new(),
            rows_current: false,
            labels: Vec::new(),
            x: CsrMatrix::zeros(0, c.num_features),
        }
    }

    /// One SGD step on the training samples `ids` at learning rate `lr`
    /// over `base`; returns the batch loss. `sample_seed` seeds the sampled
    /// softmax's candidate selection (ignored on the dense path).
    pub(super) fn train(
        &mut self,
        ids: &[usize],
        lr: f32,
        sample_seed: u64,
        base: FlatRef<'_>,
    ) -> f64 {
        self.rows_current = false;
        let train = &self.dataset.train;
        train.features.select_rows_into(ids, &mut self.x);
        self.labels.clear();
        self.labels
            .extend(ids.iter().map(|&i| train.labels[i].as_slice()));
        let (o, labels, ws, x) = (&mut self.overlay, &self.labels, &mut self.ws, &mut self.x);
        let out = match self.sampler.as_mut() {
            Some(sampler) => {
                let cand = sampler.select(labels, sample_seed);
                o.train_batch_sampled_ws(base, x, labels, cand, lr, ws)
            }
            None => o.train_batch_ws(base, x, labels, lr, ws),
        };
        out.loss
    }

    /// Collects the rows the overlay holds, ascending — `W₁` feature rows,
    /// then classes, in the sparse row space: a superset of the rows changed
    /// since the last import, which [`Replica::norm_estimate`] reads and a
    /// sparse merge ships, until the next step or import.
    pub(super) fn collect_rows(&mut self) {
        self.overlay.rows_into(&mut self.rows);
        self.rows_current = true;
    }

    /// The rows of the last [`Replica::collect_rows`].
    ///
    /// # Panics
    /// Panics when a step or an import came after it.
    pub(super) fn rows(&self) -> &[u32] {
        assert!(self.rows_current, "rows collected since the last step");
        &self.rows
    }

    /// The overlay, which the merge reads where its rows live.
    pub(super) fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Algorithm 2's regularization measure `Σw²`, estimated from the
    /// parameters this replica changed since it imported `base` (whose own
    /// `Σx²` is `s_base`): `b₁`, and the [`Replica::rows`] of `W₁` and of
    /// `W₂` with their `b₂` entries. Every other parameter still holds its
    /// `base` value bit for bit, so it cancels exactly.
    ///
    /// `base` must be the buffer of the last [`Replica::set_model`], not a
    /// blend target.
    pub(super) fn norm_estimate(&self, base: FlatRef<'_>, s_base: f64) -> NormEstimate {
        let changed = match base {
            FlatRef::F32(b) => self.changed_sq(b),
            FlatRef::Bf16(b) => self.changed_sq(b),
        };
        let len = self.overlay.config().param_len();
        NormEstimate::new(len, s_base, changed.count, changed.base, changed.cur)
    }

    fn changed_sq<E: Widen>(&self, base: &[E]) -> ChangedSq {
        let c: MlpConfig = *self.overlay.config();
        assert_eq!(base.len(), c.param_len(), "base/replica length");
        let (features, hidden) = (c.num_features, c.hidden);
        let [w1, b1, w2, b2] = c.block_ranges();
        let mut sq = ChangedSq::default();
        sq.run(&base[b1], self.overlay.b1());
        for &r in self.rows() {
            let r = r as usize;
            let (cur, cur_b2) = self.overlay.row(r);
            let at = match cur_b2 {
                None => w1.start + r * hidden,
                Some(_) => w2.start + (r - features) * hidden,
            };
            sq.run(&base[at..at + hidden], cur);
            if let Some(cur_b2) = cur_b2 {
                sq.one(base[b2.start + r - features], cur_b2);
            }
        }
        sq
    }

    /// The exact `Mlp::l2_norm_per_param` of the replica over `base`.
    pub(super) fn l2_norm_per_param(&self, base: FlatRef<'_>) -> f64 {
        self.overlay.l2_norm_per_param(base)
    }

    /// The whole model the replica stands for over `base`, materialized — a
    /// model-sized copy, for checks.
    #[cfg(test)]
    pub(super) fn materialize(&self, base: FlatRef<'_>) -> asgd_model::Mlp {
        self.overlay.materialize(base)
    }

    /// Re-bases the replica on the flat model `buf` (the delta baseline:
    /// nothing has changed afterwards) and adopts `index`, hashed from
    /// `buf`. The overlay forgets the rows its steps gave it and reads `buf`
    /// from then on, so `buf` must not change until the next import.
    pub(super) fn set_model(&mut self, buf: FlatRef<'_>, index: Option<&Arc<LshIndex>>) {
        self.rows_current = false;
        self.overlay.import(buf);
        self.adopt(index);
    }

    /// CROSSBOW-style partial pull: `w ← w + pull·(target − w)`. Blended
    /// replicas diverge; `index` was hashed from the shared `target`, so
    /// candidate selection stays replica-independent.
    ///
    /// # Panics
    /// Panics unless the overlay holds every row ([`Overlay::whole`]).
    pub(super) fn blend(&mut self, target: FlatRef<'_>, pull: f32, index: Option<&Arc<LshIndex>>) {
        self.rows_current = false;
        self.overlay.blend(target, pull);
        self.adopt(index);
    }

    /// Switches the sampler to the index of a model sync, releasing this
    /// replica's share of the previous one.
    fn adopt(&mut self, index: Option<&Arc<LshIndex>>) {
        if let (Some(sampler), Some(index)) = (self.sampler.as_mut(), index) {
            sampler.set_index(Arc::clone(index));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::arena::IndexArena;
    use super::super::SampledSoftmax;
    use super::*;
    use asgd_data::{generate, DatasetSpec};
    use asgd_model::Mlp;
    use asgd_tensor::{FlatVec, Precision};

    fn setup() -> (XmlDataset, Mlp) {
        let ds = generate(&DatasetSpec::tiny("m"), 3);
        let config = MlpConfig {
            num_features: ds.num_features,
            hidden: 8,
            num_classes: ds.num_labels,
        };
        (ds, Mlp::init(&config, 1))
    }

    /// `model` as a replica's base.
    fn base_of(model: &Mlp) -> FlatRef<'_> {
        FlatRef::F32(model.as_flat())
    }

    /// A dense-softmax replica on `model`.
    fn dense<'a>(ds: &'a XmlDataset, model: &Mlp) -> Replica<'a> {
        Replica::new(0, Overlay::dense(model.config(), base_of(model)), ds, None)
    }

    /// The model a replica stands for over `base`, exported at `precision`.
    fn gathered(r: &Replica, base: FlatRef<'_>, precision: Precision) -> FlatVec {
        let mut buf = FlatVec::empty(precision);
        r.materialize(base).write_flat_buf(&mut buf);
        buf
    }

    #[test]
    fn replica_trains_and_reports() {
        let (ds, model) = setup();
        let mut r = dense(&ds, &model);
        assert!(r.train(&[0, 1, 2], 0.1, 0, base_of(&model)) > 0.0);
        assert!(r.l2_norm_per_param(base_of(&model)) > 0.0);
    }

    #[test]
    fn set_model_roundtrips_through_gather() {
        let (ds, model) = setup();
        let target = FlatVec::F32(Mlp::init(model.config(), 99).to_flat());
        let mut r = dense(&ds, &model);
        r.train(&[0, 1, 2], 0.1, 0, base_of(&model));
        r.set_model(target.view(), None);
        assert_eq!(gathered(&r, target.view(), Precision::F32), target);
    }

    /// A bf16 gather/redistribute cycle keeps the replica at exactly one
    /// rounding of the model it was set to: `set_model` widens bf16 exactly,
    /// so the next gather reproduces the same bits.
    #[test]
    fn bf16_set_model_roundtrips_bit_exactly() {
        let (ds, model) = setup();
        let source = Mlp::init(model.config(), 99);
        let mut target = FlatVec::empty(Precision::Bf16);
        source.write_flat_buf(&mut target);
        let mut r = dense(&ds, &model);
        r.set_model(target.view(), None);
        assert_eq!(gathered(&r, target.view(), Precision::Bf16), target);
    }

    #[test]
    fn blend_moves_halfway() {
        let (ds, model) = setup();
        let start = model.to_flat();
        let mut r = Replica::new(
            0,
            Overlay::whole(model.config(), base_of(&model)),
            &ds,
            None,
        );
        r.blend(FlatRef::F32(&vec![0.0f32; start.len()]), 0.5, None);
        let flat = gathered(&r, base_of(&model), Precision::F32);
        for (i, want) in start.iter().enumerate() {
            assert!((flat.get_f32(i) - want * 0.5).abs() < 1e-6);
        }
    }

    /// Every batch's feature rows land in the replica's one CSR buffer: a
    /// batch no larger than an earlier one moves none of its arrays.
    #[test]
    fn batches_reuse_one_csr_buffer() {
        let (ds, model) = setup();
        let mut r = dense(&ds, &model);
        let ptrs = |r: &Replica| (r.x.indices().as_ptr(), r.x.values().as_ptr());
        let big: Vec<usize> = (0..12).collect();
        r.train(&big, 0.1, 0, base_of(&model));
        let grown = ptrs(&r);
        for ids in [&big[..5], &big[7..], &big[..]] {
            r.train(ids, 0.1, 0, base_of(&model));
            assert_eq!(ptrs(&r), grown, "batch {ids:?} reallocated");
            // The overlay renamed the columns to its slots: the rows match
            // the dataset's up to that renaming.
            let want = ds.train.features.select_rows(ids);
            assert_eq!((r.x.rows(), r.x.values()), (want.rows(), want.values()));
        }
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

    /// A sampled replica on `model`, sampling through `arena`.
    fn sampled<'a>(g: usize, ds: &'a XmlDataset, model: &Mlp, arena: &IndexArena) -> Replica<'a> {
        let o = Overlay::new(model.config(), base_of(model));
        Replica::new(g, o, ds, Some(arena.sampler()))
    }

    /// A stand-alone sampler hashed from a class-major `W₂` — what every replica
    /// used to build for itself.
    fn standalone(w2: asgd_tensor::MatRef<'_>) -> CandidateSampler {
        let c = sampled_cfg();
        let mut s = CandidateSampler::new(c.tables, c.k_bits, w2.cols(), c.neg_samples, c.seed);
        s.rebuild(w2);
        s
    }

    /// The scheduler's model sync: the index rebuilt from exactly the buffer
    /// every replica then imports.
    fn sync(arena: &mut IndexArena, replicas: &mut [Replica], buf: &FlatVec) {
        arena.sync(buf.view(), None);
        for r in replicas {
            r.set_model(buf.view(), Some(arena.live()));
        }
    }

    /// Two replicas given the same synced model and the same batch must
    /// produce bit-identical losses and replicas — this is exactly the
    /// property the device-loss re-dispatch path relies on: the surviving
    /// replica reproduces the dead one's candidate sets from the shared
    /// `(LSH seed, synced W₂, labels, sample_seed)` inputs alone.
    #[test]
    fn sampled_training_is_replica_independent() {
        let (ds, model) = setup();
        let synced = FlatVec::F32(Mlp::init(model.config(), 99).to_flat());
        let run = |model: Mlp| {
            let mut arena = index_arena(&model);
            let mut r = [sampled(0, &ds, &model, &arena)];
            r[0].train(&[1, 3], 0.1, 0x5EED, base_of(&model));
            sync(&mut arena, &mut r, &synced);
            let loss = r[0].train(&[0, 2, 4], 0.1, 0xB00F, synced.view());
            (
                loss.to_bits(),
                gathered(&r[0], synced.view(), Precision::F32),
            )
        };
        // Different pre-sync replicas: the sync point must erase the
        // difference entirely.
        assert_eq!(
            run(Mlp::init(model.config(), 1)),
            run(Mlp::init(model.config(), 2))
        );
    }

    /// What the merge and the gate read of a replica covers every change:
    /// after a sync and a sampled train step, its rows are ascending and
    /// scattering the materialized model's delta over them
    /// (`gather_delta` / `scatter_delta`, the wire format's reference) onto
    /// the synced base reconstructs that model bit for bit.
    #[test]
    fn rows_cover_every_change() {
        use asgd_collective::{gather_delta, scatter_delta, SparseLayout};
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let mut arena = index_arena(&model);
        let mut r = [sampled(0, &ds, &model, &arena)];
        sync(&mut arena, &mut r, &synced);
        let r = &mut r[0];
        r.train(&[0, 2, 4], 0.1, 0xB00F, synced.view());
        r.collect_rows();
        let flat = gathered(r, synced.view(), Precision::F32);
        let rows = r.rows();
        assert!(!rows.is_empty(), "a sampled batch must touch some rows");
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows not ascending");
        let layout = SparseLayout::new(config.num_features, config.hidden, config.num_classes);
        let mut payload = FlatVec::empty(Precision::F32);
        gather_delta(&layout, rows, &flat, &mut payload);
        let mut base = synced.clone();
        scatter_delta(&layout, rows, &payload, &mut base);
        assert_eq!(base, flat, "scatter over base != replica");
    }

    /// `set_model` is the delta baseline: straight after a sync a sampled
    /// replica holds no row, a dense one every class and no feature.
    #[test]
    fn set_model_clears_the_touched_rows() {
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let mut arena = index_arena(&model);
        let mut r = [sampled(0, &ds, &model, &arena), dense(&ds, &model)];
        for r in &mut r {
            r.train(&[0, 1], 0.1, 3, base_of(&model));
        }
        sync(&mut arena, &mut r, &synced);
        for r in &mut r {
            r.collect_rows();
        }
        assert!(r[0].rows().is_empty(), "sync must forget the touched rows");
        let classes: Vec<u32> = (0..config.num_classes as u32)
            .map(|c| c + config.num_features as u32)
            .collect();
        assert_eq!(r[1].rows(), classes, "a dense replica holds every class");
    }

    /// A blend pulls every parameter, so a CROSSBOW replica's rows are every
    /// row — no sparsity survives a CROSSBOW-style merge.
    #[test]
    fn blend_keeps_every_row() {
        let (ds, model) = setup();
        let config = *model.config();
        let target = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let mut arena = index_arena(&model);
        let o = Overlay::whole(&config, base_of(&model));
        let mut r = Replica::new(0, o, &ds, Some(arena.sampler()));
        arena.sync(target.view(), None);
        r.blend(target.view(), 0.5, Some(arena.live()));
        r.collect_rows();
        let total = config.num_features + config.num_classes;
        assert_eq!(r.rows(), (0..total as u32).collect::<Vec<_>>());
    }

    /// The scheduler-side build hashes the `W₂` region of the flat buffer it
    /// is about to ship — for a blend, the shared *target*, not any
    /// per-replica blended model: selecting through the synced index must
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
        arena.sync(FlatRef::F32(target_model.as_flat()), None);
        synced.set_index(arena.live().clone());
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
        arena.sync(bf16_target.view(), None);
        synced.set_index(arena.live().clone());
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

    /// The shared-index contract of a model sync: afterwards every replica's
    /// sampler holds the scheduler's live index itself (not a copy), the
    /// previous buffer is the scheduler's alone again, and selection equals
    /// what a stand-alone rebuild from the replica's own imported `W₂` would
    /// give — at both storage precisions.
    #[test]
    fn every_replica_adopts_the_schedulers_index() {
        let (ds, model) = setup();
        let n = 3;
        let mut arena = index_arena(&model);
        let mut replicas: Vec<Replica> = (0..n).map(|g| sampled(g, &ds, &model, &arena)).collect();
        assert_eq!(arena.holders(), n);
        let labels: Vec<&[u32]> = vec![&[1, 5], &[9]];
        for (round, precision) in [Precision::F32, Precision::Bf16].into_iter().enumerate() {
            let mut synced = FlatVec::empty(precision);
            Mlp::init(model.config(), 99 + round as u64).write_flat_buf(&mut synced);
            let previous = arena.live().clone();
            sync(&mut arena, &mut replicas, &synced);
            assert_eq!(arena.holders(), n, "{precision:?}: every replica adopted");
            assert_eq!(
                Arc::strong_count(&previous),
                2,
                "{precision:?}: the old buffer is back with the scheduler (+ this test)"
            );
            for r in &mut replicas {
                let mut reference = standalone(r.materialize(synced.view()).w2());
                let sampler = r.sampler.as_mut().unwrap();
                assert!(Arc::ptr_eq(sampler.index(), arena.live()));
                for seed in [0u64, 0xB00F] {
                    assert_eq!(
                        sampler.select(&labels, seed).to_vec(),
                        reference.select(&labels, seed),
                        "{precision:?} gpu {} seed {seed}",
                        r.gpu
                    );
                }
            }
        }
    }

    /// Device loss between two merges: the lost replica's batches move to a
    /// survivor, which selects bit-identical candidates from the index they
    /// were dispatched under. Dropping the lost replica releases its share,
    /// so only the live replicas hold the synced index and every later sync
    /// rebuilds the idle buffer in place.
    #[test]
    fn only_live_replicas_hold_the_index_after_a_loss() {
        let (ds, model) = setup();
        let mut arena = index_arena(&model);
        let mut replicas: Vec<Replica> = (0..3).map(|g| sampled(g, &ds, &model, &arena)).collect();
        let buf = |seed| FlatVec::F32(Mlp::init(model.config(), seed).to_flat());
        sync(&mut arena, &mut replicas, &buf(50));

        let labels: Vec<&[u32]> = [0usize, 2, 4]
            .iter()
            .map(|&i| ds.train.labels[i].as_slice())
            .collect();
        let mut lost = replicas.pop().unwrap();
        let on_lost = lost
            .sampler
            .as_mut()
            .unwrap()
            .select(&labels, 0xB00F)
            .to_vec();
        let survivor = replicas[0].sampler.as_mut().unwrap();
        assert_eq!(survivor.select(&labels, 0xB00F), on_lost);
        drop(lost);
        assert_eq!(arena.holders(), 2);

        let last = buf(52);
        for seed in [51, 52] {
            sync(&mut arena, &mut replicas, &buf(seed));
            assert_eq!(arena.holders(), 2, "only survivors hold the index");
        }
        for r in &mut replicas {
            let mut reference = standalone(r.materialize(last.view()).w2());
            let sampler = r.sampler.as_mut().unwrap();
            assert!(Arc::ptr_eq(sampler.index(), arena.live()));
            assert_eq!(
                sampler.select(&labels, 7).to_vec(),
                reference.select(&labels, 7)
            );
        }
    }

    /// How a reference replica trains and merges: which overlay the replica
    /// under test is, and whether both sample candidates.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        /// Sampled softmax, imports ([`Overlay::new`]).
        Sampled,
        /// Dense softmax, imports ([`Overlay::dense`]).
        Dense,
        /// CROSSBOW blends, sampled or dense steps ([`Overlay::whole`]).
        Crossbow { sampled: bool },
    }

    /// The reference a replica is held to: a plain [`Mlp`] driven through
    /// its public steps, `read_flat_buf` and `blend_from_flat_buf`, and the
    /// rows its steps touched since its last import.
    struct Reference {
        kind: Kind,
        mlp: Mlp,
        sampler: Option<CandidateSampler>,
        ws: Workspace,
        touched: Vec<bool>,
    }

    impl Reference {
        fn train(&mut self, ds: &XmlDataset, ids: &[usize], lr: f32, seed: u64) -> f64 {
            let x = ds.train.features.select_rows(ids);
            let labels: Vec<&[u32]> = ids.iter().map(|&i| ds.train.labels[i].as_slice()).collect();
            for &f in x.indices() {
                self.touched[f as usize] = true;
            }
            let features = self.mlp.config().num_features;
            match self.sampler.as_mut() {
                Some(sampler) => {
                    let cand = sampler.select(&labels, seed);
                    for &c in cand {
                        self.touched[features + c as usize] = true;
                    }
                    self.mlp
                        .train_batch_sampled_ws(&x, &labels, cand, lr, &mut self.ws)
                        .loss
                }
                None => self.mlp.train_batch_ws(&x, &labels, lr, &mut self.ws).loss,
            }
        }

        /// The rows the replica must report: the touched ones, and every row
        /// its kind holds in any case.
        fn rows(&self) -> Vec<u32> {
            let features = self.mlp.config().num_features;
            (0..self.touched.len())
                .filter(|&r| match self.kind {
                    Kind::Sampled => self.touched[r],
                    Kind::Dense => self.touched[r] || r >= features,
                    Kind::Crossbow { .. } => true,
                })
                .map(|r| r as u32)
                .collect()
        }

        /// The gate's estimate from the reference model, over the same
        /// parameters and in the same order as [`Replica::norm_estimate`].
        fn norm_estimate(&self, base: FlatRef<'_>, s_base: f64) -> NormEstimate {
            let wide = {
                let mut m = Mlp::zeros(self.mlp.config());
                m.read_flat_buf(base);
                m
            };
            let c = self.mlp.config();
            let (base, cur) = (wide.as_flat(), self.mlp.as_flat());
            let [w1, b1, w2, b2] = c.block_ranges();
            let mut sq = ChangedSq::default();
            sq.run(&base[b1.clone()], &cur[b1]);
            for r in self.rows() {
                let r = r as usize;
                if r < c.num_features {
                    let at = w1.start + r * c.hidden;
                    sq.run(&base[at..at + c.hidden], &cur[at..at + c.hidden]);
                } else {
                    let cl = r - c.num_features;
                    let at = w2.start + cl * c.hidden;
                    sq.run(&base[at..at + c.hidden], &cur[at..at + c.hidden]);
                    sq.one(base[b2.start + cl], cur[b2.start + cl]);
                }
            }
            NormEstimate::new(c.param_len(), s_base, sq.count, sq.base, sq.cur)
        }
    }

    /// What a replica and its reference report after an operation: the rows,
    /// the gate estimate, the exact norm and the whole model.
    type Report = (Vec<u32>, (u64, u64), u64, Vec<u32>);

    fn bits(m: &Mlp) -> Vec<u32> {
        m.as_flat().iter().map(|x| x.to_bits()).collect()
    }

    fn report(r: &mut Replica, base: FlatRef<'_>) -> Report {
        r.collect_rows();
        let est = r.norm_estimate(base, 12.5);
        (
            r.rows().to_vec(),
            (est.sq.to_bits(), est.err.to_bits()),
            r.l2_norm_per_param(base).to_bits(),
            bits(&r.materialize(base)),
        )
    }

    fn reference_report(r: &Reference, base: FlatRef<'_>) -> Report {
        let est = r.norm_estimate(base, 12.5);
        (
            r.rows(),
            (est.sq.to_bits(), est.err.to_bits()),
            r.mlp.l2_norm_per_param().to_bits(),
            bits(&r.mlp),
        )
    }

    /// Replicas against plain models, bit for bit: a replica of each kind —
    /// sampled, dense, and CROSSBOW with sampled and with dense steps — and
    /// a plain `Mlp` per replica, built on one start-up model, run random
    /// sequences of training steps (the same batch, rate and seed for both
    /// of a pair), imports of f32 and bf16 bases (CROSSBOW pairs blend
    /// toward them) and evictions, at 1, 2 and 8 threads, and at hidden 8
    /// and 13 (so rows are and are not whole lane rows). After every
    /// operation both of every pair report the same batch loss, rows,
    /// `NormEstimate`, exact norm and materialized model — and every thread
    /// count the same final models.
    #[test]
    fn replicas_are_plain_models_bit_for_bit() {
        for hidden in [8, 13] {
            let mut finals = Vec::new();
            for threads in [1, 2, 8] {
                asgd_tensor::parallel::override_threads(threads);
                finals.push(differential_sequence(hidden, 0x5EED ^ hidden as u64));
                asgd_tensor::parallel::override_threads(0);
            }
            assert!(finals.windows(2).all(|w| w[0] == w[1]), "hidden {hidden}");
        }
    }

    /// One random sequence of the differential; returns the survivors'
    /// final models.
    fn differential_sequence(hidden: usize, seed: u64) -> Vec<Vec<u32>> {
        let ds = generate(&DatasetSpec::tiny("overlay-differential"), 9);
        let config = MlpConfig {
            num_features: ds.num_features,
            hidden,
            num_classes: ds.num_labels,
        };
        let start = Mlp::init(&config, 1);
        let mut arena = index_arena(&start);
        let mut base = FlatVec::F32(start.to_flat());
        let kinds = [
            Kind::Sampled,
            Kind::Dense,
            Kind::Crossbow { sampled: true },
            Kind::Crossbow { sampled: false },
        ];
        let mut pairs: Vec<(Replica, Reference)> = kinds
            .iter()
            .enumerate()
            .map(|(g, &kind)| {
                let (overlay, sampled) = match kind {
                    Kind::Sampled => (Overlay::new(&config, base.view()), true),
                    Kind::Dense => (Overlay::dense(&config, base.view()), false),
                    Kind::Crossbow { sampled } => (Overlay::whole(&config, base.view()), sampled),
                };
                let sampler = || sampled.then(|| arena.sampler());
                let reference = Reference {
                    kind,
                    mlp: start.clone(),
                    sampler: sampler(),
                    ws: Workspace::new(&config),
                    touched: vec![false; config.num_features + config.num_classes],
                };
                (Replica::new(g, overlay, &ds, sampler()), reference)
            })
            .collect();
        let mut state = seed;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for step in 0..60 {
            let what = format!("hidden {hidden}, step {step}");
            match next(10) {
                // Train one pair on a random batch.
                0..=5 => {
                    let pair = next(pairs.len());
                    let ids: Vec<usize> = (0..1 + next(12)).map(|_| next(ds.train.len())).collect();
                    let lr = 0.05 + next(10) as f32 * 0.02;
                    let sample_seed = next(1 << 20) as u64;
                    let (replica, reference) = &mut pairs[pair];
                    let a = reference.train(&ds, &ids, lr, sample_seed);
                    let b = replica.train(&ids, lr, sample_seed, base.view());
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: loss");
                }
                // Sync a new model, at either precision: imported, or
                // blended toward by the CROSSBOW pairs.
                6 | 7 => {
                    let precision = [Precision::F32, Precision::Bf16][next(2)];
                    let mut fresh = FlatVec::empty(precision);
                    Mlp::init(&config, 100 + step as u64).write_flat_buf(&mut fresh);
                    base = fresh;
                    arena.sync(base.view(), None);
                    let pull = 0.25 + next(3) as f32 * 0.25;
                    for (replica, reference) in &mut pairs {
                        let index = Some(arena.live());
                        if let Some(s) = reference.sampler.as_mut() {
                            s.set_index(Arc::clone(arena.live()));
                        }
                        if let Kind::Crossbow { .. } = reference.kind {
                            replica.blend(base.view(), pull, index);
                            reference.mlp.blend_from_flat_buf(base.view(), pull);
                        } else {
                            replica.set_model(base.view(), index);
                            reference.mlp.read_flat_buf(base.view());
                            reference.touched.fill(false);
                        }
                    }
                }
                // Lose a device (never the last).
                8 if pairs.len() > 1 => {
                    pairs.remove(next(pairs.len()));
                    let samplers = pairs.iter().filter(|p| p.1.sampler.is_some()).count();
                    assert_eq!(arena.holders(), 2 * samplers, "{what}: holders");
                }
                _ => {}
            }
            for (replica, reference) in &mut pairs {
                let (gpu, kind) = (replica.gpu, reference.kind);
                let want = reference_report(reference, base.view());
                assert!(
                    want == report(replica, base.view()),
                    "{what}: gpu {gpu}, {kind:?}"
                );
            }
        }
        pairs
            .iter()
            .map(|(_, reference)| bits(&reference.mlp))
            .collect()
    }
}
