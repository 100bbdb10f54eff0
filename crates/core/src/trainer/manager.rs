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
use asgd_model::{Mlp, MlpConfig, Overlay, Workspace};
use asgd_slide::{CandidateSampler, LshIndex};
use asgd_sparse::CsrMatrix;
use asgd_tensor::kernels::{sum_sq_lanes, Widen};
use asgd_tensor::{FlatRef, FlatVec};
use std::sync::Arc;

/// Tracks which sparse rows (W1 feature rows first, then output-class
/// rows) an owned replica has dirtied since its last model sync — the rows
/// the perturbation gate's norm estimate reads (an overlay's slots are its
/// own record of them).
///
/// On the sampled-softmax path the set is *exact and free*: a training
/// step writes precisely the batch's CSR feature columns into `W₁` and an
/// update entry for **every** LSH candidate into `W₂`/`b₂` (even at zero
/// gradient), so marking `x.indices()` plus the candidate set reproduces
/// the touched-row set bit-for-bit. `b₁` updates densely every batch and
/// rides along in the delta's dense block instead. A dense step marks its
/// feature rows the same way; it writes every class row, which the
/// set does not record.
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

    /// Everything dirty — a blend pulls every parameter toward the target,
    /// so no sparsity survives it.
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

/// Where a replica's parameters live.
enum Model {
    /// A whole model of its own, trained in place, and the rows it dirtied
    /// since its last import: dense-softmax replicas (a dense step writes
    /// every class row) and CROSSBOW's (the blend moves every parameter).
    /// The dense merge reads it where it lives.
    Owned {
        mlp: Mlp,
        dirty: DirtyRows,
        /// Dense training touches every `W₂` row, so a dirty-row delta
        /// after a dense batch would silently under-report; this turns one
        /// into a loud failure instead of a wrong merge.
        dense_trained: bool,
    },
    /// A sampled replica under a rule that redistributes one model: the
    /// rows it changed since its import, over the import base it borrows
    /// call by call ([`Overlay`]).
    Overlay(Overlay),
}

/// One device's numeric state: the replica plus everything a training step
/// reuses — a [`Workspace`] owned for the replica's lifetime, so
/// steady-state steps re-allocate no activation/gradient buffer.
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
/// on): an overlay reads its untouched rows there, an owned model ignores
/// it.
pub(super) struct Replica<'a> {
    /// The device this replica trains on.
    pub(super) gpu: usize,
    model: Model,
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
    /// A replica that owns `mlp` (see [`Model::Owned`]).
    pub(super) fn owned(
        gpu: usize,
        mlp: Mlp,
        dataset: &'a XmlDataset,
        sampler: Option<CandidateSampler>,
    ) -> Self {
        let c = *mlp.config();
        let model = Model::Owned {
            mlp,
            dirty: DirtyRows::new(c.num_features, c.num_classes),
            dense_trained: false,
        };
        Self::with_model(gpu, &c, model, dataset, sampler)
    }

    /// A sampled replica that is an overlay on `base`, holding nothing of
    /// its own yet (see [`Model::Overlay`]).
    pub(super) fn overlay(
        gpu: usize,
        config: &MlpConfig,
        base: FlatRef<'_>,
        dataset: &'a XmlDataset,
        sampler: CandidateSampler,
    ) -> Self {
        let model = Model::Overlay(Overlay::new(config, base));
        Self::with_model(gpu, config, model, dataset, Some(sampler))
    }

    fn with_model(
        gpu: usize,
        c: &MlpConfig,
        model: Model,
        dataset: &'a XmlDataset,
        sampler: Option<CandidateSampler>,
    ) -> Self {
        Replica {
            gpu,
            ws: Workspace::new(c),
            model,
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
        let (labels, ws, x) = (&self.labels, &mut self.ws, &mut self.x);
        let out = match (&mut self.model, self.sampler.as_mut()) {
            (Model::Overlay(o), Some(sampler)) => {
                let cand = sampler.select(labels, sample_seed);
                o.train_batch_sampled_ws(base, x, labels, cand, lr, ws)
            }
            (Model::Overlay(_), None) => unreachable!("an overlay trains the sampled softmax"),
            (
                Model::Owned {
                    mlp,
                    dirty,
                    dense_trained,
                },
                sampler,
            ) => {
                // A step writes exactly its features' `W₁` rows and, sampled,
                // an update for every candidate class (even at zero
                // gradient); a dense step writes every class row.
                dirty.mark_features(x.indices());
                match sampler {
                    Some(sampler) => {
                        let cand = sampler.select(labels, sample_seed);
                        dirty.mark_classes(cand);
                        mlp.train_batch_sampled_ws(x, labels, cand, lr, ws)
                    }
                    None => {
                        *dense_trained = true;
                        mlp.train_batch_ws(x, labels, lr, ws)
                    }
                }
            }
        };
        out.loss
    }

    /// Collects the rows changed since the last import, ascending — `W₁`
    /// feature rows, then classes, in the sparse row space: what
    /// [`Replica::gather_delta`] exports and [`Replica::norm_estimate`]
    /// reads, until the next step or import.
    pub(super) fn collect_rows(&mut self) {
        match &self.model {
            Model::Owned { dirty, .. } => dirty.collect_into(&mut self.rows),
            Model::Overlay(o) => o.rows_into(&mut self.rows),
        }
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

    /// What the sparse merge reads instead of the replica's parameters:
    /// the delta payload over [`Replica::rows`] — the
    /// `asgd_collective::sparse` wire format — written into `payload`.
    pub(super) fn gather_delta(&self, payload: &mut FlatVec) {
        let rows = self.rows();
        match &self.model {
            Model::Owned {
                mlp, dense_trained, ..
            } => {
                assert!(
                    !dense_trained,
                    "sparse deltas require the sampled-softmax path \
                     (dense training dirties every W2 class row)"
                );
                mlp.write_delta_buf(rows, payload);
            }
            Model::Overlay(o) => o.write_delta_buf(rows, payload),
        }
    }

    /// Algorithm 2's regularization measure `Σw²`, estimated from the
    /// parameters this replica changed since it imported `base` (whose own
    /// `Σx²` is `s_base`): `b₁`, the [`Replica::rows`] of `W₁`, and those
    /// of `W₂` with their `b₂` entries — all of `W₂` and `b₂` on the dense
    /// path. Every other parameter still holds its `base` value bit for
    /// bit, so it cancels exactly.
    ///
    /// `base` must be the buffer of the last [`Replica::set_model`], not a
    /// blend target.
    pub(super) fn norm_estimate(&self, base: FlatRef<'_>, s_base: f64) -> NormEstimate {
        let changed = match base {
            FlatRef::F32(b) => self.changed_sq(b),
            FlatRef::Bf16(b) => self.changed_sq(b),
        };
        let len = self.param_len();
        NormEstimate::new(len, s_base, changed.count, changed.base, changed.cur)
    }

    fn changed_sq<E: Widen>(&self, base: &[E]) -> ChangedSq {
        let c = *self.config();
        assert_eq!(base.len(), c.param_len(), "base/replica length");
        let (features, hidden) = (c.num_features, c.hidden);
        let [w1, b1, w2, b2] = c.block_ranges();
        let row_range = |r: usize| {
            if r < features {
                w1.start + r * hidden..w1.start + (r + 1) * hidden
            } else {
                w2.start + (r - features) * hidden..w2.start + (r - features + 1) * hidden
            }
        };
        let mut sq = ChangedSq::default();
        match &self.model {
            Model::Owned { mlp, .. } => {
                let cur = mlp.as_flat();
                sq.run(&base[b1.clone()], &cur[b1]);
                let dense = self.sampler.is_none();
                if dense {
                    sq.run(&base[w2.start..b2.end], &cur[w2.start..b2.end]);
                }
                for &r in self.rows() {
                    let r = r as usize;
                    if r < features {
                        sq.run(&base[row_range(r)], &cur[row_range(r)]);
                    } else if !dense {
                        sq.run(&base[row_range(r)], &cur[row_range(r)]);
                        let b = b2.start + r - features;
                        sq.one(base[b], cur[b]);
                    }
                }
            }
            Model::Overlay(o) => {
                sq.run(&base[b1], o.b1());
                for &r in self.rows() {
                    let r = r as usize;
                    let (cur, cur_b2) = o.row(r);
                    sq.run(&base[row_range(r)], cur);
                    if let Some(cur_b2) = cur_b2 {
                        sq.one(base[b2.start + r - features], cur_b2);
                    }
                }
            }
        }
        sq
    }

    /// The exact [`Mlp::l2_norm_per_param`] of the replica over `base`.
    pub(super) fn l2_norm_per_param(&self, base: FlatRef<'_>) -> f64 {
        match &self.model {
            Model::Owned { mlp, .. } => mlp.l2_norm_per_param(),
            Model::Overlay(o) => o.l2_norm_per_param(base),
        }
    }

    fn config(&self) -> &MlpConfig {
        match &self.model {
            Model::Owned { mlp, .. } => mlp.config(),
            Model::Overlay(o) => o.config(),
        }
    }

    /// Parameters of the model the replica stands for.
    pub(super) fn param_len(&self) -> usize {
        self.config().param_len()
    }

    /// An owned replica's parameters, read in place by the dense merge.
    ///
    /// # Panics
    /// Panics on an overlay, which the merge reads through its delta.
    pub(super) fn owned_flat(&self) -> &[f32] {
        match &self.model {
            Model::Owned { mlp, .. } => mlp.as_flat(),
            Model::Overlay(_) => panic!("an overlay replica merges through its delta"),
        }
    }

    /// The whole model the replica stands for over `base`: an owned one
    /// as it is, an overlay materialized — a model-sized copy, for checks.
    #[cfg(test)]
    pub(super) fn materialize(&self, base: FlatRef<'_>) -> Mlp {
        match &self.model {
            Model::Owned { mlp, .. } => mlp.clone(),
            Model::Overlay(o) => o.materialize(base),
        }
    }

    /// Replaces the replica with the flat model `buf` (the delta baseline:
    /// nothing has changed afterwards) and adopts `index`, hashed from
    /// `buf`. An overlay forgets its rows and reads `buf` from then on, so
    /// `buf` must not change until the next import.
    pub(super) fn set_model(&mut self, buf: FlatRef<'_>, index: Option<&Arc<LshIndex>>) {
        self.rows_current = false;
        match &mut self.model {
            Model::Owned { mlp, dirty, .. } => {
                mlp.read_flat_buf(buf);
                dirty.clear();
            }
            Model::Overlay(o) => o.import(buf),
        }
        self.adopt(index);
    }

    /// CROSSBOW-style partial pull: `w ← w + pull·(target − w)`. Blended
    /// replicas diverge; `index` was hashed from the shared `target`, so
    /// candidate selection stays replica-independent.
    ///
    /// # Panics
    /// Panics on an overlay: a blend moves every parameter.
    pub(super) fn blend(&mut self, target: FlatRef<'_>, pull: f32, index: Option<&Arc<LshIndex>>) {
        self.rows_current = false;
        let Model::Owned { mlp, dirty, .. } = &mut self.model else {
            panic!("a blend moves every parameter: CROSSBOW replicas are owned");
        };
        mlp.blend_from_flat_buf(target, pull);
        dirty.mark_all();
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
    use asgd_tensor::Precision;

    fn setup() -> (XmlDataset, Mlp) {
        let ds = generate(&DatasetSpec::tiny("m"), 3);
        let config = MlpConfig {
            num_features: ds.num_features,
            hidden: 8,
            num_classes: ds.num_labels,
        };
        (ds, Mlp::init(&config, 1))
    }

    /// An owned replica's model.
    fn mlp<'r>(r: &'r Replica) -> &'r Mlp {
        match &r.model {
            Model::Owned { mlp, .. } => mlp,
            Model::Overlay(_) => panic!("an overlay owns no model"),
        }
    }

    /// An owned replica exported at `precision`.
    fn gathered(r: &Replica, precision: Precision) -> FlatVec {
        let mut buf = FlatVec::empty(precision);
        mlp(r).write_flat_buf(&mut buf);
        buf
    }

    /// The base an owned replica's parameter reads ignore.
    const NO_BASE: FlatRef<'static> = FlatRef::F32(&[]);

    #[test]
    fn replica_trains_and_reports() {
        let (ds, model) = setup();
        let mut r = Replica::owned(0, model, &ds, None);
        assert!(r.train(&[0, 1, 2], 0.1, 0, NO_BASE) > 0.0);
        assert!(mlp(&r).l2_norm_per_param() > 0.0);
    }

    #[test]
    fn set_model_roundtrips_through_gather() {
        let (ds, model) = setup();
        let target = FlatVec::F32(Mlp::init(model.config(), 99).to_flat());
        let mut r = Replica::owned(0, model, &ds, None);
        r.set_model(target.view(), None);
        assert_eq!(gathered(&r, Precision::F32), target);
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
        let mut r = Replica::owned(0, model, &ds, None);
        r.set_model(target.view(), None);
        assert_eq!(gathered(&r, Precision::Bf16), target);
    }

    #[test]
    fn blend_moves_halfway() {
        let (ds, model) = setup();
        let start = model.to_flat();
        let mut r = Replica::owned(0, model, &ds, None);
        r.blend(FlatRef::F32(&vec![0.0f32; start.len()]), 0.5, None);
        let flat = gathered(&r, Precision::F32);
        for (i, want) in start.iter().enumerate() {
            assert!((flat.get_f32(i) - want * 0.5).abs() < 1e-6);
        }
    }

    /// What the dense merge reads is the replica itself: the parameters it
    /// trained, in place, at the address they had before training — exactly
    /// what a stand-alone model trained on the same batch holds.
    #[test]
    fn the_replica_trains_in_place() {
        let (ds, model) = setup();
        let mut twin = model.clone();
        let mut tws = Workspace::new(twin.config());
        let mut r = Replica::owned(0, model, &ds, None);
        let ptr = mlp(&r).as_flat().as_ptr();
        let ids = [0usize, 1, 2];
        r.train(&ids, 0.1, 0, NO_BASE);
        let moved = mlp(&r).as_flat().as_ptr() != ptr;
        assert!(!moved, "training must not move the replica");
        let x = ds.train.features.select_rows(&ids);
        let labels: Vec<&[u32]> = ids.iter().map(|&i| ds.train.labels[i].as_slice()).collect();
        twin.train_batch_ws(&x, &labels, 0.1, &mut tws);
        assert_eq!(mlp(&r), &twin);
    }

    /// Every batch's feature rows land in the replica's one CSR buffer: a
    /// batch no larger than an earlier one moves none of its arrays.
    #[test]
    fn batches_reuse_one_csr_buffer() {
        let (ds, model) = setup();
        let mut r = Replica::owned(0, model, &ds, None);
        let ptrs = |r: &Replica| (r.x.indices().as_ptr(), r.x.values().as_ptr());
        let big: Vec<usize> = (0..12).collect();
        r.train(&big, 0.1, 0, NO_BASE);
        let grown = ptrs(&r);
        for ids in [&big[..5], &big[7..], &big[..]] {
            r.train(ids, 0.1, 0, NO_BASE);
            assert_eq!(ptrs(&r), grown, "batch {ids:?} reallocated");
            assert_eq!(r.x, ds.train.features.select_rows(ids));
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
            let mut r = [Replica::owned(0, model, &ds, Some(arena.sampler()))];
            sync(&mut arena, &mut r, &synced);
            let loss = r[0].train(&[0, 2, 4], 0.1, 0xB00F, NO_BASE);
            (loss.to_bits(), gathered(&r[0], Precision::F32))
        };
        // Different pre-sync replicas: the sync point must erase the
        // difference entirely.
        assert_eq!(
            run(Mlp::init(model.config(), 1)),
            run(Mlp::init(model.config(), 2))
        );
    }

    /// The delta's core contract: after a sync and a sampled train step,
    /// `gather_delta`'s `(rows, payload)` must (a) bit-match gathering the
    /// same rows out of the dense `gather_model` buffer and (b) reconstruct
    /// that dense buffer bit-exactly when scattered over the synced base —
    /// the exactness the whole sparse merge path rests on.
    #[test]
    fn delta_reconstructs_the_replica_bit_exactly() {
        use asgd_collective::{gather_delta, scatter_delta, SparseLayout};
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let mut arena = index_arena(&model);
        let mut r = [Replica::owned(0, model, &ds, Some(arena.sampler()))];
        sync(&mut arena, &mut r, &synced);
        let r = &mut r[0];
        r.train(&[0, 2, 4], 0.1, 0xB00F, NO_BASE);
        let mut payload = FlatVec::empty(Precision::F32);
        r.collect_rows();
        r.gather_delta(&mut payload);
        let flat = gathered(r, Precision::F32);
        let rows = r.rows();
        assert!(!rows.is_empty(), "a sampled batch must dirty some rows");
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows not ascending");
        let layout = SparseLayout::new(config.num_features, config.hidden, config.num_classes);
        let mut expect = FlatVec::empty(Precision::F32);
        gather_delta(&layout, rows, &flat, &mut expect);
        assert_eq!(payload, expect, "delta payload != dense gather");
        let mut base = synced.clone();
        scatter_delta(&layout, rows, &payload, &mut base);
        assert_eq!(base, flat, "scatter over base != replica");
    }

    /// `set_model` is the delta baseline: a delta straight after a sync
    /// reports no dirty rows and only the dense `b₁` block as payload.
    #[test]
    fn set_model_clears_the_dirty_set() {
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let mut arena = index_arena(&model);
        let mut r = [Replica::owned(0, model, &ds, Some(arena.sampler()))];
        r[0].train(&[0, 1], 0.1, 3, NO_BASE);
        sync(&mut arena, &mut r, &synced);
        let mut payload = FlatVec::empty(Precision::F32);
        r[0].collect_rows();
        r[0].gather_delta(&mut payload);
        assert!(r[0].rows().is_empty(), "sync must clear the dirty set");
        assert_eq!(payload.len(), config.hidden, "empty delta carries only b1");
        let [_, b1, ..] = config.block_ranges();
        for (k, i) in b1.enumerate() {
            assert_eq!(payload.get_f32(k).to_bits(), synced.get_f32(i).to_bits());
        }
    }

    /// A blend pulls every parameter, so the following delta must cover
    /// every row — no sparsity survives a CROSSBOW-style merge.
    #[test]
    fn blend_dirties_every_row() {
        let (ds, model) = setup();
        let config = *model.config();
        let target = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let mut arena = index_arena(&model);
        let mut r = Replica::owned(0, model, &ds, Some(arena.sampler()));
        arena.sync(target.view(), None);
        r.blend(target.view(), 0.5, Some(arena.live()));
        r.collect_rows();
        let total = config.num_features + config.num_classes;
        assert_eq!(r.rows().len(), total);
        assert_eq!(r.rows().first(), Some(&0));
        assert_eq!(r.rows().last(), Some(&((total - 1) as u32)));
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
        let mut replicas: Vec<Replica> = (0..n)
            .map(|g| Replica::owned(g, model.clone(), &ds, Some(arena.sampler())))
            .collect();
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
                let mut reference = standalone(mlp(r).w2());
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
        let mut replicas: Vec<Replica> = (0..3)
            .map(|g| Replica::owned(g, model.clone(), &ds, Some(arena.sampler())))
            .collect();
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

        for seed in [51, 52] {
            sync(&mut arena, &mut replicas, &buf(seed));
            assert_eq!(arena.holders(), 2, "only survivors hold the index");
        }
        for r in &mut replicas {
            let mut reference = standalone(mlp(r).w2());
            let sampler = r.sampler.as_mut().unwrap();
            assert!(Arc::ptr_eq(sampler.index(), arena.live()));
            assert_eq!(
                sampler.select(&labels, 7).to_vec(),
                reference.select(&labels, 7)
            );
        }
    }

    /// What one replica reports after a step of the differential: its
    /// delta's `(rows, payload)` bits at `precision`, its gate estimate,
    /// its exact norm and the whole model it stands for over `base`.
    fn report(r: &mut Replica, base: FlatRef<'_>, precision: Precision) -> impl PartialEq {
        r.collect_rows();
        let mut payload = FlatVec::empty(precision);
        r.gather_delta(&mut payload);
        let payload_bits: Vec<u32> = (0..payload.len())
            .map(|i| payload.get_f32(i).to_bits())
            .collect();
        let est = r.norm_estimate(base, 12.5);
        let model: Vec<u32> = r
            .materialize(base)
            .as_flat()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        (
            r.rows().to_vec(),
            payload_bits,
            (est.sq.to_bits(), est.err.to_bits()),
            r.l2_norm_per_param(base).to_bits(),
            model,
        )
    }

    /// Overlay replicas against owned ones, bit for bit: pairs of replicas
    /// built on one start-up model, one of each kind, run random sequences
    /// of training steps (the same batch, rate and seed for both of a
    /// pair), delta exports at f32 and bf16, imports of f32 and bf16 bases
    /// and evictions, at 1, 2 and 8 threads, and at hidden 8 and 13 (so
    /// rows are and are not whole lane rows). After every step both report
    /// the same batch loss, delta rows and payload, `NormEstimate`, exact
    /// norm and materialized model — and every thread count the same final
    /// models.
    #[test]
    fn overlay_replicas_are_owned_replicas_bit_for_bit() {
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
        let mut pairs: Vec<[Replica; 2]> = (0..3)
            .map(|g| {
                [
                    Replica::owned(g, start.clone(), &ds, Some(arena.sampler())),
                    Replica::overlay(g, &config, base.view(), &ds, arena.sampler()),
                ]
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
                    let [owned, overlay] = &mut pairs[pair];
                    let a = owned.train(&ids, lr, sample_seed, base.view());
                    let b = overlay.train(&ids, lr, sample_seed, base.view());
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: loss");
                }
                // Import a new base, at either precision.
                6 | 7 => {
                    let precision = [Precision::F32, Precision::Bf16][next(2)];
                    let mut fresh = FlatVec::empty(precision);
                    Mlp::init(&config, 100 + step as u64).write_flat_buf(&mut fresh);
                    base = fresh;
                    arena.sync(base.view(), None);
                    for r in pairs.iter_mut().flatten() {
                        r.set_model(base.view(), Some(arena.live()));
                    }
                }
                // Lose a device (never the last).
                8 if pairs.len() > 1 => {
                    pairs.remove(next(pairs.len()));
                    assert_eq!(arena.holders(), 2 * pairs.len(), "{what}: holders");
                }
                _ => {}
            }
            // Export every pair and compare.
            let precision = [Precision::F32, Precision::Bf16][next(2)];
            for [owned, overlay] in &mut pairs {
                let gpu = owned.gpu;
                let want = report(owned, base.view(), precision);
                assert!(
                    want == report(overlay, base.view(), precision),
                    "{what}: gpu {gpu} at {precision:?}"
                );
            }
        }
        pairs
            .iter()
            .map(|[_, overlay]| {
                overlay
                    .materialize(base.view())
                    .as_flat()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect()
    }
}
