//! A replica as an overlay on the model it imported.
//!
//! Between two imports a training step writes `b₁`, the `W₁` rows of its
//! batch's features and the output rows it reads — a sampled step its
//! candidate classes' `W₂` rows and `b₂` entries, a dense step every class
//! — and nothing else. An [`Overlay`] holds those: one `hidden`-long slot
//! per `W₁` row or class (a class slot with its `b₂` entry), and `b₁`
//! whole. Every other parameter is read from the **base**, the buffer the
//! replica last imported, which the caller lends to every call and must not
//! change between an import and the next merge.
//!
//! Which rows have a slot is fixed when the overlay is built:
//! - [`Overlay::new`] (sampled softmax) holds the rows its steps touched;
//! - [`Overlay::dense`] (dense softmax) holds its touched `W₁` rows and
//!   every class, slot = class, refilled from the base at each import, so
//!   the output layer is one contiguous `classes × hidden` block;
//! - [`Overlay::whole`] (CROSSBOW) holds every row, slot = row, filled once
//!   when it is built; it never imports, it [`Overlay::blend`]s.
//!
//! A `W₁` slot is filled from the base (widened exactly at bf16) the first
//! time a step selects its row, before the step reads it, so the step reads
//! the values an owned copy of the base would hold. The step itself is the
//! model's: [`crate::Mlp::train_batch_sampled_ws`]'s or
//! [`crate::Mlp::train_batch_ws`]'s kernels over the slots, with the
//! batch's feature ids and the candidate list renamed to slot ids, every
//! per-element FMA chain unchanged — so an overlay trains bit for bit like
//! an owned replica. The merge reads it where its rows live
//! ([`Overlay::run_at`]).

use crate::mlp::{Mlp, MlpConfig, Params, ParamsMut, TrainOutput};
use crate::Workspace;
use asgd_sparse::CsrMatrix;
use asgd_tensor::kernels::{sum_sq_lanes, SqLanes, Widen};
use asgd_tensor::{pages, FlatRef, MatRef};

/// The map entry of a row the overlay holds no slot for: read the base.
const BASE: u32 = u32::MAX;

/// The parameters a replica changed since its last import, over a base it
/// does not own. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Overlay {
    config: MlpConfig,
    /// Whether every `W₁` row has a slot, slot = feature (CROSSBOW).
    whole_w1: bool,
    /// Whether every class has a slot, slot = class (dense softmax,
    /// CROSSBOW).
    whole_w2: bool,
    /// Per row of the sparse row space — `W₁` feature rows, then classes —
    /// the slot that holds it, or [`BASE`].
    map: Vec<u32>,
    /// The feature of each `W₁` slot, in slot order.
    features: Vec<u32>,
    /// The class of each class slot, in slot order.
    classes: Vec<u32>,
    /// `W₁` slots, `features.len() × hidden`.
    w1: Vec<f32>,
    /// `b₁`, whole: every step writes it.
    b1: Vec<f32>,
    /// Class slots' `W₂` rows, `classes.len() × hidden`.
    w2: Vec<f32>,
    /// Class slots' `b₂` entries.
    b2: Vec<f32>,
    /// The current step's candidates as class slots.
    cand_slots: Vec<u32>,
}

impl Overlay {
    /// A sampled-softmax replica's overlay on `base`, holding nothing of its
    /// own but `b₁`.
    ///
    /// # Panics
    /// Panics when `base` is not a model of `config`'s architecture.
    pub fn new(config: &MlpConfig, base: FlatRef<'_>) -> Self {
        Self::build(config, false, false, base)
    }

    /// A dense-softmax replica's overlay on `base`: `b₁` and every class.
    ///
    /// # Panics
    /// Panics when `base` is not a model of `config`'s architecture.
    pub fn dense(config: &MlpConfig, base: FlatRef<'_>) -> Self {
        Self::build(config, false, true, base)
    }

    /// A CROSSBOW replica's overlay: every row of `base`, copied.
    ///
    /// # Panics
    /// Panics when `base` is not a model of `config`'s architecture.
    pub fn whole(config: &MlpConfig, base: FlatRef<'_>) -> Self {
        Self::build(config, true, true, base)
    }

    /// Reserves every slot buffer whole, on the caller's thread: slots are
    /// appended in place and never move, and a page no slot reached is never
    /// touched. A block held whole is written whole, in huge pages
    /// ([`pages::zeroed`]).
    fn build(config: &MlpConfig, whole_w1: bool, whole_w2: bool, base: FlatRef<'_>) -> Self {
        let [w1, _, w2, _] = config.block_ranges();
        let (features, classes) = (config.num_features, config.num_classes);
        let slots = |whole: bool, len: usize| match whole {
            true => pages::zeroed(len),
            false => Vec::with_capacity(len),
        };
        let ids = |whole: bool, n: usize| match whole {
            true => (0..n as u32).collect(),
            false => Vec::with_capacity(n),
        };
        let mut o = Overlay {
            config: *config,
            whole_w1,
            whole_w2,
            map: vec![BASE; features + classes],
            features: ids(whole_w1, features),
            classes: ids(whole_w2, classes),
            w1: slots(whole_w1, w1.len()),
            b1: vec![0.0; config.hidden],
            w2: slots(whole_w2, w2.len()),
            b2: slots(whole_w2, classes),
            cand_slots: Vec::new(),
        };
        let (map, rows) = o.map.split_at_mut(features);
        for (slot, &f) in o.features.iter().enumerate() {
            map[f as usize] = slot as u32;
        }
        for (slot, &c) in o.classes.iter().enumerate() {
            rows[c as usize] = slot as u32;
        }
        o.fill(base);
        o
    }

    /// The architecture.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Re-bases the overlay on `base`, the model the replica imports: every
    /// slot a step gave it is forgotten — the map reset in O(slots), the
    /// slot buffers kept for the next interval — and `b₁` and the classes
    /// it holds in any case are read from `base`.
    ///
    /// # Panics
    /// Panics when `base` is not a model of the overlay's architecture, or
    /// on an overlay built by [`Overlay::whole`], which blends instead.
    pub fn import(&mut self, base: FlatRef<'_>) {
        assert!(!self.whole_w1, "an overlay of every row blends");
        for &f in &self.features {
            self.map[f as usize] = BASE;
        }
        self.features.clear();
        self.w1.clear();
        if !self.whole_w2 {
            let features = self.config.num_features;
            for &c in &self.classes {
                self.map[features + c as usize] = BASE;
            }
            self.classes.clear();
            self.w2.clear();
            self.b2.clear();
        }
        self.fill(base);
    }

    /// Reads `b₁` and every block the overlay holds whole from `base`.
    fn fill(&mut self, base: FlatRef<'_>) {
        assert_eq!(base.len(), self.config.param_len(), "base length");
        match base {
            FlatRef::F32(b) => self.fill_from(b),
            FlatRef::Bf16(b) => self.fill_from(b),
        }
    }

    fn fill_from<E: Widen>(&mut self, base: &[E]) {
        let [w1, b1, w2, b2] = self.config.block_ranges();
        let blocks = [
            (true, &mut self.b1, b1),
            (self.whole_w1, &mut self.w1, w1),
            (self.whole_w2, &mut self.w2, w2),
            (self.whole_w2, &mut self.b2, b2),
        ];
        for (whole, slots, range) in blocks {
            if whole {
                for (d, s) in slots.iter_mut().zip(&base[range]) {
                    *d = s.widen();
                }
            }
        }
    }

    /// One sampled-softmax SGD step over `base` — bit for bit
    /// [`Mlp::train_batch_sampled_ws`] on an owned copy of `base` carrying
    /// this overlay's rows. First selects a slot for every feature of `x`
    /// and every class of `cand` (sorted, deduplicated, holding every
    /// label), then renames `x`'s columns to their slots: `x` is left
    /// describing the slots, not the features.
    ///
    /// # Panics
    /// Panics on shape mismatches, an empty candidate set or a batch label
    /// missing from `cand`.
    pub fn train_batch_sampled_ws<L: AsRef<[u32]>>(
        &mut self,
        base: FlatRef<'_>,
        x: &mut CsrMatrix,
        labels: &[L],
        cand: &[u32],
        lr: f32,
        ws: &mut Workspace,
    ) -> TrainOutput {
        self.enter(base, x, cand, ws);
        let loss = self
            .params()
            .loss_and_gradients_sampled(x, labels, cand, &self.cand_slots, ws);
        let (mut params, cand_slots) = self.params_mut();
        params.apply_gradients_sampled(cand_slots, lr, ws);
        output(loss, x)
    }

    /// One dense-softmax SGD step over `base` — bit for bit
    /// [`Mlp::train_batch_ws`] on an owned copy of `base` carrying this
    /// overlay's rows, with `x` renamed as in
    /// [`Overlay::train_batch_sampled_ws`].
    ///
    /// # Panics
    /// Panics on shape mismatches, or on an overlay built by
    /// [`Overlay::new`], which holds not every class.
    pub fn train_batch_ws<L: AsRef<[u32]>>(
        &mut self,
        base: FlatRef<'_>,
        x: &mut CsrMatrix,
        labels: &[L],
        lr: f32,
        ws: &mut Workspace,
    ) -> TrainOutput {
        assert!(self.whole_w2, "a dense step reads every class");
        self.enter(base, x, &[], ws);
        let loss = self.params().loss_and_gradients(x, labels, ws);
        self.params_mut().0.apply_gradients(&ws.grads, lr);
        output(loss, x)
    }

    /// A step's prologue: checks the shapes, selects the slots of `x`'s
    /// features and of `cand` and renames `x`'s columns to their slots.
    fn enter(&mut self, base: FlatRef<'_>, x: &mut CsrMatrix, cand: &[u32], ws: &Workspace) {
        let c = self.config;
        assert_eq!(x.cols(), c.num_features, "input width");
        assert_eq!(base.len(), c.param_len(), "base length");
        assert_eq!(ws.slot.len(), c.num_features, "workspace architecture");
        match base {
            FlatRef::F32(b) => self.select(b, x.indices(), cand),
            FlatRef::Bf16(b) => self.select(b, x.indices(), cand),
        }
        let map = &self.map;
        x.relabel_columns(self.features.len(), |f| map[f as usize]);
    }

    /// The slots as a step reads them.
    fn params(&self) -> Params<'_> {
        let h = self.config.hidden;
        Params {
            w1: MatRef::new(self.features.len(), h, &self.w1),
            b1: &self.b1,
            w2: MatRef::new(self.classes.len(), h, &self.w2),
            b2: &self.b2,
        }
    }

    /// [`Overlay::params`], mutably, and the current step's candidates as
    /// class slots.
    fn params_mut(&mut self) -> (ParamsMut<'_>, &[u32]) {
        let params = ParamsMut {
            hidden: self.config.hidden,
            w1: &mut self.w1,
            b1: &mut self.b1,
            w2: &mut self.w2,
            b2: &mut self.b2,
        };
        (params, &self.cand_slots)
    }

    /// Gives every feature in `features` and every class in `cand` a slot,
    /// filled from `base` where it has none yet, and lists `cand`'s slots
    /// in `cand_slots`.
    fn select<E: Widen>(&mut self, base: &[E], features: &[u32], cand: &[u32]) {
        let c = self.config;
        let h = c.hidden;
        let [w1, _, w2, b2] = c.block_ranges();
        for &f in features {
            let f = f as usize;
            if self.map[f] == BASE {
                self.map[f] = self.features.len() as u32;
                self.features.push(f as u32);
                self.w1
                    .extend(base[w1.start + f * h..][..h].iter().map(|x| x.widen()));
            }
        }
        self.cand_slots.clear();
        for &cl in cand {
            let cl = cl as usize;
            let m = &mut self.map[c.num_features + cl];
            if *m == BASE {
                *m = self.classes.len() as u32;
                self.classes.push(cl as u32);
                self.w2
                    .extend(base[w2.start + cl * h..][..h].iter().map(|x| x.widen()));
                self.b2.push(base[b2.start + cl].widen());
            }
            self.cand_slots.push(*m);
        }
    }

    /// CROSSBOW's partial pull toward `target` (flat layout, f32 or bf16
    /// widened exactly): `θ ← θ + pull·(target − θ)` on every slot, bit for
    /// bit [`Mlp::blend_from_flat_buf`].
    ///
    /// # Panics
    /// Panics unless the overlay was built by [`Overlay::whole`]: a blend
    /// moves every parameter.
    pub fn blend(&mut self, target: FlatRef<'_>, pull: f32) {
        assert!(self.whole_w1, "a blend moves every parameter");
        assert_eq!(target.len(), self.config.param_len(), "target length");
        match target {
            FlatRef::F32(t) => self.blend_from(t, pull),
            FlatRef::Bf16(t) => self.blend_from(t, pull),
        }
    }

    fn blend_from<E: Widen>(&mut self, target: &[E], pull: f32) {
        let [w1, b1, w2, b2] = self.config.block_ranges();
        let blocks = [
            (&mut self.w1, w1),
            (&mut self.b1, b1),
            (&mut self.w2, w2),
            (&mut self.b2, b2),
        ];
        for (slots, range) in blocks {
            for (w, z) in slots.iter_mut().zip(&target[range]) {
                *w += pull * (z.widen() - *w);
            }
        }
    }

    /// The rows this overlay holds — what changed since the import, and
    /// every row its kind holds in any case — in the sparse row space
    /// (feature `f` is row `f`, class `c` row `num_features + c`),
    /// ascending, into a recycled buffer.
    pub fn rows_into(&self, out: &mut Vec<u32>) {
        let features = self.config.num_features as u32;
        out.clear();
        out.extend_from_slice(&self.features);
        out.sort_unstable();
        let at = out.len();
        out.extend(self.classes.iter().map(|&c| features + c));
        out[at..].sort_unstable();
    }

    /// `b₁`.
    pub fn b1(&self) -> &[f32] {
        &self.b1
    }

    /// Row `r` of the sparse row space as this overlay holds it: its
    /// `hidden` weights and, for a class row, its `b₂` entry.
    ///
    /// # Panics
    /// Panics when the overlay holds no slot for `r`.
    pub fn row(&self, r: usize) -> (&[f32], Option<f32>) {
        let h = self.config.hidden;
        let slot = self.map[r];
        assert_ne!(slot, BASE, "row {r} is read from the base");
        let s = slot as usize;
        if r < self.config.num_features {
            (&self.w1[s * h..][..h], None)
        } else {
            (&self.w2[s * h..][..h], Some(self.b2[s]))
        }
    }

    /// The run of the flat layout's elements from `at` that this overlay
    /// holds in consecutive slots, or does not hold, in one piece, ending
    /// at `end` at the latest: `(Some(values), e)` when it holds `at`
    /// (`values` are its elements `at..e`), `(None, e)` when the elements
    /// `at..e` are all the base's. What the merge reads of the replica.
    ///
    /// # Panics
    /// Panics unless `at < end ≤ param_len`.
    pub fn run_at(&self, at: usize, end: usize) -> (Option<&[f32]>, usize) {
        let c = &self.config;
        let [w1, b1, w2, b2] = c.block_ranges();
        assert!(
            at < end && end <= b2.end,
            "run {at}..{end} outside the layout"
        );
        let (features, classes) = self.map.split_at(c.num_features);
        let (block, map, slots, width) = if at < b1.start {
            (w1, features, &self.w1[..], c.hidden)
        } else if at < w2.start {
            return (
                Some(&self.b1[at - b1.start..end.min(b1.end) - b1.start]),
                end.min(b1.end),
            );
        } else if at < b2.start {
            (w2, classes, &self.w2[..], c.hidden)
        } else {
            (b2, classes, &self.b2[..], 1)
        };
        let (at, end) = (at - block.start, end.min(block.end) - block.start);
        // Rows `r..e` are held in consecutive slots from `slot`, or not at all.
        let r = at / width;
        let slot = map[r];
        let next = |e: usize| {
            if slot == BASE {
                BASE
            } else {
                slot + (e - r) as u32
            }
        };
        let mut e = r + 1;
        while e * width < end && map[e] == next(e) {
            e += 1;
        }
        let run_end = (e * width).min(end);
        let values = (slot != BASE).then(|| {
            let from = slot as usize * width + at - r * width;
            &slots[from..from + run_end - at]
        });
        (values, block.start + run_end)
    }

    /// [`Mlp::l2_norm_per_param`] of the model this overlay stands for over
    /// `base`, bit for bit: each block's squares summed in carried lanes
    /// ([`SqLanes`]), run by run — `base` where the map says base, the slot
    /// elsewhere — in layout order.
    pub fn l2_norm_per_param(&self, base: FlatRef<'_>) -> f64 {
        match base {
            FlatRef::F32(b) => self.norm(b),
            FlatRef::Bf16(b) => self.norm(b),
        }
    }

    fn norm<E: Widen>(&self, base: &[E]) -> f64 {
        let c = &self.config;
        assert_eq!(base.len(), c.param_len(), "base length");
        let [w1, _, w2, b2] = c.block_ranges();
        let (features, classes) = self.map.split_at(c.num_features);
        let blocks = [
            rows_sq(features, &base[w1], &self.w1, c.hidden),
            sum_sq_lanes(&self.b1),
            rows_sq(classes, &base[w2], &self.w2, c.hidden),
            rows_sq(classes, &base[b2], &self.b2, 1),
        ];
        let sq: f64 = blocks.iter().sum();
        sq.sqrt() / c.param_len() as f64
    }

    /// The whole model this overlay stands for over `base`, as an owned
    /// [`Mlp`]: a model-sized copy, for checks and tests.
    pub fn materialize(&self, base: FlatRef<'_>) -> Mlp {
        let c = &self.config;
        let h = c.hidden;
        let mut m = Mlp::zeros(c);
        m.read_flat_buf(base);
        let [w1, b1, w2, b2] = m.blocks_mut();
        b1.copy_from_slice(&self.b1);
        for (s, &f) in self.features.iter().enumerate() {
            w1[f as usize * h..][..h].copy_from_slice(&self.w1[s * h..][..h]);
        }
        for (s, &cl) in self.classes.iter().enumerate() {
            w2[cl as usize * h..][..h].copy_from_slice(&self.w2[s * h..][..h]);
            b2[cl as usize] = self.b2[s];
        }
        m
    }
}

/// A step's result over the batch `x`.
fn output(loss: f64, x: &CsrMatrix) -> TrainOutput {
    TrainOutput {
        loss,
        batch_size: x.rows(),
        batch_nnz: x.nnz(),
    }
}

/// `sum_sq_lanes` of a block of `width`-long rows, row `r` read from slot
/// `map[r]` of `slots`, or from `base` where the map says [`BASE`].
fn rows_sq<E: Widen>(map: &[u32], base: &[E], slots: &[f32], width: usize) -> f64 {
    let mut acc = SqLanes::default();
    // The first row of the run of base rows not yet added.
    let mut run = 0;
    for (r, &slot) in map.iter().enumerate() {
        if slot != BASE {
            acc.add(&base[run * width..r * width]);
            acc.add(&slots[slot as usize * width..][..width]);
            run = r + 1;
        }
    }
    acc.add(&base[run * width..]);
    acc.sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_tensor::FlatVec;
    use proptest::prelude::*;

    fn config(hidden: usize) -> MlpConfig {
        MlpConfig {
            num_features: 37,
            hidden,
            num_classes: 29,
        }
    }

    /// The start-up model of `config`, exported at `precision`.
    fn base(config: &MlpConfig, seed: u64, bf16: bool) -> FlatVec {
        let precision = [asgd_tensor::Precision::F32, asgd_tensor::Precision::Bf16][bf16 as usize];
        let mut buf = FlatVec::empty(precision);
        Mlp::init(config, seed).write_flat_buf(&mut buf);
        buf
    }

    /// A small batch over `config` and its candidate set (every label plus
    /// every third class).
    fn batch(config: &MlpConfig, seed: u64) -> (CsrMatrix, Vec<Vec<u32>>, Vec<u32>) {
        let mut state = seed;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..6 {
            let mut idx: Vec<u32> = (0..1 + next(5))
                .map(|_| next(config.num_features) as u32)
                .collect();
            idx.sort_unstable();
            idx.dedup();
            let val = idx.iter().map(|_| next(9) as f32 / 4.0 - 1.0).collect();
            rows.push((idx, val));
            labels.push(vec![next(config.num_classes) as u32]);
        }
        let x = CsrMatrix::from_rows(config.num_features, &rows).unwrap();
        let mut cand: Vec<u32> = labels.iter().flatten().copied().collect();
        cand.extend((0..config.num_classes as u32).step_by(3));
        cand.sort_unstable();
        cand.dedup();
        (x, labels, cand)
    }

    /// The flat model the runs of [`Overlay::run_at`] describe over `base`,
    /// walked from 0 with each run cut at `cut` elements.
    fn from_runs(o: &Overlay, base: &[f32], cut: usize) -> Vec<f32> {
        let mut out = Vec::new();
        while out.len() < base.len() {
            let at = out.len();
            let (values, end) = o.run_at(at, (at + cut).min(base.len()));
            assert!(end > at, "an empty run at {at}");
            match values {
                Some(v) => out.extend_from_slice(v),
                None => out.extend_from_slice(&base[at..end]),
            }
            assert_eq!(out.len(), end, "run length at {at}");
        }
        out
    }

    /// Steps through an overlay on an f32 or a bf16 base are the steps of
    /// the owned model that base widens to, bit for bit, for each kind of
    /// overlay — sampled steps, dense steps (every kind but the sampled
    /// one) and blends (the overlay of every row) — across an import (a
    /// blend for that overlay): the losses, the model, and the model its
    /// runs describe over the base, cut anywhere.
    #[test]
    fn overlay_steps_are_the_owned_models_steps() {
        type Build = fn(&MlpConfig, FlatRef<'_>) -> Overlay;
        let kinds: [(&str, Build); 3] = [
            ("sampled", Overlay::new),
            ("dense", Overlay::dense),
            ("whole", Overlay::whole),
        ];
        for bf16 in [false, true] {
            for (kind, build) in kinds {
                let c = config(13);
                let mut base = base(&c, 3, bf16);
                let mut owned = Mlp::zeros(&c);
                owned.read_flat_buf(base.view());
                let mut overlay = build(&c, base.view());
                let (mut ws_a, mut ws_b) = (Workspace::new(&c), Workspace::new(&c));
                for step in 0..8u64 {
                    let what = format!("{kind}, bf16 {bf16}, step {step}");
                    if step == 3 {
                        let target = super::tests::base(&c, 4, bf16);
                        if kind == "whole" {
                            owned.blend_from_flat_buf(target.view(), 0.25);
                            overlay.blend(target.view(), 0.25);
                        } else {
                            base = target;
                            owned.read_flat_buf(base.view());
                            overlay.import(base.view());
                        }
                    }
                    let (mut x, labels, cand) = batch(&c, step);
                    let (a, b) = if kind != "sampled" && step % 2 == 1 {
                        (
                            owned.train_batch_ws(&x, &labels, 0.1, &mut ws_a),
                            overlay.train_batch_ws(base.view(), &mut x, &labels, 0.1, &mut ws_b),
                        )
                    } else {
                        (
                            owned.train_batch_sampled_ws(&x, &labels, &cand, 0.1, &mut ws_a),
                            overlay.train_batch_sampled_ws(
                                base.view(),
                                &mut x,
                                &labels,
                                &cand,
                                0.1,
                                &mut ws_b,
                            ),
                        )
                    };
                    assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{what}");
                    assert_eq!(overlay.materialize(base.view()), owned, "{what}");
                    let mut widened = Mlp::zeros(&c);
                    widened.read_flat_buf(base.view());
                    for cut in [1, 5, 13, 64, c.param_len()] {
                        let runs = from_runs(&overlay, widened.as_flat(), cut);
                        assert!(runs == owned.as_flat(), "{what}: runs cut at {cut}");
                    }
                }
            }
        }
    }

    /// An overlay of every row never reads its base: its runs hold every
    /// element, one run per block. A dense overlay's output layer is one
    /// run per block too.
    #[test]
    fn held_blocks_are_one_run_each() {
        let c = config(8);
        let base = base(&c, 5, false);
        let [w1, b1, w2, b2] = c.block_ranges();
        let whole = Overlay::whole(&c, base.view());
        let dense = Overlay::dense(&c, base.view());
        for block in [w1, b1.clone(), w2.clone(), b2.clone()] {
            let (values, end) = whole.run_at(block.start, c.param_len());
            assert_eq!(
                (values.map(<[f32]>::len), end),
                (Some(block.len()), block.end)
            );
        }
        for block in [b1, w2, b2] {
            let (values, end) = dense.run_at(block.start, c.param_len());
            assert_eq!(
                (values.map(<[f32]>::len), end),
                (Some(block.len()), block.end)
            );
        }
        assert_eq!(
            dense.run_at(0, c.param_len()),
            (None, c.num_features * c.hidden)
        );
    }

    /// The kinds refuse the operations that would need rows they do not
    /// hold.
    #[test]
    fn kinds_refuse_what_needs_rows_they_lack() {
        let c = config(8);
        let base = base(&c, 5, false);
        let (mut x, labels, _) = batch(&c, 1);
        let mut ws = Workspace::new(&c);
        let refused = |f: &mut dyn FnMut()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        };
        let mut sampled = Overlay::new(&c, base.view());
        assert!(refused(&mut || {
            sampled.train_batch_ws(base.view(), &mut x, &labels, 0.1, &mut ws);
        }));
        assert!(refused(
            &mut || Overlay::dense(&c, base.view()).blend(base.view(), 0.5)
        ));
        assert!(refused(
            &mut || Overlay::whole(&c, base.view()).import(base.view())
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The overlay's exact norm is `Mlp::l2_norm_per_param` of the
        /// model it materializes, bit for bit, whichever rows it holds, at
        /// hidden 8, 13 and 64 (13 carries the lane position across rows)
        /// and over an f32 and a bf16 base.
        #[test]
        fn overlay_norm_is_the_materialized_models_norm(
            hidden_sel in 0usize..3,
            bf16_sel in 0usize..2,
            seed in 0u64..1000,
            density in 0usize..4,
        ) {
            let c = config([8, 13, 64][hidden_sel]);
            let base = base(&c, seed, bf16_sel == 1);
            let mut o = Overlay::new(&c, base.view());
            let mut state = seed ^ 0xA5A5;
            let mut next = move |n: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % n
            };
            // None, a few, most or all of the rows get a slot.
            let keep = |next: &mut dyn FnMut(usize) -> usize| match density {
                0 => false,
                1 => next(8) == 0,
                2 => next(8) != 0,
                _ => true,
            };
            let features: Vec<u32> =
                (0..c.num_features as u32).filter(|_| keep(&mut next)).collect();
            let classes: Vec<u32> =
                (0..c.num_classes as u32).filter(|_| keep(&mut next)).collect();
            match base.view() {
                FlatRef::F32(b) => o.select(b, &features, &classes),
                FlatRef::Bf16(b) => o.select(b, &features, &classes),
            }
            // The slots (and b₁) drift away from the base.
            for x in o.w1.iter_mut().chain(&mut o.w2).chain(&mut o.b2).chain(&mut o.b1) {
                *x = *x * 1.5 + (next(7) as f32 - 3.0) / 16.0;
            }
            let exact = o.materialize(base.view()).l2_norm_per_param();
            prop_assert_eq!(o.l2_norm_per_param(base.view()).to_bits(), exact.to_bits());
        }
    }
}
