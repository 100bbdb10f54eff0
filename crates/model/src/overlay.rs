//! A sampled-softmax replica as an overlay on the model it imported.
//!
//! Between two imports a sampled step writes `b₁`, the `W₁` rows of its
//! batch's features and the `W₂` rows and `b₂` entries of its candidate
//! classes, and nothing else. An [`Overlay`] holds exactly those: one
//! `hidden`-long slot per `W₁` row or class it has selected (a class slot
//! with its `b₂` entry), and `b₁` whole. Every other parameter is read from
//! the **base**, the buffer the replica last imported, which the caller
//! lends to every call and must not change between an import and the next
//! merge.
//!
//! A slot is filled from the base (widened exactly at bf16) the first time
//! a step selects its row, before the step reads it, so the step reads the
//! values an owned copy of the base would hold. The step itself is the
//! model's: [`crate::Mlp::train_batch_sampled_ws`]'s kernels over the
//! slots, with the batch's feature ids and the candidate list renamed to
//! slot ids, every per-element FMA chain unchanged — so an overlay trains
//! bit for bit like an owned replica, and holds a few thousand rows where
//! that holds the whole model.

use crate::mlp::{write_delta, Mlp, MlpConfig, Params, ParamsMut, TrainOutput};
use crate::Workspace;
use asgd_sparse::CsrMatrix;
use asgd_tensor::kernels::{sum_sq_lanes, SqLanes, Widen};
use asgd_tensor::{FlatRef, FlatVec, MatRef};

/// The map entry of a row the overlay holds no slot for: read the base.
const BASE: u32 = u32::MAX;

/// The parameters a sampled replica changed since its last import, over a
/// base it does not own. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Overlay {
    config: MlpConfig,
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
    /// An overlay on `base` holding nothing of its own but `b₁`.
    ///
    /// # Panics
    /// Panics when `base` is not a model of `config`'s architecture.
    pub fn new(config: &MlpConfig, base: FlatRef<'_>) -> Self {
        let mut o = Overlay {
            config: *config,
            map: vec![BASE; config.num_features + config.num_classes],
            features: Vec::new(),
            classes: Vec::new(),
            w1: Vec::new(),
            b1: vec![0.0; config.hidden],
            w2: Vec::new(),
            b2: Vec::new(),
            cand_slots: Vec::new(),
        };
        o.import(base);
        o
    }

    /// The architecture.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Re-bases the overlay on `base`, the model the replica imports: every
    /// slot is forgotten — the map reset in O(slots), the slot buffers
    /// kept for the next interval — and `b₁` is read from `base`.
    ///
    /// # Panics
    /// Panics when `base` is not a model of the overlay's architecture.
    pub fn import(&mut self, base: FlatRef<'_>) {
        assert_eq!(base.len(), self.config.param_len(), "base length");
        let features = self.config.num_features;
        for &f in &self.features {
            self.map[f as usize] = BASE;
        }
        for &c in &self.classes {
            self.map[features + c as usize] = BASE;
        }
        self.features.clear();
        self.classes.clear();
        self.w1.clear();
        self.w2.clear();
        self.b2.clear();
        let [_, b1, ..] = self.config.block_ranges();
        match base {
            FlatRef::F32(b) => widen_into(&b[b1], &mut self.b1),
            FlatRef::Bf16(b) => widen_into(&b[b1], &mut self.b1),
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
        let params = Params {
            w1: MatRef::new(self.features.len(), c.hidden, &self.w1),
            b1: &self.b1,
            w2: MatRef::new(self.classes.len(), c.hidden, &self.w2),
            b2: &self.b2,
        };
        let loss = params.loss_and_gradients_sampled(x, labels, cand, &self.cand_slots, ws);
        let mut params = ParamsMut {
            hidden: c.hidden,
            w1: &mut self.w1,
            b1: &mut self.b1,
            w2: &mut self.w2,
            b2: &mut self.b2,
        };
        params.apply_gradients_sampled(&self.cand_slots, lr, ws);
        TrainOutput {
            loss,
            batch_size: x.rows(),
            batch_nnz: x.nnz(),
        }
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
                reserve_slot(&mut self.w1, h, w1.len());
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
                reserve_slot(&mut self.w2, h, w2.len());
                self.w2
                    .extend(base[w2.start + cl * h..][..h].iter().map(|x| x.widen()));
                self.b2.push(base[b2.start + cl].widen());
            }
            self.cand_slots.push(*m);
        }
    }

    /// The rows this overlay holds — what changed since the import — in
    /// the sparse row space (feature `f` is row `f`, class `c` row
    /// `num_features + c`), ascending, into a recycled buffer.
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

    /// The sparse-merge delta payload over `rows` (ascending, every one held
    /// here; [`Overlay::rows_into`]) into `out` — bit for bit what
    /// [`Mlp::write_delta_buf`] packs from the materialized model.
    pub fn write_delta_buf(&self, rows: &[u32], out: &mut FlatVec) {
        write_delta(&self.config, &self.b1, rows, |r| self.row(r), out);
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

/// `src` widened into `dst`, which is as long.
fn widen_into<E: Widen>(src: &[E], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.widen();
    }
}

/// Makes room in `slots` for one more `width`-long slot, growing
/// geometrically but never past `cap`, the block the slots stand for: a
/// slot buffer stays smaller than the model however many rows it fills.
fn reserve_slot(slots: &mut Vec<f32>, width: usize, cap: usize) {
    let need = slots.len() + width;
    if need > slots.capacity() {
        let want = (slots.capacity() * 2).min(cap).max(need);
        slots.reserve_exact(want - slots.len());
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

    /// Steps through an overlay on an f32 or a bf16 base are the steps of
    /// the owned model that base widens to, bit for bit: losses, the model,
    /// and the delta over the rows the overlay holds — across an import.
    #[test]
    fn overlay_steps_are_the_owned_models_steps() {
        for bf16 in [false, true] {
            let c = config(13);
            let mut base = base(&c, 3, bf16);
            let mut owned = Mlp::zeros(&c);
            owned.read_flat_buf(base.view());
            let mut overlay = Overlay::new(&c, base.view());
            let (mut ws_a, mut ws_b) = (Workspace::new(&c), Workspace::new(&c));
            for step in 0..6u64 {
                if step == 3 {
                    base = super::tests::base(&c, 4, bf16);
                    owned.read_flat_buf(base.view());
                    overlay.import(base.view());
                }
                let (mut x, labels, cand) = batch(&c, step);
                let a = owned.train_batch_sampled_ws(&x, &labels, &cand, 0.1, &mut ws_a);
                let b = overlay.train_batch_sampled_ws(
                    base.view(),
                    &mut x,
                    &labels,
                    &cand,
                    0.1,
                    &mut ws_b,
                );
                assert_eq!(
                    a.loss.to_bits(),
                    b.loss.to_bits(),
                    "bf16 {bf16}, step {step}"
                );
                assert_eq!(overlay.materialize(base.view()), owned);
                let mut rows = Vec::new();
                overlay.rows_into(&mut rows);
                let (mut da, mut db) = (
                    FlatVec::empty(base.precision()),
                    FlatVec::empty(base.precision()),
                );
                owned.write_delta_buf(&rows, &mut da);
                overlay.write_delta_buf(&rows, &mut db);
                assert_eq!(da, db, "bf16 {bf16}, step {step}: delta");
            }
        }
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
