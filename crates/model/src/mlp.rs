//! Model parameters, forward pass, backward pass, SGD update.
//!
//! The batch training path exists in two forms: the workspace variants
//! ([`Mlp::train_batch_ws`], [`Mlp::loss_and_gradients_ws`]) that reuse
//! caller-owned buffers and allocate nothing in steady state, and the
//! original allocating wrappers ([`Mlp::train_batch`],
//! [`Mlp::loss_and_gradients`]) that build a fresh [`Workspace`] per call.
//! Both run the exact same kernels in the exact same order, so their results
//! are bit-identical.

use crate::gradients::Gradients;
use crate::workspace::Workspace;
use asgd_sparse::{ops as sops, CsrMatrix};
use asgd_tensor::init::Placement;
use asgd_tensor::kernels::sum_sq_lanes;
use asgd_tensor::{bf16, init, numerics, ops, pages, FlatRef, FlatVec, MatRef, Matrix, Precision};
use rand::{rngs::StdRng, SeedableRng};
use std::ops::Range;

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpConfig {
    /// Input feature dimensionality.
    pub num_features: usize,
    /// Hidden layer width (128 in the paper's testbed).
    pub hidden: usize,
    /// Label-space size.
    pub num_classes: usize,
}

impl MlpConfig {
    /// Where each parameter block sits in the flat layout
    /// `W₁ ‖ b₁ ‖ W₂ ‖ b₂` (`W₁` is `num_features × hidden`; `W₂` is stored
    /// class-major, `num_classes × hidden`; both row-major, so a feature's
    /// and a class's weights are each one contiguous run) — the one
    /// definition of the layout an [`Mlp`] stores, the merge reduces and a
    /// checkpoint carries.
    pub fn block_ranges(&self) -> [Range<usize>; 4] {
        let w1 = 0..self.num_features * self.hidden;
        let b1 = w1.end..w1.end + self.hidden;
        let w2 = b1.end..b1.end + self.num_classes * self.hidden;
        let b2 = w2.end..w2.end + self.num_classes;
        [w1, b1, w2, b2]
    }

    /// Total trainable parameters (weights + biases of both layers).
    pub fn param_len(&self) -> usize {
        let [.., b2] = self.block_ranges();
        b2.end
    }
}

/// Result of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOutput {
    /// Mean multi-label cross-entropy over the batch.
    pub loss: f64,
    /// Samples in the batch.
    pub batch_size: usize,
    /// Non-zero input features in the batch (drives simulated kernel time).
    pub batch_nnz: usize,
}

/// The four parameter blocks a step reads, wherever they live: an
/// [`Mlp`]'s flat buffer, or a [`crate::Overlay`]'s slots. Row `r` of `w1`
/// holds the weights the batch's column id `r` names and row `r` of `w2` /
/// entry `r` of `b2` those the step's gather index `r` names — feature and
/// class ids for a model, slot ids for an overlay; a dense step reads every
/// class, so its `w2` / `b2` hold them all in class order. The kernels read
/// a row the same way whichever it is, so the two give the same bits.
pub(crate) struct Params<'a> {
    pub(crate) w1: MatRef<'a>,
    pub(crate) b1: &'a [f32],
    pub(crate) w2: MatRef<'a>,
    pub(crate) b2: &'a [f32],
}

/// [`Params`], mutably: what an update step writes.
pub(crate) struct ParamsMut<'a> {
    pub(crate) hidden: usize,
    pub(crate) w1: &'a mut [f32],
    pub(crate) b1: &'a mut [f32],
    pub(crate) w2: &'a mut [f32],
    pub(crate) b2: &'a mut [f32],
}

/// The 3-layer MLP: `softmax(relu(X·W₁ + b₁)·W₂ + b₂)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    config: MlpConfig,
    /// Every parameter, in the flat layout of [`MlpConfig::block_ranges`]:
    /// the blocks are views of this one buffer, and the merge, the
    /// checkpoint and the registry read it as it is.
    params: Vec<f32>,
}

impl Mlp {
    /// Initializes with the paper's scheme (`N(0, 1/√fan_in)` weights, zero
    /// biases) from an explicit seed so all replicas can share one init:
    /// `W₁` and then `W₂` are drawn in place from one `StdRng` stream, on
    /// the worker pool ([`init::layers_init`]) — a pure function of
    /// `(config, seed)` at any `ASGD_THREADS`, bit for bit the serial
    /// `layer_init(W₁)`, `layer_init(W₂)` of a `hidden × num_classes` `W₂`,
    /// each draw stored at its class-major place.
    pub fn init(config: &MlpConfig, seed: u64) -> Self {
        Self::init_from(config, &mut StdRng::seed_from_u64(seed))
    }

    /// [`Mlp::init`] from `rng` as it stands, leaving it where the serial
    /// stream leaves it.
    fn init_from(config: &MlpConfig, rng: &mut StdRng) -> Self {
        let mut m = Self::zeros(config);
        let [w1, _, w2, _] = config.block_ranges();
        let (head, tail) = m.params.split_at_mut(w2.start);
        let layers = [
            (&mut head[w1], config.num_features, Placement::AsDrawn),
            (&mut tail[..w2.len()], config.hidden, Placement::Transposed),
        ];
        init::layers_init(layers, rng);
        m
    }

    /// All-zero model of the right shape (merge/accumulation target). Its
    /// buffer is written whole before it is read — by [`Mlp::init`], a
    /// copy, an import — so it faults in huge pages
    /// ([`asgd_tensor::pages::zeroed`]).
    pub fn zeros(config: &MlpConfig) -> Self {
        Self::from_flat(config, pages::zeroed(config.param_len()))
    }

    /// The model whose parameters are `params`, in the flat layout of
    /// [`MlpConfig::block_ranges`]. Takes the buffer as it is: nothing is
    /// copied.
    ///
    /// # Panics
    /// Panics when the length does not match the architecture.
    pub fn from_flat(config: &MlpConfig, params: Vec<f32>) -> Self {
        assert_eq!(params.len(), config.param_len(), "flat parameter length");
        Self {
            config: *config,
            params,
        }
    }

    /// The architecture.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Number of trainable parameters.
    pub fn param_len(&self) -> usize {
        self.params.len()
    }

    /// Every parameter in the flat layout (`W₁ ‖ b₁ ‖ W₂ ‖ b₂`) — the wire
    /// format of model merging, read in place.
    pub fn as_flat(&self) -> &[f32] {
        &self.params
    }

    /// Every parameter in the flat layout, mutably.
    pub fn as_flat_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Trades this model's parameter buffer for `other` (same length): a
    /// pointer swap, no copy.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn swap_flat(&mut self, other: &mut Vec<f32>) {
        assert_eq!(other.len(), self.params.len(), "swap_flat length mismatch");
        std::mem::swap(&mut self.params, other);
    }

    /// The flat parameter buffer, by value.
    pub fn into_flat(self) -> Vec<f32> {
        self.params
    }

    /// The four blocks of `params`, mutably, cut at
    /// [`MlpConfig::block_ranges`].
    pub(crate) fn blocks_mut(&mut self) -> [&mut [f32]; 4] {
        let [w1, b1, w2, _] = self.config.block_ranges();
        let (w1s, rest) = self.params.split_at_mut(w1.len());
        let (b1s, rest) = rest.split_at_mut(b1.len());
        let (w2s, b2s) = rest.split_at_mut(w2.len());
        [w1s, b1s, w2s, b2s]
    }

    /// The model as the sampled step reads it: every id is its own row.
    fn params(&self) -> Params<'_> {
        Params {
            w1: self.w1(),
            b1: self.b1(),
            w2: self.w2(),
            b2: self.b2(),
        }
    }

    /// [`Mlp::params`], mutably.
    fn params_mut(&mut self) -> ParamsMut<'_> {
        let hidden = self.config.hidden;
        let [w1, b1, w2, b2] = self.blocks_mut();
        ParamsMut {
            hidden,
            w1,
            b1,
            w2,
            b2,
        }
    }

    /// A copy of all parameters in the flat layout of [`Mlp::as_flat`].
    pub fn to_flat(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// Exports the flat parameter layout of [`Mlp::to_flat`] into a
    /// caller-owned [`FlatVec`], reusing its allocation and **keeping its
    /// storage precision** (an empty default buffer is f32): steady-state
    /// calls on a recycled buffer never touch the heap. The bf16 export
    /// narrows each parameter exactly once (round-to-nearest-even) — the
    /// model itself stays f32.
    pub fn write_flat_buf(&self, out: &mut FlatVec) {
        match out {
            FlatVec::F32(v) => {
                v.clear();
                v.extend_from_slice(&self.params);
            }
            FlatVec::Bf16(v) => {
                // Size once; on a recycled buffer this is a no-op, so the
                // steady state never re-zero-fills (or reallocates) it —
                // every element is overwritten by the narrow below.
                v.resize(self.param_len(), 0);
                bf16::narrow_slice(&self.params, v);
            }
        }
    }

    /// Packs the sparse-merge delta payload over `rows` directly from the
    /// parameters into `out` (cleared and refilled in `out`'s precision;
    /// allocation recycled). The wire format is
    /// `asgd_collective::sparse`'s: the dense `b1` block first, then each
    /// touched row's elements with rows strictly ascending — the W1
    /// feature row for `r < num_features`, otherwise the W2 row of
    /// class `r − num_features` followed by its `b2` entry.
    ///
    /// Values are **bit-identical** to gathering the same indices out of
    /// [`Mlp::write_flat_buf`]'s output: f32 bits verbatim, bf16 narrowed
    /// exactly once per element (narrowing is element-wise, so packing
    /// order cannot change any bit). That equality is what lets the merge
    /// reconstruct a replica's full flat buffer from `(base, delta)`
    /// without this side ever materializing the dense model.
    ///
    /// # Panics
    /// Panics when a row id falls outside `num_features + num_classes`.
    pub fn write_delta_buf(&self, rows: &[u32], out: &mut FlatVec) {
        fn pack<E: Copy + Default>(
            m: &Mlp,
            rows: &[u32],
            v: &mut Vec<E>,
            narrow: impl Fn(f32) -> E,
        ) {
            let c = &m.config;
            debug_assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "delta rows must be strictly ascending"
            );
            // `b₁`, then `hidden` values per row and one `b₂` entry per class row.
            let feature_rows = rows.partition_point(|&r| (r as usize) < c.num_features);
            let need = c.hidden + rows.len() * c.hidden + (rows.len() - feature_rows);
            // A payload that outgrows `v` gets a fresh allocation of exactly
            // its size, which the pack writes whole.
            if v.capacity() < need {
                *v = pages::zeroed(need);
            }
            v.clear();
            v.extend(m.b1().iter().map(|&x| narrow(x)));
            for &r in rows {
                let r = r as usize;
                if r < c.num_features {
                    v.extend(m.w1().row(r).iter().map(|&x| narrow(x)));
                } else {
                    let cl = r - c.num_features;
                    assert!(cl < c.num_classes, "row {r} outside layout");
                    v.extend(m.w2().row(cl).iter().map(|&x| narrow(x)));
                    v.push(narrow(m.b2()[cl]));
                }
            }
        }
        match out {
            FlatVec::F32(v) => pack(self, rows, v, |x| x),
            FlatVec::Bf16(v) => pack(self, rows, v, bf16::narrow),
        }
    }

    /// Imports a flat buffer of either precision — the read counterpart of
    /// [`Mlp::write_flat_buf`] — from a [`FlatVec`] or from a borrowed
    /// [`FlatRef`] (another model's parameters read in place). bf16 values
    /// widen exactly; no rounding occurs on import.
    ///
    /// # Panics
    /// Panics when the length does not match the architecture.
    pub fn read_flat_buf<'a>(&mut self, flat: impl Into<FlatRef<'a>>) {
        let flat = flat.into();
        assert_eq!(flat.len(), self.param_len(), "flat parameter length");
        match flat {
            FlatRef::F32(v) => self.as_flat_mut().copy_from_slice(v),
            FlatRef::Bf16(v) => bf16::widen_slice(v, self.as_flat_mut()),
        }
    }

    /// Pulls every parameter a fraction `pull` toward `target` (flat
    /// layout, owned or borrowed as in [`Mlp::read_flat_buf`]):
    /// `θ ← θ + pull·(target − θ)` — CROSSBOW's central-model
    /// blend, applied in place. The blend math runs in f32 on
    /// exactly-widened targets (`θ ← θ + pull·(widen(z) − θ)` for bf16);
    /// the model parameters stay f32, so no narrowing round point exists.
    ///
    /// # Panics
    /// Panics when the length does not match the architecture.
    pub fn blend_from_flat_buf<'a>(&mut self, target: impl Into<FlatRef<'a>>, pull: f32) {
        let target = target.into();
        assert_eq!(target.len(), self.param_len(), "flat parameter length");
        let params = self.as_flat_mut();
        match target {
            FlatRef::F32(v) => {
                for (w, &z) in params.iter_mut().zip(v) {
                    *w += pull * (z - *w);
                }
            }
            FlatRef::Bf16(v) => {
                for (w, &z) in params.iter_mut().zip(v) {
                    *w += pull * (bf16::widen(z) - *w);
                }
            }
        }
    }

    /// A copy of this model with every parameter round-tripped through the
    /// given storage precision (`f32` is an exact clone; `bf16` applies one
    /// round-to-nearest-even per parameter) — what a replica holds after a
    /// checkpoint or redistribution at that precision.
    pub fn quantized(&self, precision: Precision) -> Mlp {
        let mut m = self.clone();
        if precision == Precision::Bf16 {
            for w in m.as_flat_mut() {
                *w = bf16::widen(bf16::narrow(*w));
            }
        }
        m
    }

    /// Loads parameters from the flat format produced by [`Mlp::to_flat`].
    ///
    /// # Panics
    /// Panics when the length does not match the architecture.
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_len(), "flat parameter length");
        self.as_flat_mut().copy_from_slice(flat);
    }

    /// L2 norm of all parameters divided by the parameter count — the
    /// regularization measure gating Algorithm 2's weight perturbation. Each
    /// block's squares are summed in independent `f64` lanes with a fixed
    /// combine order ([`asgd_tensor::kernels::sum_sq_lanes`]), not one add
    /// chain, and the four block sums are added in layout order: the gather
    /// pays this once per replica per merge, over every parameter.
    pub fn l2_norm_per_param(&self) -> f64 {
        let blocks = self.config.block_ranges();
        let sq: f64 = blocks.map(|r| sum_sq_lanes(&self.params[r])).iter().sum();
        sq.sqrt() / self.param_len() as f64
    }

    /// The input-layer weight matrix (`num_features × hidden`).
    fn w1(&self) -> MatRef<'_> {
        let c = &self.config;
        let [w1, ..] = c.block_ranges();
        MatRef::new(c.num_features, c.hidden, &self.params[w1])
    }

    /// The output-layer weight matrix, class-major (`num_classes × hidden`:
    /// row `c` is output neuron `c`'s weights) — read access for LSH
    /// indexing of output neurons (SLIDE).
    pub fn w2(&self) -> MatRef<'_> {
        let c = &self.config;
        let [_, _, w2, _] = c.block_ranges();
        MatRef::new(c.num_classes, c.hidden, &self.params[w2])
    }

    /// Mutable access to the output-layer weights (optimizers), row-major
    /// `num_classes × hidden`.
    pub fn w2_mut(&mut self) -> &mut [f32] {
        let [_, _, w2, _] = self.blocks_mut();
        w2
    }

    /// Does nothing. `W₂` is stored once, class-major, and every step reads
    /// it in place; there is no transposed copy left to bring up to date.
    /// Kept for callers written against the two-copy layout.
    pub fn sync_w2t(&self, _ws: &mut Workspace) {}

    /// The hidden bias.
    pub fn b1(&self) -> &[f32] {
        let [_, b1, ..] = self.config.block_ranges();
        &self.params[b1]
    }

    /// The output-layer bias.
    pub fn b2(&self) -> &[f32] {
        let [.., b2] = self.config.block_ranges();
        &self.params[b2]
    }

    /// Forward through the hidden layer only: `relu(X·W₁ + b₁)`, via the
    /// fused sparse kernel (one pass over `H` instead of three).
    pub fn hidden_forward(&self, x: &CsrMatrix) -> Matrix {
        assert_eq!(x.cols(), self.config.num_features, "input width");
        let mut h = Matrix::zeros(x.rows(), self.config.hidden);
        sops::spmm_bias_relu(x, self.w1(), self.b1(), &mut h);
        h
    }

    /// One *sampled-softmax* SGD step on a single sample — the SLIDE update.
    ///
    /// The softmax and its gradient are restricted to `active` (which must
    /// contain every label of the sample; callers union the LSH candidates
    /// with the true labels). Only the active output neurons and the
    /// sample's input features are touched. Returns the sampled
    /// cross-entropy loss.
    ///
    /// # Panics
    /// Panics when `active` is empty or a label is missing from it.
    pub fn train_sample_sampled(
        &mut self,
        x_idx: &[u32],
        x_val: &[f32],
        h: &[f32],
        labels: &[u32],
        active: &[u32],
        lr: f32,
    ) -> f64 {
        assert!(!active.is_empty(), "empty active set");
        assert_eq!(h.len(), self.config.hidden, "hidden activation width");
        let hidden = self.config.hidden;
        let classes = self.config.num_classes;
        let [w1, b1, w2, b2] = self.blocks_mut();
        let row = |c: u32| {
            debug_assert!((c as usize) < classes);
            c as usize * hidden..(c as usize + 1) * hidden
        };
        // Logits over the active set.
        let mut logits: Vec<f32> = active
            .iter()
            .map(|&c| {
                let mut dot = b2[c as usize];
                for (&hv, &wv) in h.iter().zip(&w2[row(c)]) {
                    dot += hv * wv;
                }
                dot
            })
            .collect();
        // Stable softmax over the active set: the dense layer's row softmax.
        numerics::softmax_row_inplace(&mut logits);
        // dlogits = p - uniform(labels); loss over true labels.
        let w = 1.0 / labels.len().max(1) as f32;
        let mut loss = 0.0f64;
        for &y in labels {
            let pos = active
                .iter()
                .position(|&c| c == y)
                .expect("label missing from active set");
            loss -= (w as f64) * (logits[pos].max(1e-30) as f64).ln();
            logits[pos] -= w;
        }
        let dlogits = logits; // renamed: now holds the gradient.

        // dh = Σ_c dlogit_c · W₂[c] (pre-update weights), ReLU-masked.
        let mut dh = vec![0.0f32; hidden];
        for (i, &c) in active.iter().enumerate() {
            let g = dlogits[i];
            if g == 0.0 {
                continue;
            }
            for (dv, &wv) in dh.iter_mut().zip(&w2[row(c)]) {
                *dv += g * wv;
            }
        }
        for (dv, &hv) in dh.iter_mut().zip(h) {
            if hv <= 0.0 {
                *dv = 0.0;
            }
        }

        // Update W₂ rows + b2 over the active set.
        for (i, &c) in active.iter().enumerate() {
            let g = lr * dlogits[i];
            if g == 0.0 {
                continue;
            }
            for (wv, &hv) in w2[row(c)].iter_mut().zip(h) {
                *wv -= g * hv;
            }
            b2[c as usize] -= g;
        }
        // Update W1 rows for the sample's features + b1.
        for (&f, &v) in x_idx.iter().zip(x_val) {
            let row = &mut w1[f as usize * hidden..][..hidden];
            for (wv, &dv) in row.iter_mut().zip(&dh) {
                *wv -= lr * v * dv;
            }
        }
        for (bv, &dv) in b1.iter_mut().zip(&dh) {
            *bv -= lr * dv;
        }
        loss
    }

    /// Forward pass: returns `(hidden activations, class probabilities)`.
    pub fn forward(&self, x: &CsrMatrix) -> (Matrix, Matrix) {
        assert_eq!(x.cols(), self.config.num_features, "input width");
        let batch = x.rows();
        let mut h = Matrix::zeros(batch, self.config.hidden);
        let mut probs = Matrix::zeros(batch, self.config.num_classes);
        self.forward_into(x, &mut h, &mut probs);
        (h, probs)
    }

    /// Forward pass into caller-owned buffers — the one kernel sequence
    /// shared by training ([`Mlp::loss_and_gradients_ws`]), evaluation, and
    /// serving ([`Mlp::predict_topk_ws`]). A single body keeps every path
    /// bit-identical: `h` becomes `relu(X·W₁ + b₁)` and `probs` the softmax
    /// class distribution, both reshaped to the batch in place.
    /// Both layers run fused epilogues (`spmm_bias_relu`, `gemm_bt_bias`):
    /// per element, the op sequence is identical to the old separate
    /// GEMM/bias/ReLU sweeps, so results are bit-compatible — the fusion
    /// removes memory passes, not arithmetic.
    fn forward_into(&self, x: &CsrMatrix, h: &mut Matrix, probs: &mut Matrix) {
        self.params().forward_into(x, h, probs);
    }

    /// Batched top-k inference through a reused [`Workspace`]: forwards the
    /// batch and writes, row-major into `out`, each sample's `k_eff` class
    /// ids ordered by descending score (ties broken by ascending class id,
    /// consistent with `argmax`'s first-max rule). Returns
    /// `k_eff = min(k, num_classes)`, the row stride of `out`.
    ///
    /// Selection runs on the *logits*: softmax is strictly monotone per row,
    /// so the ranking is the one the class probabilities induce, without
    /// paying for the exp/normalize pass. For `k_eff ≤ TOPK_STREAM_MAX` the
    /// logits are never materialized at all — `gemm_bt_bias_topk` streams each
    /// register tile of `H·W₂ + b₂` straight into the selection, skipping
    /// the `batch × num_classes` memory round-trip that dominated this path.
    /// Larger `k` falls back to materialized logits in `ws.probs` plus a
    /// partial sort through `ws.order`; both paths apply the same total
    /// order, so they agree exactly on overlapping `k`. A NaN logit (a
    /// diverged model) ranks below every number on the fallback path, and
    /// never panics either path.
    ///
    /// In steady state (workspace reused across batches of bounded size)
    /// this allocates nothing: `ws.h` (and on the fallback path `ws.probs` /
    /// `ws.order`) are reused and `out` is resized in place. The tie-break
    /// makes the result a pure function of the logits — independent of
    /// selection internals — so served predictions are reproducible bit for
    /// bit.
    ///
    /// # Panics
    /// Panics when `k == 0`, the batch is empty, or the workspace was built
    /// for a different architecture.
    pub fn predict_topk_ws(
        &self,
        x: &CsrMatrix,
        k: usize,
        ws: &mut Workspace,
        out: &mut Vec<u32>,
    ) -> usize {
        assert!(k >= 1, "k must be at least 1");
        let batch = x.rows();
        assert!(batch > 0, "empty batch");
        assert_eq!(x.cols(), self.config.num_features, "input width");
        assert_eq!(
            ws.slot.len(),
            self.config.num_features,
            "workspace/model architecture mismatch"
        );
        let classes = self.config.num_classes;
        let k_eff = k.min(classes);
        ws.h.reshape_in_place(batch, self.config.hidden);
        sops::spmm_bias_relu(x, self.w1(), self.b1(), &mut ws.h);
        out.clear();
        out.resize(batch * k_eff, 0);
        if k_eff <= ops::TOPK_STREAM_MAX {
            ops::gemm_bt_bias_topk(&ws.h, self.w2(), self.b2(), k_eff, out);
        } else {
            ws.probs.reshape_in_place(batch, classes);
            ops::gemm_bt_bias(&ws.h, self.w2(), self.b2(), &mut ws.probs);
            for r in 0..batch {
                let row = ws.probs.row(r);
                // A total order even over NaN logits (a diverged model):
                // numbers first, by value descending; NaN after every
                // number; ids ascending within a tie. `partial_cmp` alone
                // calls NaN equal to everything, which is not an order, and
                // the std selection and sort panic on one.
                let cmp = |a: &u32, b: &u32| {
                    let (va, vb) = (row[*a as usize], row[*b as usize]);
                    (va.is_nan().cmp(&vb.is_nan()))
                        .then(vb.partial_cmp(&va).unwrap_or(std::cmp::Ordering::Equal))
                        .then(a.cmp(b))
                };
                ws.order.clear();
                ws.order.extend(0..classes as u32);
                if k_eff < classes {
                    ws.order.select_nth_unstable_by(k_eff - 1, cmp);
                }
                ws.order[..k_eff].sort_unstable_by(cmp);
                out[r * k_eff..(r + 1) * k_eff].copy_from_slice(&ws.order[..k_eff]);
            }
        }
        k_eff
    }

    /// Allocating wrapper around [`Mlp::predict_topk_ws`]: fresh workspace
    /// per call, returns the row-major `batch × min(k, num_classes)` top-k
    /// class ids. Bit-identical to the workspace path.
    pub fn predict_topk(&self, x: &CsrMatrix, k: usize) -> Vec<u32> {
        let mut ws = Workspace::new(&self.config);
        let mut out = Vec::new();
        self.predict_topk_ws(x, k, &mut ws, &mut out);
        out
    }

    /// Computes the multi-label cross-entropy loss and the gradient, without
    /// touching the parameters. Buffers come from `ws`; the gradients land
    /// in `ws.grads`. In steady state (workspace reused across batches of
    /// bounded size) this performs **no heap allocation**.
    ///
    /// The target distribution of a sample is uniform over its label set
    /// (the SLIDE-testbed convention); label-free samples contribute neither
    /// loss nor gradient.
    ///
    /// # Panics
    /// Panics when the workspace was built for a different architecture or
    /// on a labels/batch length mismatch.
    pub fn loss_and_gradients_ws<L: AsRef<[u32]>>(
        &self,
        x: &CsrMatrix,
        labels: &[L],
        ws: &mut Workspace,
    ) -> f64 {
        assert_eq!(x.cols(), self.config.num_features, "input width");
        assert_eq!(
            ws.slot.len(),
            self.config.num_features,
            "workspace/model architecture mismatch"
        );
        self.params().loss_and_gradients(x, labels, ws)
    }

    /// Allocating wrapper around [`Mlp::loss_and_gradients_ws`]: builds a
    /// fresh [`Workspace`] per call and returns the gradients through
    /// `grads`. Results are bit-identical to the workspace path.
    pub fn loss_and_gradients<L: AsRef<[u32]>>(
        &self,
        x: &CsrMatrix,
        labels: &[L],
        grads: &mut Gradients,
    ) -> f64 {
        let mut ws = Workspace::new(&self.config);
        std::mem::swap(&mut ws.grads, grads);
        let loss = self.loss_and_gradients_ws(x, labels, &mut ws);
        std::mem::swap(&mut ws.grads, grads);
        loss
    }

    /// Applies one SGD step: `θ ← θ − lr·∇θ`.
    pub fn apply_gradients(&mut self, grads: &Gradients, lr: f32) {
        self.params_mut().apply_gradients(grads, lr);
    }

    /// One full SGD step on a batch (forward + backward + update) using
    /// caller-owned buffers; returns the loss and batch statistics used by
    /// the device cost model. This is the trainer hot path: with a reused
    /// workspace, steady-state steps allocate nothing.
    pub fn train_batch_ws<L: AsRef<[u32]>>(
        &mut self,
        x: &CsrMatrix,
        labels: &[L],
        lr: f32,
        ws: &mut Workspace,
    ) -> TrainOutput {
        let loss = self.loss_and_gradients_ws(x, labels, ws);
        self.apply_gradients(&ws.grads, lr);
        TrainOutput {
            loss,
            batch_size: x.rows(),
            batch_nnz: x.nnz(),
        }
    }

    /// Allocating wrapper around [`Mlp::train_batch_ws`] (fresh workspace
    /// per call) — convenient for tests and one-off steps; long-running
    /// loops should hold a [`Workspace`].
    pub fn train_batch<L: AsRef<[u32]>>(
        &mut self,
        x: &CsrMatrix,
        labels: &[L],
        lr: f32,
    ) -> TrainOutput {
        let mut ws = Workspace::new(&self.config);
        self.train_batch_ws(x, labels, lr, &mut ws)
    }

    /// Sampled-softmax twin of [`Mlp::loss_and_gradients_ws`]: the output
    /// layer — forward, softmax, loss, and gradient — is restricted to the
    /// candidate classes `cand` (sorted ascending, deduplicated, and
    /// containing every label of the batch; see
    /// `asgd_slide::CandidateSampler`). The hidden layer is identical to
    /// the dense path. Work and memory on the output layer scale with
    /// `|cand|` instead of `num_classes`, which is what makes full
    /// label-scale training tractable.
    ///
    /// Output-layer gradients stay *compact*, where the kernels write them:
    /// row `i` of the workspace's `|cand| × hidden` `gt` block is `∇W₂ᵀ` of
    /// class `cand[i]`, `b2_scratch[i]` its `∇b₂` (the dense `ws.grads.w2` /
    /// `b2` buffers are untouched); apply them with
    /// [`Mlp::apply_gradients_sampled`] and the same `cand`. `dW₂` active
    /// rows come from the existing `gemm_tn` on the compact dlogits, `dh`
    /// flows through [`asgd_tensor::ops::gemm_nn_gather`] over the
    /// candidates' class-major `W₂` rows, read in place, and the forward
    /// logits come from [`asgd_tensor::ops::gemm_nt_gather_bias`] over the
    /// same rows — all under the crate-wide deterministic reduction
    /// contract, so results are bit-identical at any thread count.
    ///
    /// The candidate softmax normalizes over `cand` only, so losses are a
    /// *sampled* approximation of the dense objective (they track it to
    /// within the negative-sampling bias); per-row loss/`dlogits` math is
    /// otherwise exactly the dense code. In steady state (reused workspace,
    /// bounded batch and candidate count) this allocates nothing.
    ///
    /// # Panics
    /// Panics on shape mismatches, an empty candidate set, or a batch label
    /// missing from `cand`.
    pub fn loss_and_gradients_sampled_ws<L: AsRef<[u32]>>(
        &self,
        x: &CsrMatrix,
        labels: &[L],
        cand: &[u32],
        ws: &mut Workspace,
    ) -> f64 {
        assert_eq!(x.cols(), self.config.num_features, "input width");
        assert_eq!(
            ws.slot.len(),
            self.config.num_features,
            "workspace/model architecture mismatch"
        );
        self.params()
            .loss_and_gradients_sampled(x, labels, cand, cand, ws)
    }

    /// Applies one SGD step from the *sampled* gradients `ws` holds after
    /// [`Mlp::loss_and_gradients_sampled_ws`] over the same `cand`: sparse
    /// `W₁` rows and dense `b₁` exactly as [`Mlp::apply_gradients`]; the
    /// output layer as a sparse row update of the class-major `W₂`, read
    /// straight from the compact `gt` / `b2_scratch` blocks the backward
    /// kernels wrote, row `i` belonging to class `cand[i]`.
    ///
    /// # Panics
    /// Panics when the compact gradient was not computed over a candidate
    /// set of `cand`'s length.
    pub fn apply_gradients_sampled(&mut self, cand: &[u32], lr: f32, ws: &mut Workspace) {
        self.params_mut().apply_gradients_sampled(cand, lr, ws);
    }

    /// One full sampled-softmax SGD step on a batch (forward + backward +
    /// sparse update) — the full-label-scale counterpart of
    /// [`Mlp::train_batch_ws`]. Candidate selection is the caller's job
    /// (`asgd_slide::CandidateSampler`), keeping this crate free of any LSH
    /// dependency and the candidate set an explicit, reproducible input.
    pub fn train_batch_sampled_ws<L: AsRef<[u32]>>(
        &mut self,
        x: &CsrMatrix,
        labels: &[L],
        cand: &[u32],
        lr: f32,
        ws: &mut Workspace,
    ) -> TrainOutput {
        let loss = self.loss_and_gradients_sampled_ws(x, labels, cand, ws);
        self.apply_gradients_sampled(cand, lr, ws);
        TrainOutput {
            loss,
            batch_size: x.rows(),
            batch_nnz: x.nnz(),
        }
    }
}

impl Params<'_> {
    /// The body of [`Mlp::forward_into`] over these parameters: `x`'s
    /// column ids are rows of `w1`, and `w2` / `b2` hold every class in
    /// class order.
    fn forward_into(&self, x: &CsrMatrix, h: &mut Matrix, probs: &mut Matrix) {
        let batch = x.rows();
        h.reshape_in_place(batch, self.w1.cols());
        sops::spmm_bias_relu(x, self.w1, self.b1, h);
        probs.reshape_in_place(batch, self.w2.rows());
        ops::gemm_bt_bias(h, self.w2, self.b2, probs);
        numerics::softmax_rows_inplace(probs);
    }

    /// The body of [`Mlp::loss_and_gradients_ws`] over these parameters,
    /// read as [`Params::forward_into`] reads them.
    pub(crate) fn loss_and_gradients<L: AsRef<[u32]>>(
        &self,
        x: &CsrMatrix,
        labels: &[L],
        ws: &mut Workspace,
    ) -> f64 {
        let batch = x.rows();
        assert_eq!(labels.len(), batch, "labels/batch mismatch");
        assert!(batch > 0, "empty batch");
        assert!(
            ws.slot.len() >= x.cols(),
            "workspace/model architecture mismatch"
        );
        let (hidden, classes) = (self.w1.cols(), self.w2.rows());
        let Workspace {
            h,
            probs,
            dh,
            grads,
            slot,
            arena,
            ..
        } = ws;

        // Forward into the workspace.
        self.forward_into(x, h, probs);

        let loss = loss_and_dlogits(probs, labels, |y| y as usize);

        // Backward. ∇W₂, class-major, = dlogitsᵀ·h: element `(c, k)` is the
        // ascending-row chain of `fma(dlogits[r][c], h[r][k], ·)`, which is
        // `hᵀ·dlogits`'s `(k, c)` term for term (`fma` is symmetric in its
        // factors); db2 = Σ_rows dlogits.
        grads.w2.reshape_in_place(classes, hidden);
        ops::gemm_tn(1.0, probs, h, 0.0, &mut grads.w2);
        col_sums(probs, &mut grads.b2);
        // dh = dlogits·W₂ᵀ, masked by ReLU: a unit-stride `i-k-j` GEMM over
        // the class-major rows as they are stored, each dh element summing
        // over classes in ascending order.
        dh.reshape_in_place(batch, hidden);
        ops::gemm(1.0, probs, self.w2, 0.0, dh);
        numerics::relu_backward_inplace(dh, h);
        // dW1 = Xᵀ·dh ; db1 = Σ_rows dh.
        sparse_weight_grad(x, dh, slot, arena, &mut grads.w1_updates);
        col_sums(dh, &mut grads.b1);
        loss
    }

    /// The body of [`Mlp::loss_and_gradients_sampled_ws`] over these
    /// parameters: `x`'s column ids are rows of `w1`, `cand` the candidate
    /// classes (sorted, deduplicated, every label among them) and `rows[i]`
    /// the row of `w2` / `b2` that holds class `cand[i]`.
    pub(crate) fn loss_and_gradients_sampled<L: AsRef<[u32]>>(
        &self,
        x: &CsrMatrix,
        labels: &[L],
        cand: &[u32],
        rows: &[u32],
        ws: &mut Workspace,
    ) -> f64 {
        let batch = x.rows();
        assert_eq!(labels.len(), batch, "labels/batch mismatch");
        assert!(batch > 0, "empty batch");
        assert!(!cand.is_empty(), "empty candidate set");
        assert_eq!(rows.len(), cand.len(), "one row per candidate");
        assert!(
            ws.slot.len() >= x.cols(),
            "workspace/model architecture mismatch"
        );
        debug_assert!(
            cand.windows(2).all(|w| w[0] < w[1]),
            "candidate set must be sorted and deduplicated"
        );
        let s = cand.len();
        let hidden = self.w1.cols();
        let w2 = self.w2;
        let Workspace {
            h,
            logits_s,
            gathered_b2,
            dh,
            gt,
            b2_scratch,
            grads,
            slot,
            arena,
            ..
        } = ws;

        // Forward: dense hidden layer, candidate-gathered output layer.
        h.reshape_in_place(batch, hidden);
        sops::spmm_bias_relu(x, self.w1, self.b1, h);
        gathered_b2.clear();
        gathered_b2.extend(rows.iter().map(|&r| self.b2[r as usize]));
        logits_s.reshape_in_place(batch, s);
        ops::gemm_nt_gather_bias(h, w2, rows, gathered_b2, logits_s);
        numerics::softmax_rows_inplace(logits_s);

        // The same per-row loss/dlogits math as the dense path, with label
        // positions found in the sorted candidate list.
        let loss = loss_and_dlogits(logits_s, labels, |y| {
            cand.binary_search(&y)
                .expect("label missing from candidate set")
        });

        // Backward. Compact ∇W₂ᵀ rows: dlogitsᵀ·h (the compact dlogits is
        // dense, so the plain kernel applies); compact ∇b₂: column sums.
        gt.reshape_in_place(s, hidden);
        ops::gemm_tn(1.0, logits_s, h, 0.0, gt);
        b2_scratch.resize(s, 0.0);
        col_sums(logits_s, b2_scratch);
        // dh = dlogitsₛ·gather(W₂, rows), masked by ReLU.
        dh.reshape_in_place(batch, hidden);
        ops::gemm_nn_gather(1.0, logits_s, w2, rows, 0.0, dh);
        numerics::relu_backward_inplace(dh, h);
        // dW1 = Xᵀ·dh ; db1 = Σ_rows dh — unchanged from the dense path.
        sparse_weight_grad(x, dh, slot, arena, &mut grads.w1_updates);
        col_sums(dh, &mut grads.b1);
        loss
    }
}

impl ParamsMut<'_> {
    /// The input-layer half of an SGD step, `W₁ ← W₁ − lr·∇W₁` and
    /// `b₁ ← b₁ − lr·∇b₁` — the same on the dense and the sampled path, so
    /// both update routines call this one. `W₁` receives a *sparse* update:
    /// only rows present in the batch have non-zero gradient rows.
    fn apply_hidden_gradients(&mut self, grads: &Gradients, lr: f32) {
        let hidden = self.hidden;
        for &(row, ref grow) in &grads.w1_updates {
            let wrow = &mut self.w1[row as usize * hidden..][..hidden];
            for (w, &g) in wrow.iter_mut().zip(grow) {
                *w -= lr * g;
            }
        }
        ops::axpy(-lr, &grads.b1, self.b1);
    }

    /// The body of [`Mlp::apply_gradients`]: `w2` / `b2` hold every class
    /// in class order.
    pub(crate) fn apply_gradients(&mut self, grads: &Gradients, lr: f32) {
        self.apply_hidden_gradients(grads, lr);
        ops::axpy(-lr, grads.w2.as_slice(), self.w2);
        ops::axpy(-lr, &grads.b2, self.b2);
    }

    /// The body of [`Mlp::apply_gradients_sampled`]: `rows[i]` is the row
    /// of `w2` / `b2` that compact gradient row `i` updates.
    pub(crate) fn apply_gradients_sampled(&mut self, rows: &[u32], lr: f32, ws: &Workspace) {
        assert_eq!(ws.gt.rows(), rows.len(), "gradient/candidate set mismatch");
        self.apply_hidden_gradients(&ws.grads, lr);
        let hidden = self.hidden;
        for (i, &r) in rows.iter().enumerate() {
            let r = r as usize;
            for (w, &g) in self.w2[r * hidden..(r + 1) * hidden]
                .iter_mut()
                .zip(ws.gt.row(i))
            {
                *w -= lr * g;
            }
            self.b2[r] -= lr * ws.b2_scratch[i];
        }
    }
}

/// The mean multi-label cross-entropy of `probs` (one row of class
/// probabilities per sample; the target of a sample is uniform over its
/// label set), and `probs` converted in place into
/// `dlogits = (probs − target) / batch`. `column(y)` is where label `y`
/// sits in a row: itself on the dense path, its position in the candidate
/// list on the sampled one. Label-free samples contribute neither loss nor
/// gradient.
fn loss_and_dlogits<L: AsRef<[u32]>>(
    probs: &mut Matrix,
    labels: &[L],
    column: impl Fn(u32) -> usize,
) -> f64 {
    let mut loss = 0.0f64;
    let mut contributing = 0usize;
    for (r, labs) in labels.iter().enumerate() {
        let labs = labs.as_ref();
        let row = probs.row_mut(r);
        if labs.is_empty() {
            row.fill(0.0);
            continue;
        }
        contributing += 1;
        let w = 1.0 / labs.len() as f32;
        for &y in labs {
            let at = column(y);
            let p = row[at].max(1e-30);
            loss -= (w as f64) * (p as f64).ln();
            row[at] -= w;
        }
    }
    ops::scale(1.0 / labels.len() as f32, probs.as_mut_slice());
    if contributing == 0 {
        0.0
    } else {
        loss / contributing as f64
    }
}

/// `out[j] = Σ_rows m[r][j]`.
fn col_sums(m: &Matrix, out: &mut [f32]) {
    assert_eq!(m.cols(), out.len(), "col_sums width");
    out.fill(0.0);
    for r in 0..m.rows() {
        for (o, &v) in out.iter_mut().zip(m.row(r)) {
            *o += v;
        }
    }
}

/// Computes the sparse rows of `Xᵀ·dh` as `(feature, gradient row)` pairs
/// sorted by feature — the natural gradient layout for a sparse input layer,
/// where updating only touched features is both the correct math and the
/// fast path.
///
/// Allocation-free in steady state: `slot` is a feature → output-index
/// scatter table (`u32::MAX` sentinel, restored before returning) replacing
/// the per-call `HashMap`, and finished gradient rows are recycled through
/// `arena`. Per-feature accumulation happens in batch encounter order —
/// exactly the order the hash-map formulation used — so results match it
/// bit for bit.
fn sparse_weight_grad(
    x: &CsrMatrix,
    dh: &Matrix,
    slot: &mut [u32],
    arena: &mut Vec<Vec<f32>>,
    out: &mut Vec<(u32, Vec<f32>)>,
) {
    let hidden = dh.cols();
    // Recycle the previous batch's rows.
    for (_, mut row) in out.drain(..) {
        row.clear();
        arena.push(row);
    }
    debug_assert!(slot.iter().all(|&s| s == u32::MAX), "stale scatter table");
    for r in 0..x.rows() {
        let (idx, val) = x.row(r);
        let drow = dh.row(r);
        for (&f, &v) in idx.iter().zip(val) {
            let s = slot[f as usize];
            let g = if s == u32::MAX {
                slot[f as usize] = out.len() as u32;
                let mut row = arena.pop().unwrap_or_default();
                row.resize(hidden, 0.0);
                out.push((f, row));
                &mut out.last_mut().expect("just pushed").1
            } else {
                &mut out[s as usize].1
            };
            for (gv, &dv) in g.iter_mut().zip(drow) {
                *gv += v * dv;
            }
        }
    }
    // Reset the sentinels *before* sorting — slots index pre-sort positions.
    for &(f, _) in out.iter() {
        slot[f as usize] = u32::MAX;
    }
    out.sort_unstable_by_key(|(f, _)| *f);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parameter `i` of block `block` (its index in
    /// [`MlpConfig::block_ranges`]), mutably.
    fn param(m: &mut Mlp, block: usize, i: usize) -> &mut f32 {
        let r = m.config.block_ranges()[block].clone();
        &mut m.as_flat_mut()[r][i]
    }
    const W1: usize = 0;
    const W2: usize = 2;
    const B2: usize = 3;

    fn tiny_config() -> MlpConfig {
        MlpConfig {
            num_features: 10,
            hidden: 6,
            num_classes: 4,
        }
    }

    fn tiny_batch() -> (CsrMatrix, Vec<Vec<u32>>) {
        let x = CsrMatrix::from_rows(
            10,
            &[
                (vec![0, 3, 7], vec![1.0, 0.5, 2.0]),
                (vec![2, 3], vec![1.5, -0.5]),
                (vec![9], vec![1.0]),
            ],
        )
        .unwrap();
        let labels = vec![vec![0], vec![1, 3], vec![2]];
        (x, labels)
    }

    #[test]
    fn forward_produces_distributions() {
        let m = Mlp::init(&tiny_config(), 1);
        let (x, _) = tiny_batch();
        let (h, p) = m.forward(&x);
        assert_eq!(h.shape(), (3, 6));
        assert_eq!(p.shape(), (3, 4));
        for r in 0..3 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(h.row(r).iter().all(|&v| v >= 0.0), "ReLU output negative");
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut m = Mlp::init(&tiny_config(), 2);
        let (x, labels) = tiny_batch();
        let first = m.train_batch(&x, &labels, 0.5).loss;
        let mut last = first;
        for _ in 0..50 {
            last = m.train_batch(&x, &labels, 0.5).loss;
        }
        assert!(
            last < first * 0.5,
            "loss did not drop: first {first}, last {last}"
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Check dL/dW2 and dL/dW1 entries against central differences.
        let config = tiny_config();
        let m = Mlp::init(&config, 3);
        let (x, labels) = tiny_batch();
        let mut grads = Gradients::new(&config);
        m.loss_and_gradients(&x, &labels, &mut grads);

        let eps = 1e-3f32;
        let loss_of = |model: &Mlp| {
            let mut g = Gradients::new(&config);
            // loss is averaged over contributing samples: recompute the
            // same quantity the backward pass derives from.
            model.loss_and_gradients(&x, &labels, &mut g)
        };

        // Spot-check a few W2 coordinates (class `j`, hidden unit `i`).
        for &(i, j) in &[(0usize, 0usize), (3, 2), (5, 3)] {
            let at = j * config.hidden + i;
            let mut mp = m.clone();
            *param(&mut mp, W2, at) += eps;
            let mut mm = m.clone();
            *param(&mut mm, W2, at) -= eps;
            let num = (loss_of(&mp) - loss_of(&mm)) / (2.0 * eps as f64);
            // Backward computes gradient of (batch-mean of per-sample loss
            // over batch size), while loss reports mean over contributing
            // samples; here all samples contribute, so scales match.
            let ana = grads.w2.at(j, i) as f64;
            assert!(
                (num - ana).abs() < 5e-3 * (1.0 + ana.abs()),
                "W2[{i}][{j}]: numeric {num} vs analytic {ana}"
            );
        }

        // Spot-check W1 rows for features present in the batch (0, 3, 9)
        // and absent (5).
        let grad_w1 = |f: u32, j: usize| -> f64 {
            grads
                .w1_updates
                .iter()
                .find(|(ff, _)| *ff == f)
                .map(|(_, row)| row[j] as f64)
                .unwrap_or(0.0)
        };
        for &(f, j) in &[(0u32, 1usize), (3, 0), (9, 5), (5, 2)] {
            let at = f as usize * config.hidden + j;
            let mut mp = m.clone();
            *param(&mut mp, W1, at) += eps;
            let mut mm = m.clone();
            *param(&mut mm, W1, at) -= eps;
            let num = (loss_of(&mp) - loss_of(&mm)) / (2.0 * eps as f64);
            let ana = grad_w1(f, j);
            assert!(
                (num - ana).abs() < 5e-3 * (1.0 + ana.abs()),
                "W1[{f}][{j}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn label_free_samples_do_not_contribute() {
        let config = tiny_config();
        let m = Mlp::init(&config, 4);
        let x = CsrMatrix::from_rows(10, &[(vec![1], vec![1.0]), (vec![2], vec![1.0])]).unwrap();
        let labels_with = vec![vec![1u32], vec![]];
        let labels_solo = vec![vec![1u32]];
        let x_solo = x.select_rows(&[0]);
        let mut g_with = Gradients::new(&config);
        let mut g_solo = Gradients::new(&config);
        let l_with = m.loss_and_gradients(&x, &labels_with, &mut g_with);
        let l_solo = m.loss_and_gradients(&x_solo, &labels_solo, &mut g_solo);
        // Same loss (mean over contributing samples)...
        assert!((l_with - l_solo).abs() < 1e-9);
        // ...and the batch-size normalization differs by the factor 2.
        assert!((g_with.w2.at(0, 0) * 2.0 - g_solo.w2.at(0, 0)).abs() < 1e-6);
    }

    #[test]
    fn flat_roundtrip_preserves_model() {
        let config = tiny_config();
        let m = Mlp::init(&config, 5);
        let flat = m.to_flat();
        assert_eq!(flat.len(), config.param_len());
        let mut m2 = Mlp::zeros(&config);
        m2.load_flat(&flat);
        assert_eq!(m, m2);
    }

    #[test]
    fn write_flat_buf_f32_reuses_the_buffer_and_matches_to_flat() {
        let config = tiny_config();
        let a = Mlp::init(&config, 5);
        let b = Mlp::init(&config, 6);
        let mut buf = FlatVec::default();
        a.write_flat_buf(&mut buf);
        assert_eq!(buf, FlatVec::F32(a.to_flat()));
        let ptr = buf.as_ptr_addr();
        b.write_flat_buf(&mut buf);
        assert_eq!(buf, FlatVec::F32(b.to_flat()));
        assert_eq!(buf.as_ptr_addr(), ptr, "recycled write must not reallocate");
        let mut m2 = Mlp::zeros(&config);
        m2.read_flat_buf(&buf);
        assert_eq!(m2, b);
    }

    #[test]
    fn blend_from_flat_buf_f32_matches_flat_space_blend() {
        let config = tiny_config();
        let mut direct = Mlp::init(&config, 5);
        let reference = direct.clone();
        let target = Mlp::init(&config, 6).to_flat();
        let pull = 0.37f32;
        direct.blend_from_flat_buf(&FlatVec::F32(target.clone()), pull);
        let mut flat = reference.to_flat();
        for (w, &z) in flat.iter_mut().zip(&target) {
            *w += pull * (z - *w);
        }
        let mut expect = Mlp::zeros(&config);
        expect.load_flat(&flat);
        assert_eq!(direct, expect);
    }

    #[test]
    fn flat_buf_bf16_roundtrip_is_one_rounding() {
        let config = tiny_config();
        let a = Mlp::init(&config, 5);
        let mut buf = FlatVec::empty(Precision::Bf16);
        a.write_flat_buf(&mut buf);
        assert_eq!(buf.len(), config.param_len());
        assert_eq!(buf.byte_len(), 2 * config.param_len());
        // Import widens exactly: the reloaded model equals quantized(a).
        let mut m2 = Mlp::zeros(&config);
        m2.read_flat_buf(&buf);
        assert_eq!(m2, a.quantized(Precision::Bf16));
        // A second export of the reloaded model is a fixed point (narrow is
        // idempotent on already-narrowed values): same bits.
        let mut buf2 = FlatVec::empty(Precision::Bf16);
        m2.write_flat_buf(&mut buf2);
        assert_eq!(buf, buf2);
        // Recycled bf16 export must not reallocate.
        let ptr = buf.as_ptr_addr();
        a.write_flat_buf(&mut buf);
        assert_eq!(buf.as_ptr_addr(), ptr, "recycled write must not reallocate");
    }

    #[test]
    fn blend_from_flat_buf_bf16_widens_then_blends_in_f32() {
        let config = tiny_config();
        let target = Mlp::init(&config, 6);
        let mut buf = FlatVec::empty(Precision::Bf16);
        target.write_flat_buf(&mut buf);
        let mut direct = Mlp::init(&config, 5);
        let reference = direct.clone();
        direct.blend_from_flat_buf(&buf, 0.37);
        // Spec: widen the bf16 target, then the f32 blend formula.
        let widened: Vec<f32> = match &buf {
            FlatVec::Bf16(v) => v.iter().map(|&b| bf16::widen(b)).collect(),
            _ => unreachable!(),
        };
        let mut expect = reference.clone();
        expect.blend_from_flat_buf(&FlatVec::F32(widened), 0.37);
        assert_eq!(direct, expect);
    }

    #[test]
    fn quantized_f32_is_identity() {
        let config = tiny_config();
        let a = Mlp::init(&config, 9);
        assert_eq!(a.quantized(Precision::F32), a);
        // bf16 quantization is idempotent.
        let q = a.quantized(Precision::Bf16);
        assert_eq!(q.quantized(Precision::Bf16), q);
    }

    #[test]
    fn train_batch_accepts_borrowed_label_slices() {
        let config = tiny_config();
        let (x, labels) = tiny_batch();
        let mut owned = Mlp::init(&config, 5);
        let mut borrowed = owned.clone();
        let out_owned = owned.train_batch(&x, &labels, 0.1);
        let views: Vec<&[u32]> = labels.iter().map(|l| l.as_slice()).collect();
        let out_borrowed = borrowed.train_batch(&x, &views, 0.1);
        assert_eq!(out_owned, out_borrowed);
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn l2_norm_per_param_of_zero_model_is_zero() {
        let m = Mlp::zeros(&tiny_config());
        assert_eq!(m.l2_norm_per_param(), 0.0);
        let m = Mlp::init(&tiny_config(), 6);
        assert!(m.l2_norm_per_param() > 0.0);
    }

    #[test]
    fn l2_norm_per_param_lanes_agree_with_the_serial_chain() {
        // The lane sum against the one add chain it replaced, on random
        // models (a trained step included, so the blocks are not all init
        // draws), to 1e-12 relative.
        for (seed, hidden, classes) in [(3u64, 8usize, 9usize), (5, 24, 36), (9, 64, 301)] {
            let config = MlpConfig {
                num_features: 70,
                hidden,
                num_classes: classes,
            };
            let mut m = Mlp::init(&config, seed);
            let (x, labels) = wide_batch(&config, 12, seed);
            m.train_batch(&x, &labels, 0.3);
            let serial: f64 = m.to_flat().iter().map(|&x| (x as f64) * (x as f64)).sum();
            let serial = serial.sqrt() / m.param_len() as f64;
            let lanes = m.l2_norm_per_param();
            assert!(
                (lanes - serial).abs() <= 1e-12 * serial,
                "{lanes} vs {serial}"
            );
        }
    }

    #[test]
    fn identical_seeds_identical_models() {
        let a = Mlp::init(&tiny_config(), 77);
        let b = Mlp::init(&tiny_config(), 77);
        assert_eq!(a, b);
    }

    /// The serial init `Mlp::init` must reproduce: `W₁` then a
    /// `hidden × num_classes` `W₂` drawn by `layer_init` from one stream,
    /// `W₂` then stored class-major (its transpose), and where the stream
    /// is left.
    fn init_reference(config: &MlpConfig, seed: u64) -> (Mlp, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Mlp::zeros(config);
        let [w1, _, w2, _] = config.block_ranges();
        init::layer_init(&mut m.params[w1], config.num_features, &mut rng);
        let mut drawn = Matrix::zeros(config.hidden, config.num_classes);
        init::layer_init(drawn.as_mut_slice(), config.hidden, &mut rng);
        m.params[w2].copy_from_slice(drawn.transposed().as_slice());
        (m, rng)
    }

    #[test]
    fn init_oracle_mlp_init_is_the_serial_stream() {
        let chunk = init::INIT_CHUNK;
        for (num_features, hidden, num_classes) in [
            // W₁ ends mid-chunk; W₂'s classes fit in one block (a block is
            // `INIT_CHUNK / hidden` classes).
            (chunk / 16 + 7, 16, 37),
            // Both layers shorter than one chunk.
            (30, 8, 11),
            // hidden = 1: W₁ a column, W₂ a row longer than a chunk.
            (500, 1, chunk + 3),
            // num_features = 1.
            (1, 12, 900),
            // W₂ ends mid-block: 1,500 classes in blocks of 1,024.
            (40, 64, 1500),
        ] {
            let config = MlpConfig {
                num_features,
                hidden,
                num_classes,
            };
            let (want, want_rng) = init_reference(&config, 31);
            for threads in [1, 2, 8] {
                asgd_tensor::parallel::override_threads(threads);
                let mut rng = StdRng::seed_from_u64(31);
                let got = Mlp::init_from(&config, &mut rng);
                asgd_tensor::parallel::override_threads(0);
                let same = got
                    .as_flat()
                    .iter()
                    .zip(want.as_flat())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{config:?} at {threads} threads");
                assert_eq!(rng, want_rng, "{config:?}: stream left elsewhere");
                assert_eq!(got, Mlp::init(&config, 31));
            }
        }
    }

    #[test]
    #[should_panic(expected = "flat parameter length")]
    fn load_flat_wrong_length_panics() {
        let mut m = Mlp::zeros(&tiny_config());
        m.load_flat(&[0.0; 3]);
    }

    #[test]
    fn sampled_step_with_full_active_set_matches_dense_step() {
        // When the active set is ALL classes, the sampled update must equal
        // the dense single-sample update exactly.
        let config = tiny_config();
        let mut sampled = Mlp::init(&config, 21);
        let mut dense = sampled.clone();
        let x = CsrMatrix::from_rows(10, &[(vec![1, 4], vec![1.0, -0.5])]).unwrap();
        let labels = vec![vec![2u32]];
        let all: Vec<u32> = (0..config.num_classes as u32).collect();
        let h = sampled.hidden_forward(&x);
        let (idx, val) = x.row(0);
        let loss_s = sampled.train_sample_sampled(idx, val, h.row(0), &[2], &all, 0.1);
        let out_d = dense.train_batch(&x, &labels, 0.1);
        assert!(
            (loss_s - out_d.loss).abs() < 1e-5,
            "{loss_s} vs {}",
            out_d.loss
        );
        let fs = sampled.to_flat();
        let fd = dense.to_flat();
        for (a, b) in fs.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sampled_step_restricted_set_touches_only_active_columns() {
        let config = tiny_config();
        let mut m = Mlp::init(&config, 22);
        let before = m.clone();
        let x = CsrMatrix::from_rows(10, &[(vec![0], vec![1.0])]).unwrap();
        let h = m.hidden_forward(&x);
        let (idx, val) = x.row(0);
        m.train_sample_sampled(idx, val, h.row(0), &[1], &[1, 3], 0.2);
        for c in 0..config.num_classes {
            let changed = m.w2().row(c) != before.w2().row(c);
            assert_eq!(changed, c == 1 || c == 3, "class {c}");
        }
    }

    #[test]
    #[should_panic(expected = "label missing")]
    fn sampled_step_requires_labels_in_active_set() {
        let config = tiny_config();
        let mut m = Mlp::init(&config, 23);
        let x = CsrMatrix::from_rows(10, &[(vec![0], vec![1.0])]).unwrap();
        let h = m.hidden_forward(&x);
        let (idx, val) = x.row(0);
        m.train_sample_sampled(idx, val, h.row(0), &[2], &[0, 1], 0.1);
    }

    #[test]
    fn hidden_forward_matches_full_forward() {
        let m = Mlp::init(&tiny_config(), 24);
        let (x, _) = tiny_batch();
        let h1 = m.hidden_forward(&x);
        let (h2, _) = m.forward(&x);
        assert_eq!(h1, h2);
    }

    #[test]
    fn apply_gradients_is_linear_in_lr() {
        let config = tiny_config();
        let m0 = Mlp::init(&config, 31);
        let (x, labels) = tiny_batch();
        let mut grads = Gradients::new(&config);
        m0.loss_and_gradients(&x, &labels, &mut grads);
        // One step at lr (a+b) == step at a then step at b (same grads).
        let (a, b) = (0.07f32, 0.13f32);
        let mut once = m0.clone();
        once.apply_gradients(&grads, a + b);
        let mut twice = m0.clone();
        twice.apply_gradients(&grads, a);
        twice.apply_gradients(&grads, b);
        let fo = once.to_flat();
        let ft = twice.to_flat();
        for (x, y) in fo.iter().zip(&ft) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_descent_direction_reduces_loss_locally() {
        let config = tiny_config();
        let m = Mlp::init(&config, 32);
        let (x, labels) = tiny_batch();
        let mut grads = Gradients::new(&config);
        let loss0 = m.loss_and_gradients(&x, &labels, &mut grads);
        // A tiny step along -grad must not increase the loss.
        let mut stepped = m.clone();
        stepped.apply_gradients(&grads, 1e-3);
        let mut g2 = Gradients::new(&config);
        let loss1 = stepped.loss_and_gradients(&x, &labels, &mut g2);
        assert!(loss1 <= loss0 + 1e-9, "{loss0} -> {loss1}");
    }

    /// A batch big enough to engage the parallel kernel paths
    /// (`MIN_PAR_ROWS`-wide outputs) with a pseudo-random sparsity pattern.
    fn wide_batch(config: &MlpConfig, batch: usize, seed: u64) -> (CsrMatrix, Vec<Vec<u32>>) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut rows = Vec::with_capacity(batch);
        let mut labels = Vec::with_capacity(batch);
        for _ in 0..batch {
            let nnz = 2 + (next() as usize % 6);
            let mut cols = std::collections::BTreeSet::new();
            for _ in 0..nnz {
                cols.insert((next() as usize % config.num_features) as u32);
            }
            let idx: Vec<u32> = cols.into_iter().collect();
            let val: Vec<f32> = idx
                .iter()
                .map(|_| (next() % 9) as f32 / 4.0 - 1.0)
                .collect();
            rows.push((idx, val));
            labels.push(vec![(next() as usize % config.num_classes) as u32]);
        }
        let x = CsrMatrix::from_rows(config.num_features, &rows).unwrap();
        (x, labels)
    }

    #[test]
    fn train_batch_bit_identical_across_thread_counts() {
        // End-to-end determinism over the worker pool: identical parameters
        // after a training step at 1 thread and at 8 threads.
        let config = MlpConfig {
            num_features: 80,
            hidden: 32,
            num_classes: 48,
        };
        let (x, labels) = wide_batch(&config, 64, 17);
        let run = |threads: usize| {
            asgd_tensor::parallel::override_threads(threads);
            let mut m = Mlp::init(&config, 41);
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(m.train_batch(&x, &labels, 0.05).loss.to_bits());
            }
            (m.to_flat(), losses)
        };
        let single = run(1);
        let eight = run(8);
        asgd_tensor::parallel::override_threads(0);
        assert_eq!(single.1, eight.1, "losses diverged");
        assert_eq!(single.0, eight.0, "parameters diverged");
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation() {
        // Two consecutive steps through ONE workspace must match two
        // fresh-allocation steps bit for bit — stale buffer contents must
        // never leak into results.
        let config = MlpConfig {
            num_features: 70,
            hidden: 24,
            num_classes: 36,
        };
        let (xa, la) = wide_batch(&config, 48, 5);
        let (xb, lb) = wide_batch(&config, 32, 6); // smaller: shrink path
        let (xc, lc) = wide_batch(&config, 48, 7); // regrow path

        let mut reused = Mlp::init(&config, 9);
        let mut fresh = reused.clone();
        let mut ws = crate::workspace::Workspace::new(&config);

        for (x, labels) in [(&xa, &la), (&xb, &lb), (&xc, &lc)] {
            let out_ws = reused.train_batch_ws(x, labels, 0.1, &mut ws);
            let out_alloc = fresh.train_batch(x, labels, 0.1);
            assert_eq!(out_ws.loss.to_bits(), out_alloc.loss.to_bits());
            assert_eq!(out_ws.batch_size, out_alloc.batch_size);
        }
        assert_eq!(reused.to_flat(), fresh.to_flat());
    }

    #[test]
    fn workspace_steady_state_does_not_reallocate_matrices() {
        // After the first (largest) batch, repeated steps must reuse the
        // exact same backing buffers — the zero-allocation guarantee.
        let config = MlpConfig {
            num_features: 70,
            hidden: 24,
            num_classes: 36,
        };
        let (x, labels) = wide_batch(&config, 48, 5);
        let mut m = Mlp::init(&config, 9);
        let mut ws = crate::workspace::Workspace::new(&config);
        m.train_batch_ws(&x, &labels, 0.1, &mut ws);
        let ptrs = (
            ws.h.as_slice().as_ptr(),
            ws.probs.as_slice().as_ptr(),
            ws.dh.as_slice().as_ptr(),
            ws.grads.w2.as_slice().as_ptr(),
        );
        let rows_cap = ws.grads.w1_updates.capacity();
        for _ in 0..3 {
            m.train_batch_ws(&x, &labels, 0.1, &mut ws);
        }
        assert_eq!(ptrs.0, ws.h.as_slice().as_ptr());
        assert_eq!(ptrs.1, ws.probs.as_slice().as_ptr());
        assert_eq!(ptrs.2, ws.dh.as_slice().as_ptr());
        assert_eq!(ptrs.3, ws.grads.w2.as_slice().as_ptr());
        assert_eq!(rows_cap, ws.grads.w1_updates.capacity());
    }

    #[test]
    fn predict_topk_orders_by_probability_with_id_tiebreak() {
        let config = tiny_config();
        let m = Mlp::init(&config, 51);
        let (x, _) = tiny_batch();
        let (_, probs) = m.forward(&x);
        let top = m.predict_topk(&x, 4);
        assert_eq!(top.len(), 3 * 4);
        for r in 0..3 {
            let row = probs.row(r);
            let ids = &top[r * 4..(r + 1) * 4];
            // Row covers all classes exactly once (k == num_classes)...
            let mut sorted = ids.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            // ...in non-increasing probability order.
            for w in ids.windows(2) {
                let (pa, pb) = (row[w[0] as usize], row[w[1] as usize]);
                assert!(pa > pb || (pa == pb && w[0] < w[1]));
            }
        }
    }

    #[test]
    fn predict_topk_ws_reuse_is_bit_identical_to_fresh() {
        let config = MlpConfig {
            num_features: 70,
            hidden: 24,
            num_classes: 36,
        };
        let m = Mlp::init(&config, 52);
        let (xa, _) = wide_batch(&config, 48, 5);
        let (xb, _) = wide_batch(&config, 32, 6); // shrink path
        let (xc, _) = wide_batch(&config, 48, 7); // regrow path
        let mut ws = Workspace::new(&config);
        let mut out = Vec::new();
        for x in [&xa, &xb, &xc] {
            let k_eff = m.predict_topk_ws(x, 5, &mut ws, &mut out);
            assert_eq!(k_eff, 5);
            assert_eq!(out, m.predict_topk(x, 5), "stale workspace leaked");
        }
        // A workspace that already trained serves predictions unchanged.
        let mut trained_ws = Workspace::new(&config);
        let mut m2 = m.clone();
        let (xt, lt) = wide_batch(&config, 48, 8);
        m2.train_batch_ws(&xt, &lt, 0.1, &mut trained_ws);
        m2.predict_topk_ws(&xa, 5, &mut trained_ws, &mut out);
        assert_eq!(out, m2.predict_topk(&xa, 5));
    }

    #[test]
    fn predict_topk_steady_state_does_not_reallocate() {
        let config = MlpConfig {
            num_features: 70,
            hidden: 24,
            num_classes: 36,
        };
        let m = Mlp::init(&config, 53);
        let (x, _) = wide_batch(&config, 48, 9);
        let mut ws = Workspace::new(&config);
        let mut out = Vec::new();
        m.predict_topk_ws(&x, 5, &mut ws, &mut out);
        let ptrs = (
            ws.h.as_slice().as_ptr(),
            ws.probs.as_slice().as_ptr(),
            ws.order.as_ptr(),
            out.as_ptr(),
        );
        for _ in 0..3 {
            m.predict_topk_ws(&x, 5, &mut ws, &mut out);
        }
        assert_eq!(ptrs.0, ws.h.as_slice().as_ptr());
        assert_eq!(ptrs.1, ws.probs.as_slice().as_ptr());
        assert_eq!(ptrs.2, ws.order.as_ptr());
        assert_eq!(ptrs.3, out.as_ptr());
    }

    #[test]
    fn predict_topk_streaming_and_fallback_paths_agree() {
        // k ≤ TOPK_STREAM_MAX runs the fused streaming kernel; larger k
        // materializes logits and partial-sorts. Both apply the same
        // (score desc, id asc) total order, so the fallback's prefix must
        // equal the streaming result exactly.
        let config = MlpConfig {
            num_features: 80,
            hidden: 32,
            num_classes: 48,
        };
        let m = Mlp::init(&config, 56);
        let (x, _) = wide_batch(&config, 20, 18);
        let kmax = asgd_tensor::ops::TOPK_STREAM_MAX;
        let stream = m.predict_topk(&x, kmax);
        let fallback = m.predict_topk(&x, kmax + 1);
        for r in 0..20 {
            assert_eq!(
                &stream[r * kmax..(r + 1) * kmax],
                &fallback[r * (kmax + 1)..r * (kmax + 1) + kmax],
                "row {r}"
            );
        }
    }

    #[test]
    fn predict_topk_fallback_ranks_nan_logits_last_and_never_panics() {
        // A diverged model: every third class has a NaN output weight, so
        // its logit is NaN in every row. Beyond `TOPK_STREAM_MAX` the
        // selection is std's `select_nth_unstable_by` + `sort_unstable_by`,
        // which panic on a comparator that is not a total order.
        let config = MlpConfig {
            num_features: 8,
            hidden: 4,
            num_classes: 300,
        };
        let mut m = Mlp::init(&config, 57);
        for c in (0..config.num_classes).step_by(3) {
            *param(&mut m, W2, c * config.hidden) = f32::NAN;
        }
        let rows = [
            (vec![0u32, 3], vec![1.0f32, -0.5]),
            (vec![1, 2, 7], vec![0.5, 0.25, 2.0]),
            (vec![5], vec![1.5]),
        ];
        let x = CsrMatrix::from_rows(8, &rows).unwrap();
        let mut logits = Matrix::zeros(3, config.num_classes);
        ops::gemm_bt_bias(&m.hidden_forward(&x), m.w2(), m.b2(), &mut logits);
        for k in [33usize, 64, config.num_classes] {
            let top = m.predict_topk(&x, k);
            assert_eq!(top.len(), 3 * k);
            for (r, ids) in top.chunks(k).enumerate() {
                let row = logits.row(r);
                // The spec, spelled independently: numbers by (value desc,
                // id asc), then the NaN classes by id.
                let mut order: Vec<u32> = (0..config.num_classes as u32).collect();
                order.sort_by(|&a, &b| {
                    let (va, vb) = (row[a as usize], row[b as usize]);
                    match (va.is_nan(), vb.is_nan()) {
                        (false, false) => vb.partial_cmp(&va).unwrap().then(a.cmp(&b)),
                        (a_nan, b_nan) => a_nan.cmp(&b_nan).then(a.cmp(&b)),
                    }
                });
                assert_eq!(ids, &order[..k], "row {r} k {k}");
            }
        }
    }

    #[test]
    fn predict_topk_is_independent_of_batch_composition() {
        // The streaming kernel scores blocks of up to 128 rows panel by
        // panel, in groups of 4; a row's ids must not show where in a block
        // or group it sat. Two class rows of `W₂` on either
        // side of the first panel boundary (of a lane boundary at 15
        // classes) are exact duplicates with the highest bias: every row's
        // top two, lower id first. With `nan`, class 3 has a NaN logit in
        // every row — at k = 1 a rejected candidate, at larger k an entry
        // that blocks the list behind it; either way the same list whatever
        // the batch.
        let rows = 300;
        for (classes, nan) in [15usize, 257, 6701]
            .into_iter()
            .flat_map(|c| [(c, false), (c, true)])
        {
            let config = MlpConfig {
                num_features: 40,
                hidden: 8,
                num_classes: classes,
            };
            let mut m = Mlp::init(&config, 61);
            let (lo, hi) = if classes > 256 { (255, 256) } else { (7, 8) };
            let v = m.w2().row(lo).to_vec();
            m.w2_mut()[hi * config.hidden..(hi + 1) * config.hidden].copy_from_slice(&v);
            *param(&mut m, B2, lo) = 50.0;
            *param(&mut m, B2, hi) = 50.0;
            if nan {
                *param(&mut m, B2, 3) = f32::NAN;
            }
            let (x, _) = wide_batch(&config, rows, 23);
            for k in [1usize, 5, 32] {
                let k_eff = k.min(classes);
                let whole = m.predict_topk(&x, k);
                assert_eq!(whole.len(), rows * k_eff);
                for ids in whole.chunks(k_eff).filter(|_| !nan) {
                    assert_eq!(ids[0], lo as u32, "tie must resolve to the lower id");
                    if k_eff > 1 {
                        assert_eq!(ids[1], hi as u32);
                    }
                }
                let mut ws = Workspace::new(&config);
                let mut out = Vec::new();
                for batch in [1usize, 4, 5, 15, 16, 31, 32, 33, 127, 128, 129] {
                    let mut pieced = Vec::with_capacity(whole.len());
                    for start in (0..rows).step_by(batch) {
                        let ids: Vec<usize> = (start..(start + batch).min(rows)).collect();
                        m.predict_topk_ws(&x.select_rows(&ids), k, &mut ws, &mut out);
                        pieced.extend_from_slice(&out);
                    }
                    assert_eq!(
                        pieced, whole,
                        "classes {classes} nan {nan} k {k} batches of {batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_topk_bit_identical_across_thread_counts() {
        let config = MlpConfig {
            num_features: 80,
            hidden: 32,
            num_classes: 48,
        };
        let (x, _) = wide_batch(&config, 64, 17);
        let m = Mlp::init(&config, 54);
        asgd_tensor::parallel::override_threads(1);
        let single = m.predict_topk(&x, 5);
        asgd_tensor::parallel::override_threads(8);
        let eight = m.predict_topk(&x, 5);
        asgd_tensor::parallel::override_threads(0);
        assert_eq!(single, eight, "predictions diverged across thread counts");
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn predict_topk_rejects_zero_k() {
        let m = Mlp::init(&tiny_config(), 55);
        let (x, _) = tiny_batch();
        let _ = m.predict_topk(&x, 0);
    }

    /// Candidate set for sampled-path tests: the union of all batch labels
    /// plus a deterministic spread of negatives, sorted and deduplicated.
    fn cand_for(labels: &[Vec<u32>], config: &MlpConfig, extra_stride: usize) -> Vec<u32> {
        let mut cand: Vec<u32> = labels.iter().flat_map(|l| l.iter().copied()).collect();
        cand.extend(
            (0..config.num_classes)
                .step_by(extra_stride)
                .map(|c| c as u32),
        );
        cand.sort_unstable();
        cand.dedup();
        cand
    }

    #[test]
    fn sampled_batch_with_all_classes_tracks_dense_batch() {
        // With the candidate set covering every class, the sampled softmax
        // is the dense objective computed through the gathered kernels —
        // same real arithmetic, different rounding. Losses and parameters
        // must agree to float tolerance over several steps.
        let config = tiny_config();
        let mut dense = Mlp::init(&config, 61);
        let mut sampled = dense.clone();
        let (x, labels) = tiny_batch();
        let cand: Vec<u32> = (0..config.num_classes as u32).collect();
        let mut ws = Workspace::new(&config);
        for _ in 0..5 {
            let ld = dense.train_batch(&x, &labels, 0.2).loss;
            let ls = sampled
                .train_batch_sampled_ws(&x, &labels, &cand, 0.2, &mut ws)
                .loss;
            assert!((ld - ls).abs() < 1e-4, "loss diverged: {ld} vs {ls}");
        }
        let fd = dense.to_flat();
        let fs = sampled.to_flat();
        for (a, b) in fd.iter().zip(&fs) {
            assert!((a - b).abs() < 1e-3, "parameter diverged: {a} vs {b}");
        }
    }

    #[test]
    fn sampled_batch_touches_only_candidate_output_columns() {
        let config = tiny_config();
        let mut m = Mlp::init(&config, 62);
        let before = m.clone();

        let x = CsrMatrix::from_rows(10, &[(vec![0, 3], vec![1.0, 0.5])]).unwrap();
        let labels = vec![vec![1u32]];
        let mut ws = Workspace::new(&config);
        m.train_batch_sampled_ws(&x, &labels, &[1u32, 3], 0.3, &mut ws);
        for c in 0..config.num_classes {
            let changed = m.w2().row(c) != before.w2().row(c) || m.b2()[c] != before.b2()[c];
            assert_eq!(changed, c == 1 || c == 3, "class {c}");
        }
    }

    #[test]
    #[should_panic(expected = "label missing from candidate set")]
    fn sampled_batch_requires_labels_in_candidates() {
        let config = tiny_config();
        let m = Mlp::init(&config, 63);
        let x = CsrMatrix::from_rows(10, &[(vec![0], vec![1.0])]).unwrap();
        let labels = vec![vec![2u32]];
        let mut ws = Workspace::new(&config);
        m.loss_and_gradients_sampled_ws(&x, &labels, &[0u32, 1], &mut ws);
    }

    #[test]
    fn sampled_train_bit_identical_across_thread_counts() {
        let config = MlpConfig {
            num_features: 80,
            hidden: 32,
            num_classes: 48,
        };
        let (x, labels) = wide_batch(&config, 64, 19);
        let cand = cand_for(&labels, &config, 5);
        let run = |threads: usize| {
            asgd_tensor::parallel::override_threads(threads);
            let mut m = Mlp::init(&config, 64);
            let mut ws = Workspace::new(&config);
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(
                    m.train_batch_sampled_ws(&x, &labels, &cand, 0.05, &mut ws)
                        .loss
                        .to_bits(),
                );
            }
            (m.to_flat(), losses)
        };
        let single = run(1);
        let eight = run(8);
        asgd_tensor::parallel::override_threads(0);
        assert_eq!(single.1, eight.1, "losses diverged");
        assert_eq!(single.0, eight.0, "parameters diverged");
    }

    #[test]
    fn sampled_workspace_reuse_is_bit_identical_to_fresh() {
        // A reused workspace carries nothing between steps that a fresh
        // one lacks: every buffer a step reads back, it wrote first.
        let config = MlpConfig {
            num_features: 70,
            hidden: 24,
            num_classes: 36,
        };
        let batches = [
            wide_batch(&config, 48, 11),
            wide_batch(&config, 32, 12), // shrink path
            wide_batch(&config, 48, 13), // regrow path
        ];
        let mut reused = Mlp::init(&config, 14);
        let mut fresh = reused.clone();
        let mut ws = Workspace::new(&config);
        for (i, (x, labels)) in batches.iter().enumerate() {
            let cand = cand_for(labels, &config, 3 + i); // vary |cand| too
            let a = reused.train_batch_sampled_ws(x, labels, &cand, 0.1, &mut ws);
            let mut ws_fresh = Workspace::new(&config);
            let b = fresh.train_batch_sampled_ws(x, labels, &cand, 0.1, &mut ws_fresh);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "batch {i}");
        }
        assert_eq!(reused.to_flat(), fresh.to_flat());

        // A wholesale W₂ mutation (model blend) must invalidate the cache:
        // the next step through the long-lived workspace still matches.
        let target = FlatVec::F32(Mlp::init(&config, 15).to_flat());
        reused.blend_from_flat_buf(&target, 0.5);
        fresh.blend_from_flat_buf(&target, 0.5);
        let (x, labels) = &batches[0];
        let cand = cand_for(labels, &config, 3);
        let a = reused.train_batch_sampled_ws(x, labels, &cand, 0.1, &mut ws);
        let mut ws_fresh = Workspace::new(&config);
        let b = fresh.train_batch_sampled_ws(x, labels, &cand, 0.1, &mut ws_fresh);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "post-blend step");
        assert_eq!(reused.to_flat(), fresh.to_flat());
    }

    #[test]
    fn sampled_steady_state_does_not_reallocate() {
        let config = MlpConfig {
            num_features: 70,
            hidden: 24,
            num_classes: 36,
        };
        let (x, labels) = wide_batch(&config, 48, 16);
        let cand = cand_for(&labels, &config, 4);
        let mut m = Mlp::init(&config, 17);
        let mut ws = Workspace::new(&config);
        m.train_batch_sampled_ws(&x, &labels, &cand, 0.1, &mut ws);
        let ptrs = (
            ws.h.as_slice().as_ptr(),
            ws.logits_s.as_slice().as_ptr(),
            ws.gt.as_slice().as_ptr(),
            ws.gathered_b2.as_ptr(),
            ws.b2_scratch.as_ptr(),
            ws.dh.as_slice().as_ptr(),
        );
        let rows_cap = ws.grads.w1_updates.capacity();
        for _ in 0..3 {
            m.train_batch_sampled_ws(&x, &labels, &cand, 0.1, &mut ws);
        }
        assert_eq!(ptrs.0, ws.h.as_slice().as_ptr());
        assert_eq!(ptrs.1, ws.logits_s.as_slice().as_ptr());
        assert_eq!(ptrs.2, ws.gt.as_slice().as_ptr());
        assert_eq!(ptrs.3, ws.gathered_b2.as_ptr());
        assert_eq!(ptrs.4, ws.b2_scratch.as_ptr());
        assert_eq!(ptrs.5, ws.dh.as_slice().as_ptr());
        assert_eq!(rows_cap, ws.grads.w1_updates.capacity());
    }

    /// Counts the heap allocations each thread makes; otherwise `System`.
    struct CountingAlloc;

    thread_local! {
        static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: every method hands its arguments to `System` unchanged, so
    // `System`'s guarantees are this allocator's; the counter is a
    // const-initialized thread-local `Cell`, read and written without
    // allocating (`try_with`: a thread being torn down simply is not counted).
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            std::alloc::System.alloc(layout)
        }
        // SAFETY: forwarded unchanged, as above.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
        // SAFETY: forwarded unchanged, as above.
        unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            std::alloc::System.realloc(ptr, layout, new)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    #[test]
    fn sampled_steady_state_allocates_nothing() {
        // The update step reads the compact `gt` / `b2_scratch` blocks in
        // place, so once the buffers have grown a sampled step must not
        // touch the heap at all. Every row count here (batch, candidates)
        // stays below `MIN_PAR_ROWS`: no kernel enters the pool, so what is
        // counted is the step itself.
        let config = MlpConfig {
            num_features: 70,
            hidden: 24,
            num_classes: 36,
        };
        let (x, labels) = wide_batch(&config, 12, 16);
        let cand = cand_for(&labels, &config, 12);
        assert!(cand.len() < asgd_tensor::parallel::MIN_PAR_ROWS);
        let mut m = Mlp::init(&config, 17);
        let mut ws = Workspace::new(&config);
        for _ in 0..2 {
            m.train_batch_sampled_ws(&x, &labels, &cand, 0.1, &mut ws);
        }
        let before = ALLOCATIONS.with(|n| n.get());
        for _ in 0..3 {
            m.train_batch_sampled_ws(&x, &labels, &cand, 0.1, &mut ws);
        }
        assert_eq!(
            ALLOCATIONS.with(|n| n.get()),
            before,
            "a warm step allocated"
        );

        // The same steps through an overlay on `m`: once its slot buffers
        // have grown, neither a warm step (the batch reselected into one
        // CSR buffer, its columns renamed in place) nor an import — which
        // forgets the slots and keeps their buffers — touches the heap.
        let all: Vec<usize> = (0..x.rows()).collect();
        let mut batch = x.select_rows(&all);
        let mut overlay = crate::Overlay::new(&config, FlatRef::F32(m.as_flat()));
        let mut ows = Workspace::new(&config);
        for _ in 0..2 {
            x.select_rows_into(&all, &mut batch);
            let base = FlatRef::F32(m.as_flat());
            overlay.train_batch_sampled_ws(base, &mut batch, &labels, &cand, 0.1, &mut ows);
        }
        let before = ALLOCATIONS.with(|n| n.get());
        for step in 0..4 {
            if step == 2 {
                overlay.import(FlatRef::F32(m.as_flat()));
            }
            x.select_rows_into(&all, &mut batch);
            let base = FlatRef::F32(m.as_flat());
            overlay.train_batch_sampled_ws(base, &mut batch, &labels, &cand, 0.1, &mut ows);
        }
        assert_eq!(
            ALLOCATIONS.with(|n| n.get()),
            before,
            "a warm overlay step or an import allocated"
        );
    }

    #[test]
    fn dense_steady_state_allocates_nothing() {
        // The dense step under the same counter: once the workspace has
        // grown, a warm step touches no heap. Batch and hidden rows stay
        // below `MIN_PAR_ROWS`, so the batch-row kernels (whose sparse
        // tile grids would allocate) never fork. The class-major
        // `∇W₂ = dlogitsᵀ·h` GEMM has `classes` output rows and forks
        // whenever the pool is on; `par_chunks_mut` computes each range in
        // its task, so the fork allocates nothing either. With more classes
        // than `KC` the `dH = dO·W₂ᵀ` product runs in K blocks, whose
        // partial sums live in a per-thread scratch that a warm step
        // reuses, as do the transposed `W₂` panels of the forward.
        for num_classes in [36, asgd_tensor::kernels::KC * 2 + 37] {
            let config = MlpConfig {
                num_features: 70,
                hidden: 12,
                num_classes,
            };
            let (x, labels) = wide_batch(&config, 12, 16);
            assert!(x.rows().max(config.hidden) < asgd_tensor::parallel::MIN_PAR_ROWS);
            let mut m = Mlp::init(&config, 17);
            let mut ws = Workspace::new(&config);
            for _ in 0..2 {
                m.train_batch_ws(&x, &labels, 0.1, &mut ws);
            }
            let before = ALLOCATIONS.with(|n| n.get());
            for _ in 0..3 {
                m.train_batch_ws(&x, &labels, 0.1, &mut ws);
            }
            assert_eq!(
                ALLOCATIONS.with(|n| n.get()),
                before,
                "a warm dense step allocated ({num_classes} classes)"
            );
        }
    }

    #[test]
    fn warm_serving_block_allocates_only_the_pool_forks() {
        // A serving block as `run_session` scores it: 256 pool rows selected
        // into a reused CSR matrix, then `predict_topk_ws` through the packed
        // top-k. Warm, with the pool off it touches no heap. With the pool on
        // exactly two allocations remain, the partitions of a fork:
        // `spmm_bias_relu`'s tile grid (its nnz-balanced row ranges and its
        // column blocks, a `Vec` each). `gemm_bias_topk` forks through
        // `par_chunks_mut`, which allocates nothing. Threads are forced (other tests here leave them alone), so
        // the count holds at any `ASGD_THREADS`.
        let config = MlpConfig {
            num_features: 300,
            hidden: 8,
            num_classes: 700,
        };
        let (pool, _) = wide_batch(&config, 512, 41);
        let ids: Vec<usize> = (0..256).map(|i| i * 7 % 512).collect();
        let m = Mlp::init(&config, 43);
        let mut ws = Workspace::new(&config);
        let mut x = CsrMatrix::zeros(0, config.num_features);
        let mut top = Vec::new();
        let mut warm_block = |threads: usize| {
            asgd_tensor::parallel::override_threads(threads);
            let mut score = || {
                pool.select_rows_into(&ids, &mut x);
                m.predict_topk_ws(&x, 5, &mut ws, &mut top)
            };
            score();
            score();
            let before = ALLOCATIONS.with(|n| n.get());
            score();
            let allocated = ALLOCATIONS.with(|n| n.get()) - before;
            asgd_tensor::parallel::override_threads(0);
            allocated
        };
        assert_eq!(warm_block(1), 0, "a warm block allocated with the pool off");
        assert_eq!(
            warm_block(2),
            2,
            "a warm block allocated beyond its fork partitions"
        );
    }

    #[test]
    fn eval_allocates_per_call_not_per_chunk() {
        // Both eval metrics select each chunk's rows into one reused CSR
        // buffer: with every row the same (so no chunk outgrows the first)
        // and the pool off, six 8-row chunks allocate exactly what one
        // does — the buffers' first growth, once. (The kernels' per-thread
        // panel scratch is grown by a first call beforehand.)
        let config = MlpConfig {
            num_features: 300,
            hidden: 8,
            num_classes: 700,
        };
        let (pool, labels) = wide_batch(&config, 4, 47);
        let m = Mlp::init(&config, 53);
        asgd_tensor::parallel::override_threads(1);
        let count = |rows: usize| {
            let x = pool.select_rows(&vec![2; rows]);
            let labels = vec![labels[2].clone(); rows];
            let before = ALLOCATIONS.with(|n| n.get());
            let top1 = crate::eval::top1_accuracy(&m, &x, &labels, 8);
            let p5 = crate::eval::precision_at_k(&m, &x, &labels, 5, 8);
            (ALLOCATIONS.with(|n| n.get()) - before, top1, p5)
        };
        count(8);
        let (one, top1, p5) = count(8);
        let (six, top1_6, p5_6) = count(48);
        asgd_tensor::parallel::override_threads(0);
        assert_eq!(
            (top1.to_bits(), p5.to_bits()),
            (top1_6.to_bits(), p5_6.to_bits())
        );
        assert_eq!(six, one, "an eval chunk allocated");
    }

    #[test]
    fn avx2_leaves_and_portable_paths_train_bit_identically() {
        // The whole numeric layer under one switch: a dense and a sampled
        // step (spmm, every GEMM layout, the gathered kernels, softmax, both
        // update routines) with the AVX2+FMA leaves on and off.
        let config = MlpConfig {
            num_features: 80,
            hidden: 32,
            num_classes: 48,
        };
        let (x, labels) = wide_batch(&config, 64, 29);
        let cand = cand_for(&labels, &config, 5);
        let run = |portable: bool| {
            asgd_tensor::kernels::force_portable(portable);
            let mut dense = Mlp::init(&config, 71);
            let mut sampled = dense.clone();
            let mut ws = Workspace::new(&config);
            let dense_loss = dense.train_batch_ws(&x, &labels, 0.05, &mut ws).loss;
            let sampled_loss = sampled
                .train_batch_sampled_ws(&x, &labels, &cand, 0.05, &mut ws)
                .loss;
            asgd_tensor::kernels::force_portable(false);
            let bits = |m: &Mlp| m.to_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (
                dense_loss.to_bits(),
                sampled_loss.to_bits(),
                bits(&dense),
                bits(&sampled),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sparse_update_only_touches_batch_features() {
        let config = tiny_config();
        let mut m = Mlp::init(&config, 8);
        let before = m.clone();
        let x = CsrMatrix::from_rows(10, &[(vec![2, 4], vec![1.0, 1.0])]).unwrap();
        m.train_batch(&x, &[vec![0]], 0.1);
        for f in 0..10usize {
            let changed = m.w1().row(f) != before.w1().row(f);
            assert_eq!(changed, f == 2 || f == 4, "feature {f}");
        }
    }
}
