//! Algorithm 2 (Normalized Model Merging) and the global-model update.

use crate::hyper::GpuHyper;
use asgd_collective::{
    allreduce_tiled, split_shares, tile_shares, Algorithm, AllReduceTiming, CollectiveContext,
    InterNode, ReducePlan, Src, TilePart, MAX_DEVICES, TILE_ELEMS,
};
use asgd_gpusim::SimTime;
use asgd_model::Overlay;
use asgd_tensor::bf16::ReduceElem;
use asgd_tensor::kernels::SqLanes;
use asgd_tensor::{FlatRef, FlatVec};
use std::ops::Range;

/// Parameters of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeParams {
    /// Perturbation threshold `pert_thr` on the L2-norm-per-parameter of
    /// every replica (paper default 0.1).
    pub pert_thr: f64,
    /// Perturbation factor `δ` (paper default 0.1).
    pub delta: f64,
    /// Momentum `γ` of the global-model update (paper default 0.9).
    pub gamma: f64,
    /// Weight normalization when update counts differ (Algorithm 2 uses
    /// [`Normalization::UpdateCount`]).
    pub normalization: Normalization,
}

impl Default for MergeParams {
    fn default() -> Self {
        MergeParams {
            pert_thr: 0.1,
            delta: 0.1,
            gamma: 0.9,
            normalization: Normalization::UpdateCount,
        }
    }
}

/// How weights are normalized when update counts differ across replicas.
///
/// Algorithm 2 normalizes by update count alone; the paper notes that "an
/// alternative for later stages is to normalize based on the product between
/// the number of updates and the batch size" (§III-B) — kept here as an
/// ablation/extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Update count (Algorithm 2 as published).
    #[default]
    UpdateCount,
    /// `u_i · b_i` — favors replicas with many updates *and* accurate
    /// (large-batch) gradients.
    UpdateTimesBatch,
}

/// The outcome of the weight computation: the merge weights and which paths
/// of Algorithm 2 fired (recorded for Fig. 6b).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeDecision {
    /// Per-GPU merge weights `α_i` (normalized before perturbation).
    pub weights: Vec<f64>,
    /// Whether weights were normalized by update counts (`true`) or batch
    /// sizes (`false`, the equal-update-count case).
    pub by_updates: bool,
    /// Whether the perturbation branch fired (all replicas well-regularized).
    pub perturbed: bool,
}

/// **Algorithm 2, lines 1–7** — computes the normalized (and possibly
/// perturbed) merge weights.
///
/// * equal update counts everywhere → normalize by batch size (larger
///   batches produce more accurate gradients);
/// * otherwise → normalize by update count (prioritize replicas that are
///   further along the optimization);
/// * when every replica's L2-norm-per-parameter is below `pert_thr`, boost
///   the most-updated replica by `(1+δ)` and damp the least-updated by
///   `(1−δ)` — deliberately denormalizing, which is safe only because all
///   replicas are well-regularized.
pub fn compute_merge_weights(
    gpus: &[GpuHyper],
    norms_per_param: &[f64],
    params: &MergeParams,
) -> MergeDecision {
    assert_eq!(gpus.len(), norms_per_param.len(), "norms length mismatch");
    let well_regularized = norms_per_param.iter().all(|&nm| nm < params.pert_thr);
    merge_weights(gpus, well_regularized, params)
}

/// [`compute_merge_weights`] with the perturbation gate already decided:
/// `well_regularized` is whether every replica's L2-norm-per-parameter is
/// below `pert_thr` — the one thing Algorithm 2 reads the norms for.
pub fn merge_weights(
    gpus: &[GpuHyper],
    well_regularized: bool,
    params: &MergeParams,
) -> MergeDecision {
    let normalization = params.normalization;
    assert!(!gpus.is_empty(), "no replicas to merge");
    let n = gpus.len();
    let all_equal = gpus.windows(2).all(|w| w[0].updates == w[1].updates);
    let mut weights: Vec<f64> = if all_equal {
        let total: f64 = gpus.iter().map(|g| g.batch_size).sum();
        gpus.iter().map(|g| g.batch_size / total).collect()
    } else {
        let score = |g: &GpuHyper| -> f64 {
            match normalization {
                Normalization::UpdateCount => g.updates as f64,
                Normalization::UpdateTimesBatch => g.updates as f64 * g.batch_size,
            }
        };
        let total: f64 = gpus.iter().map(score).sum();
        gpus.iter().map(|g| score(g) / total).collect()
    };

    // Perturbation is only meaningful with at least two distinct replicas.
    let perturbed = well_regularized && n >= 2;
    if perturbed {
        let r = (0..n).max_by_key(|&i| gpus[i].updates).expect("non-empty");
        let s = (0..n).min_by_key(|&i| gpus[i].updates).expect("non-empty");
        weights[r] *= 1.0 + params.delta;
        weights[s] *= 1.0 - params.delta;
    }
    MergeDecision {
        weights,
        by_updates: !all_equal,
        perturbed,
    }
}

/// The unit roundoff of `f64`, `2⁻⁵³`.
const U: f64 = f64::EPSILON / 2.0;

/// A replica's sum of squares `Σw²` as the perturbation gate estimates it
/// from the parameters the replica changed since its last import, with an
/// absolute bound on the estimate's error (DESIGN.md, "The perturbation
/// gate from the rows that changed"). `sq` is
/// `(S_base − Σ base²) + Σ cur²`, where `S_base` is the import buffer's
/// sum of squares and the two sums run over the same `changed` parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormEstimate {
    /// The estimate of `Σw²`.
    pub sq: f64,
    /// `|sq − Σw²| ≤ err`, with `Σw²` the exact real sum. Infinite when no
    /// bound is derived (an operand is not finite, or the sums are too long
    /// for it).
    pub err: f64,
}

impl NormEstimate {
    /// The estimate for a model of `len` parameters whose import buffer sums
    /// to `s_base` (computed in `f64`, in any order), where the `changed`
    /// parameters summed `base_sq` in the import buffer and `cur_sq` now.
    ///
    /// Every square of an `f32` is exact in `f64`, so each of the three sums
    /// of `k` terms is off by at most `γₖ = k·u / (1 − k·u)` times itself
    /// (any summation order, non-negative terms), and the subtraction and the
    /// addition round once each. With `K = s_base + base_sq + cur_sq` and
    /// `(len + changed)·u ≤ 0.01`, that is at most
    /// `(1.03·(len + changed) + 2.01)·u·K`; `err` is `4·(len + changed + 2)·u·K`,
    /// which also absorbs the rounding of computing it.
    pub fn new(len: usize, s_base: f64, changed: usize, base_sq: f64, cur_sq: f64) -> Self {
        let sq = (s_base - base_sq) + cur_sq;
        let terms = (len + changed + 2) as f64;
        let err = if terms * U <= 0.01 {
            4.0 * terms * U * (s_base + base_sq + cur_sq)
        } else {
            f64::INFINITY
        };
        NormEstimate { sq, err }
    }

    /// Which side of `thr` the exact norm per parameter
    /// (`asgd_model::Mlp::l2_norm_per_param` of the `len`-parameter replica)
    /// lies on, when the estimate decides it: `Some(true)` iff it is below
    /// `thr`, `None` when the interval straddles `thr` (or nothing is
    /// finite) — then only the exact norm can tell.
    ///
    /// That norm is `fl(fl(√Ŝ) / len)`, where `Ŝ` sums `len` exact squares
    /// in `f64`: `|Ŝ − S| ≤ γ_len·S ≤ g·S` with `g = 2·len·u`, and the root
    /// and the division round once each. So it lies in
    /// `[√((sq − err)(1 − g)) / len, √((sq + err)(1 + g)) / len]` up to
    /// `2u`, and a further `16u` of slack covers the rounding of this
    /// function's own arithmetic.
    pub fn below(&self, len: usize, thr: f64) -> Option<bool> {
        let g = 2.0 * len as f64 * U;
        let hi = (self.sq + self.err) * (1.0 + g);
        let lo = ((self.sq - self.err) * (1.0 - g)).max(0.0);
        if len == 0 || !(hi.is_finite() && lo.is_finite()) || g > 0.01 {
            return None;
        }
        let (n, slack) = (len as f64, 16.0 * U);
        if hi.sqrt() / n * (1.0 + slack) < thr {
            Some(true)
        } else if lo.sqrt() / n * (1.0 - slack) >= thr {
            Some(false)
        } else {
            None
        }
    }
}

/// `Σx²` of a buffer the replicas import, in `f64`: per [`TILE_ELEMS`] tile
/// ([`asgd_tensor::kernels::sum_sq_lanes`], bf16 widened exactly), folded
/// in tile order — bit for bit what [`FusedMerge::run`] sums for the buffer
/// it leaves.
pub fn import_sq(buf: FlatRef<'_>) -> f64 {
    fn tiles<E: ReduceElem>(xs: &[E]) -> f64 {
        xs.chunks(TILE_ELEMS).map(E::sum_sq).sum()
    }
    match buf {
        FlatRef::F32(v) => tiles(v),
        FlatRef::Bf16(v) => tiles(v),
    }
}

/// **Algorithm 2, lines 8–9** — the global-model update with momentum:
/// `w' = merged + γ·(w − w_prev)`, then `w_prev ← w`, `w ← w'`.
///
/// `merged` must already hold `Σ α_i·w_i` (the all-reduce output); `global`
/// and `prev_global` are updated in place.
pub fn apply_global_update(
    merged: &[f32],
    global: &mut [f32],
    prev_global: &mut [f32],
    gamma: f64,
) {
    assert_eq!(merged.len(), global.len(), "merged/global length");
    assert_eq!(merged.len(), prev_global.len(), "merged/prev length");
    // One fused pool-parallel sweep; element-wise, so partitioning cannot
    // change the bits.
    asgd_tensor::parallel::par_momentum_update(
        merged,
        global,
        prev_global,
        gamma as f32,
        MIN_PAR_GLOBAL,
    );
}

/// [`apply_global_update`] over a precision-tagged merged buffer: the f32
/// variant is the exact pre-existing path; the bf16 variant widens each
/// merged element exactly and runs the same momentum formula in f32 (the
/// global and momentum memory always stay f32 — only *storage* narrows).
pub fn apply_global_update_flat(
    merged: &FlatVec,
    global: &mut [f32],
    prev_global: &mut [f32],
    gamma: f64,
) {
    match merged {
        FlatVec::F32(m) => apply_global_update(m, global, prev_global, gamma),
        FlatVec::Bf16(m) => {
            assert_eq!(m.len(), global.len(), "merged/global length");
            assert_eq!(m.len(), prev_global.len(), "merged/prev length");
            asgd_tensor::parallel::par_momentum_update_bf16(
                m,
                global,
                prev_global,
                gamma as f32,
                MIN_PAR_GLOBAL,
            );
        }
    }
}

/// Global updates shorter than this stay serial (same rationale as the
/// collective's reduction threshold).
const MIN_PAR_GLOBAL: usize = 1 << 14;

/// Fills every redistribution buffer from the f32 global model, taking the
/// rounding contract's single round point **once**: the first bf16 buffer
/// is narrowed (one round-to-nearest-even per element) and every later bf16
/// buffer copies its bits verbatim. Narrowing is a pure per-element
/// function of the f32 input, so this is bit-identical to narrowing each
/// buffer independently — but a u16 memcpy replaces the repeated
/// conversion sweeps.
///
/// # Panics
/// Panics when a buffer's length does not match the global model's.
pub fn redistribute_global(global: &[f32], bufs: &mut [FlatVec]) {
    let mut first_bf16: Option<usize> = None;
    for i in 0..bufs.len() {
        match first_bf16 {
            Some(j) if matches!(bufs[i], FlatVec::Bf16(_)) => {
                let (head, tail) = bufs.split_at_mut(i);
                if let (FlatVec::Bf16(src), FlatVec::Bf16(dst)) = (&head[j], &mut tail[0]) {
                    assert_eq!(dst.len(), src.len(), "redistribute buffer length");
                    dst.copy_from_slice(src);
                }
            }
            _ => match &mut bufs[i] {
                FlatVec::F32(v) => asgd_tensor::parallel::par_copy(global, v, MIN_PAR_GLOBAL),
                FlatVec::Bf16(v) => {
                    asgd_tensor::parallel::par_narrow(global, v, MIN_PAR_GLOBAL);
                    first_bf16 = Some(i);
                }
            },
        }
    }
}

/// What one [`FusedMerge`] reduces, one entry per live replica in device
/// order. Either way each element is narrowed to the payload's precision as
/// it is read: a copy at f32, and at bf16 the one round point an exported
/// bf16 replica buffer would hold.
#[derive(Clone, Copy)]
pub enum MergeInput<'a> {
    /// Every replica's parameters in the flat layout, read where they live.
    Dense(&'a [&'a [f32]]),
    /// Every replica as an overlay on the model it imported, which is the
    /// global model at the payload's precision — bit for bit the last
    /// payload every replica imported: each replica's rows are read from
    /// its slots, the rest from the global model ([`Overlay::run_at`]).
    Overlays(&'a [&'a Overlay]),
}

/// What a [`FusedMerge`] keeps from one merge to the next: the reduction
/// compiled for the last live set ([`ReducePlan`], recompiled only when the
/// device count, the algorithm or the model length changes) and the
/// per-tile sums of squares. With both warm, a merge allocates nothing.
#[derive(Debug, Default)]
pub struct MergeScratch {
    plan: Option<ReducePlan>,
    tile_sq: Vec<f64>,
}

/// The merge stage's arithmetic as one streaming pass: the weighted
/// all-reduce of the live replicas ([`allreduce_tiled`], each element's sum
/// tree evaluated from where the replicas' elements live), and per reduced
/// block the global-model update plus, at bf16, the redistribution payload
/// — what `allreduce_flat` → [`apply_global_update_flat`] →
/// [`redistribute_global`] compute in one model-sized sweep each, bit for
/// bit. At f32 the payload *is* the new global model (narrowing to f32 is a
/// copy), so the pass writes none: the replicas import `global` in place.
pub struct FusedMerge<'a> {
    /// Merge weights `α_i` of the live replicas.
    pub weights: &'a [f64],
    /// `Some(γ)`: Algorithm 2's momentum update (lines 8–9), the payload is
    /// the new global model. `None`: the average becomes the global model
    /// as it is (the momentum memory stays untouched) and is the payload.
    pub gamma: Option<f64>,
    /// The collective whose summation order and bill the reduce follows.
    pub algo: Algorithm,
    /// Two-level schedule shape (timing only) for cluster contexts.
    pub inter: Option<InterNode>,
    /// Links and profiles of the live replicas.
    pub ctx: &'a CollectiveContext,
    /// When each live replica reached the merge.
    pub arrivals: &'a [SimTime],
    /// Run on the worker pool; off is the merge-time OOM fallback (same
    /// bits, same timing, calling thread only).
    pub pooled: bool,
}

/// The global model's parameters as [`FusedMerge::run`] takes them: the
/// flat values, and the buffer itself, to trade with the momentum memory.
pub trait GlobalModel {
    /// Every parameter in the flat layout.
    fn flat_mut(&mut self) -> &mut [f32];
    /// Trades the parameter buffer for `other` (same length): a pointer
    /// swap, no copy.
    fn swap_flat(&mut self, other: &mut Vec<f32>);
}

impl GlobalModel for Vec<f32> {
    fn flat_mut(&mut self) -> &mut [f32] {
        self
    }

    fn swap_flat(&mut self, other: &mut Vec<f32>) {
        assert_eq!(other.len(), self.len(), "swap_flat length mismatch");
        std::mem::swap(self, other);
    }
}

impl GlobalModel for asgd_model::Mlp {
    fn flat_mut(&mut self) -> &mut [f32] {
        self.as_flat_mut()
    }

    fn swap_flat(&mut self, other: &mut Vec<f32>) {
        asgd_model::Mlp::swap_flat(self, other);
    }
}

impl FusedMerge<'_> {
    /// Reduces `input` into a new global model, which `global` holds on
    /// return. Without momentum it is written over `global` (the momentum
    /// memory stays untouched). With momentum (`w′ = merged + γ·(w −
    /// w_prev)`) it is written over `prev_global`, whose values it
    /// consumes, and the two buffers are swapped: `global` ends with the
    /// new model and `prev_global` with the one `global` held — the next
    /// momentum memory — so the pass writes one model-sized buffer instead
    /// of two. The merge's storage precision is the payload's: with
    /// `bf16_payload` (model length) it reduces at bf16 and leaves the
    /// narrowed new global model there; without, it reduces at f32, and the
    /// new global model itself is the payload. `scratch` carries the
    /// compiled reduction and the tile sums from merge to merge.
    ///
    /// With `import_sq`, it also writes there `Σx²` of the buffer the
    /// replicas import next (the new global model at f32, the widened
    /// payload at bf16) as [`import_sq`] computes it: each tile's squares
    /// are summed as the tile is stored, and the tile sums are folded in
    /// tile order.
    ///
    /// # Panics
    /// Panics when buffers disagree on length or precision, or there are
    /// more than [`MAX_DEVICES`] replicas.
    pub fn run(
        &self,
        scratch: &mut MergeScratch,
        input: MergeInput<'_>,
        bf16_payload: Option<&mut [u16]>,
        global: &mut impl GlobalModel,
        prev_global: &mut Vec<f32>,
        import_sq: Option<&mut f64>,
    ) -> AllReduceTiming {
        let flat = global.flat_mut();
        let len = flat.len();
        let k = self.weights.len();
        let MergeScratch { plan, tile_sq } = scratch;
        if !plan.as_ref().is_some_and(|p| p.fits(self.algo, k, len)) {
            *plan = Some(ReducePlan::compile(self.algo, self.ctx, len));
        }
        let plan = plan.as_ref().expect("compiled");
        tile_sq.resize(len.div_ceil(TILE_ELEMS), 0.0);
        let sums = import_sq.is_some().then_some(&mut tile_sq[..]);
        let timing = match bf16_payload {
            None => self.run_typed::<f32>(plan, None, input, flat, prev_global, sums),
            Some(p) => self.run_typed(plan, Some(p), input, flat, prev_global, sums),
        };
        if let Some(sq) = import_sq {
            *sq = tile_sq.iter().sum();
        }
        if self.gamma.is_some() {
            // The new model was written over the momentum memory, and
            // `global` still holds the model the momentum memory becomes.
            global.swap_flat(prev_global);
        }
        timing
    }

    fn run_typed<E: ReduceElem>(
        &self,
        plan: &ReducePlan,
        payload: Option<&mut [E]>,
        input: MergeInput<'_>,
        global: &mut [f32],
        prev: &mut [f32],
        tile_sq: Option<&mut [f64]>,
    ) -> AllReduceTiming {
        let len = global.len();
        if let Some(p) = &payload {
            assert_eq!(p.len(), len, "payload/global length");
        }
        assert_eq!(prev.len(), len, "global/prev length");
        let replicas = match input {
            MergeInput::Dense(params) => {
                assert!(
                    params.iter().all(|p| p.len() == len),
                    "replica size mismatch"
                );
                params.len()
            }
            MergeInput::Overlays(overlays) => {
                assert!(
                    overlays.iter().all(|o| o.config().param_len() == len),
                    "replica size mismatch"
                );
                overlays.len()
            }
        };
        assert_eq!(self.weights.len(), replicas, "weights/replicas mismatch");
        assert!(replicas <= MAX_DEVICES, "more than {MAX_DEVICES} replicas");

        let shares = tile_shares(len, self.pooled);
        let mut payloads = payload.map(|p| split_shares(p, &shares));
        // Shares are runs of whole tiles, so the tile sums split with them.
        let mut tile_sq = tile_sq;
        let parts = shares
            .iter()
            .zip(split_shares(global, &shares))
            .zip(split_shares(prev, &shares))
            .map(|((share, global), prev)| {
                let tile_sq = tile_sq.as_mut().map(|t| {
                    let (head, tail) =
                        std::mem::take(t).split_at_mut(share.len().div_ceil(TILE_ELEMS));
                    *t = tail;
                    head
                });
                let part = MergePart {
                    start: share.start,
                    source: input,
                    payload: payloads.as_mut().map(|p| p.next().expect("one per share")),
                    global,
                    prev,
                    gamma: self.gamma.map(|g| g as f32),
                    tile_sq,
                    sq: SqLanes::default(),
                };
                (share.clone(), part)
            });
        allreduce_tiled(
            plan,
            parts,
            self.weights,
            self.inter,
            self.ctx,
            self.arrivals,
        )
    }
}

/// One task's share of the fused pass: the matching slices of the payload
/// (bf16 merges only), the global model and its momentum memory, all
/// starting at `start`, and — when asked for — one sum of squares per tile
/// of the share, with the running sum of the tile being stored.
struct MergePart<'a, E> {
    start: usize,
    source: MergeInput<'a>,
    payload: Option<&'a mut [E]>,
    global: &'a mut [f32],
    prev: &'a mut [f32],
    gamma: Option<f32>,
    tile_sq: Option<&'a mut [f64]>,
    sq: SqLanes,
}

impl<'a, E: ReduceElem> TilePart<E> for MergePart<'a, E> {
    /// The replica's own values, the first one at the element given, or
    /// `None` for the global model under an overlay.
    type Loc = Option<(usize, &'a [f32])>;

    #[inline(always)]
    fn locate(&self, d: usize, at: usize) -> (Self::Loc, usize) {
        let end = self.start + self.global.len();
        match self.source {
            MergeInput::Dense(replicas) => (Some((0, replicas[d])), end),
            MergeInput::Overlays(overlays) => {
                let (values, run_end) = overlays[d].run_at(at, end);
                (values.map(|v| (at, v)), run_end)
            }
        }
    }

    #[inline(always)]
    fn read(&self, _: usize, loc: Self::Loc, range: Range<usize>) -> Src<'_, E> {
        Src::Narrow(match loc {
            Some((at, values)) => &values[range.start - at..range.end - at],
            None => &self.global[range.start - self.start..range.end - self.start],
        })
    }

    #[inline(always)]
    fn store(&mut self, range: Range<usize>, merged: &[E]) {
        let rel = range.start - self.start..range.end - self.start;
        let global = &mut self.global[rel.clone()];
        let payload = self.payload.as_deref_mut().map(|p| &mut p[rel.clone()]);
        // Where the new model goes: over the momentum memory it consumes.
        let new_model = match self.gamma {
            Some(gamma) => {
                let prev = &mut self.prev[rel.clone()];
                for ((&m, &w), wp) in merged.iter().zip(global.iter()).zip(prev.iter_mut()) {
                    *wp = m.widen() + gamma * (w - *wp);
                }
                if let Some(payload) = payload {
                    E::narrow_slice(prev, payload);
                }
                &self.prev[rel.clone()]
            }
            None => {
                for (w, &m) in global.iter_mut().zip(merged) {
                    *w = m.widen();
                }
                if let Some(payload) = payload {
                    payload.copy_from_slice(merged);
                }
                &self.global[rel.clone()]
            }
        };
        if let Some(tile_sq) = self.tile_sq.as_deref_mut() {
            // What the replicas import: the payload where there is one.
            // Summed in a local: lanes behind `self` would round-trip
            // through memory on every add.
            let mut sq = self.sq;
            match self.payload.as_deref() {
                Some(p) => sq.add(&p[rel.clone()]),
                None => sq.add(new_model),
            }
            let share_end = self.start + self.global.len();
            if range.end.is_multiple_of(TILE_ELEMS) || range.end == share_end {
                let tile = range.start / TILE_ELEMS - self.start / TILE_ELEMS;
                tile_sq[tile] = sq.sum();
                sq = SqLanes::default();
            }
            self.sq = sq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_tensor::Precision;

    fn gpu(b: f64, u: u64) -> GpuHyper {
        GpuHyper {
            batch_size: b,
            lr: 0.1,
            updates: u,
        }
    }

    #[test]
    fn equal_updates_normalize_by_batch_size() {
        let gpus = vec![gpu(600.0, 4), gpu(200.0, 4), gpu(200.0, 4)];
        let d = compute_merge_weights(&gpus, &[1.0, 1.0, 1.0], &MergeParams::default());
        assert!(!d.by_updates);
        assert!(!d.perturbed, "norms 1.0 ≥ pert_thr");
        assert!((d.weights[0] - 0.6).abs() < 1e-12);
        assert!((d.weights[1] - 0.2).abs() < 1e-12);
        let sum: f64 = d.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unequal_updates_normalize_by_update_count() {
        let gpus = vec![gpu(512.0, 6), gpu(512.0, 2)];
        let d = compute_merge_weights(&gpus, &[0.5, 0.5], &MergeParams::default());
        assert!(d.by_updates);
        assert!((d.weights[0] - 0.75).abs() < 1e-12);
        assert!((d.weights[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn perturbation_fires_only_when_all_replicas_regularized() {
        let gpus = vec![gpu(512.0, 6), gpu(512.0, 2)];
        let p = MergeParams::default();
        // One replica above the threshold blocks perturbation.
        let d = compute_merge_weights(&gpus, &[0.05, 0.2], &p);
        assert!(!d.perturbed);
        // All below: fires, boosting the most-updated replica.
        let d = compute_merge_weights(&gpus, &[0.05, 0.02], &p);
        assert!(d.perturbed);
        assert!((d.weights[0] - 0.75 * 1.1).abs() < 1e-12);
        assert!((d.weights[1] - 0.25 * 0.9).abs() < 1e-12);
        // Denormalization is real: the sum exceeds 1 here.
        let sum: f64 = d.weights.iter().sum();
        assert!(sum > 1.0);
    }

    #[test]
    fn product_normalization_weighs_updates_times_batch() {
        let gpus = vec![gpu(600.0, 4), gpu(200.0, 2)];
        let params = MergeParams {
            normalization: Normalization::UpdateTimesBatch,
            ..MergeParams::default()
        };
        let d = compute_merge_weights(&gpus, &[1.0, 1.0], &params);
        // scores 2400 vs 400 -> weights 6/7, 1/7.
        assert!((d.weights[0] - 6.0 / 7.0).abs() < 1e-12);
        assert!((d.weights[1] - 1.0 / 7.0).abs() < 1e-12);
        assert!(d.by_updates);
    }

    #[test]
    fn product_normalization_irrelevant_with_equal_updates() {
        // Equal update counts take the batch-size branch in both modes.
        let gpus = vec![gpu(600.0, 4), gpu(200.0, 4)];
        let a = compute_merge_weights(&gpus, &[1.0, 1.0], &MergeParams::default());
        let params = MergeParams {
            normalization: Normalization::UpdateTimesBatch,
            ..MergeParams::default()
        };
        let b = compute_merge_weights(&gpus, &[1.0, 1.0], &params);
        assert_eq!(a, b);
    }

    #[test]
    fn perturbation_skipped_for_single_replica() {
        let gpus = vec![gpu(512.0, 3)];
        let d = compute_merge_weights(&gpus, &[0.01], &MergeParams::default());
        assert!(!d.perturbed);
        assert_eq!(d.weights, vec![1.0]);
    }

    #[test]
    fn momentum_update_matches_formula() {
        let merged = vec![1.0f32, 2.0];
        let mut global = vec![3.0f32, 1.0];
        let mut prev = vec![2.0f32, 2.0];
        apply_global_update(&merged, &mut global, &mut prev, 0.9);
        // w' = merged + 0.9(w - wp) = [1 + .9, 2 - .9]
        assert_eq!(global, vec![1.9, 1.1]);
        assert_eq!(prev, vec![3.0, 1.0]);
    }

    #[test]
    fn zero_gamma_is_plain_assignment() {
        let merged = vec![5.0f32];
        let mut global = vec![1.0f32];
        let mut prev = vec![0.0f32];
        apply_global_update(&merged, &mut global, &mut prev, 0.0);
        assert_eq!(global, vec![5.0]);
    }

    /// The fused pass against the stage it replaced — each replica exported
    /// at the storage precision, `allreduce_flat`, then
    /// `apply_global_update_flat` (or plain adoption), then
    /// `redistribute_global` — from the f32 replicas read in place: same
    /// global, momentum memory, payload (at f32, `global` itself) and
    /// timing, bit for bit, for both precisions, both update rules, pooled
    /// and serial, and survivor subsets of every size.
    /// At bf16 the dense pass narrows each replica tile as it loads it, and
    /// this is what pins that round point to the export's. Row sets include
    /// the empty set, every row, and random ones; the model spans many
    /// tiles, so tile boundaries fall inside W1 rows and across `k`-rows of
    /// W2.
    #[test]
    fn fused_merge_matches_the_step_by_step_stage() {
        use asgd_collective::{allreduce_flat, hierarchical_allreduce_flat, SparseLayout};
        use asgd_gpusim::{profile, ClusterTopology, Topology};

        let layout = SparseLayout::new(900, 16, 1_200);
        let len = layout.param_len();
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f32 / (1u64 << 31) as f32 * 2.0 - 1.0
        };
        let global: Vec<f32> = (0..len).map(|_| next()).collect();
        let prev: Vec<f32> = (0..len).map(|_| next()).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let algo = Algorithm::MultiStreamRing { partitions: 4 };

        // `redistribute_global`'s narrowing is the export's round point.
        let export = |precision, flat: &[f32]| {
            let mut out = vec![FlatVec::zeros(precision, len)];
            redistribute_global(flat, &mut out);
            out.pop().unwrap()
        };
        for precision in [Precision::F32, Precision::Bf16] {
            for (k, cluster) in [(1, false), (3, false), (4, false), (4, true)] {
                let ctx = if cluster {
                    CollectiveContext::cluster(
                        &ClusterTopology::ethernet(2, 2),
                        &profile::heterogeneous_server(k),
                    )
                } else {
                    CollectiveContext::new(Topology::pcie(k), &profile::heterogeneous_server(k))
                };
                let inter = cluster.then_some(InterNode::Ring);
                let weights: Vec<f64> = (0..k).map(|d| 1.0 / (d + 1) as f64).collect();
                let arrivals: Vec<SimTime> = (0..k).map(|d| SimTime(d as f64 * 1e-4)).collect();
                // Replica d = the last global model, re-drawn on its own
                // rows: none for replica 0, all for replica 1, a random
                // third otherwise. Its untouched rows export to the base
                // every replica imported at the last sync.
                let row_sets: Vec<Vec<u32>> = (0..k)
                    .map(|d| {
                        (0..layout.num_rows() as u32)
                            .filter(|_| match d {
                                0 => false,
                                1 => true,
                                _ => next() > 1.0 / 3.0,
                            })
                            .collect()
                    })
                    .collect();
                let params: Vec<Vec<f32>> = row_sets
                    .iter()
                    .map(|rows| {
                        let mut r = global.clone();
                        layout.for_each_delta_index(rows, |i| r[i] = next());
                        r
                    })
                    .collect();
                let param_refs: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
                let replicas: Vec<FlatVec> = params.iter().map(|r| export(precision, r)).collect();

                for gamma in [Some(0.9), None] {
                    // The stage, one model-sized sweep per step.
                    let mut want = replicas.clone();
                    let (mut want_g, mut want_p) = (global.clone(), prev.clone());
                    let want_t = match inter {
                        Some(i) => hierarchical_allreduce_flat(
                            &mut want, &weights, algo, i, &ctx, &arrivals,
                        ),
                        None => allreduce_flat(&mut want, &weights, algo, &ctx, &arrivals),
                    };
                    match gamma {
                        Some(g) => {
                            apply_global_update_flat(&want[0], &mut want_g, &mut want_p, g);
                            redistribute_global(&want_g, &mut want[..1]);
                        }
                        None => want[0].widen_into(&mut want_g),
                    }

                    for pooled in [true, false] {
                        let fused = FusedMerge {
                            weights: &weights,
                            gamma,
                            algo,
                            inter,
                            ctx: &ctx,
                            arrivals: &arrivals,
                            pooled,
                        };
                        let what = format!("{precision:?} k={k} {inter:?} {gamma:?} {pooled}");
                        // The fused pass from fresh copies; the payload it
                        // leaves is the bf16 buffer, or at f32 `global`.
                        // Summing the squares of that payload on the way
                        // changes nothing else, and is `import_sq`'s sum.
                        // One scratch for both runs: the second is warm.
                        let run = |input: MergeInput<'_>| {
                            let mut out = Vec::new();
                            let mut scratch = MergeScratch::default();
                            for sums in [false, true] {
                                let (mut g, mut p) = (global.clone(), prev.clone());
                                let mut payload = vec![0u16; len];
                                let bf16 =
                                    (precision == Precision::Bf16).then_some(&mut payload[..]);
                                let mut sq = sums.then_some(f64::NAN);
                                let t = fused.run(
                                    &mut scratch,
                                    input,
                                    bf16,
                                    &mut g,
                                    &mut p,
                                    sq.as_mut(),
                                );
                                let payload = match precision {
                                    Precision::F32 => FlatVec::F32(g.clone()),
                                    Precision::Bf16 => FlatVec::Bf16(payload),
                                };
                                if let Some(sq) = sq {
                                    let want = import_sq(payload.view());
                                    assert_eq!(sq.to_bits(), want.to_bits(), "import sum, {what}");
                                }
                                out.push((t, bits(&g), bits(&p), payload));
                            }
                            assert!(out[0] == out[1], "summing moved the merge, {what}");
                            out.pop().unwrap()
                        };

                        let (t, g, p, payload) = run(MergeInput::Dense(&param_refs));
                        assert_eq!(t, want_t, "dense timing, {what}");
                        assert_eq!(g, bits(&want_g), "dense global, {what}");
                        assert_eq!(p, bits(&want_p), "dense prev, {what}");
                        assert_eq!(payload, want[0], "dense payload, {what}");
                    }
                }
            }
        }
    }

    /// The certificate's edges: it decides only what the interval decides,
    /// never on a non-finite estimate or an empty model, and `pert_thr = 0`
    /// is always "not below" without a sum.
    #[test]
    fn norm_estimate_decides_only_inside_its_bound() {
        let len = 1_000;
        // Σw² = 4 exactly (the changed parameters moved 1 → 2 of it).
        let est = NormEstimate::new(len, 3.0, 10, 1.0, 2.0);
        assert_eq!(est.sq, 4.0);
        assert!(est.err > 0.0 && est.err < 1e-9, "{}", est.err);
        let norm = 2.0 / len as f64;
        assert_eq!(est.below(len, norm * 1.001), Some(true));
        assert_eq!(est.below(len, norm * 0.999), Some(false));
        assert_eq!(est.below(len, norm), None);
        assert_eq!(est.below(len, 0.0), Some(false));
        assert_eq!(est.below(len, f64::INFINITY), Some(true));
        assert_eq!(est.below(0, 1.0), None);
        for bad in [f64::NAN, f64::INFINITY] {
            assert_eq!(
                NormEstimate::new(len, bad, 1, 0.0, 1.0).below(len, 1.0),
                None
            );
            assert_eq!(
                NormEstimate::new(len, 1.0, 1, 0.0, bad).below(len, 1.0),
                None
            );
        }
        // Cancellation down to zero still bounds from below by zero.
        let zero = NormEstimate::new(len, 1.0, 1, 1.0, 0.0);
        assert_eq!(zero.below(len, 1e-12), None);
        assert_eq!(zero.below(len, 0.0), Some(false));
        // The worst rounding the bound admits, under cancellation: every
        // parameter changed, the exact sums are S_base = Σ base² = 1 and
        // Σ cur² = 1e-6, but the base sum came out 0.9·P·u high (inside
        // γ_P). The estimate is then 1e-5 off relatively, far beyond the
        // exact measure's own rounding; only `err` keeps it from a wrong side.
        let len = 100_000;
        let est = NormEstimate::new(len, 1.0 + 0.9 * len as f64 * U, len, 1.0, 1e-6);
        let norm = 1e-6f64.sqrt() / len as f64;
        for rel in [-3e-6, 3e-6, -1e-3, 1e-3] {
            let thr = norm * (1.0 + rel);
            if let Some(side) = est.below(len, thr) {
                assert_eq!(side, norm < thr, "relative {rel}");
            }
        }
        assert_eq!(est.below(len, norm * 1.001), Some(true));
    }

    #[test]
    #[should_panic(expected = "no replicas")]
    fn empty_merge_panics() {
        compute_merge_weights(&[], &[], &MergeParams::default());
    }

    #[test]
    fn flat_update_f32_matches_slice_path_exactly() {
        let merged = vec![1.0f32, 2.0, -0.5];
        let mut g1 = vec![3.0f32, 1.0, 0.25];
        let mut p1 = vec![2.0f32, 2.0, 0.125];
        let mut g2 = g1.clone();
        let mut p2 = p1.clone();
        apply_global_update(&merged, &mut g1, &mut p1, 0.9);
        apply_global_update_flat(&FlatVec::F32(merged), &mut g2, &mut p2, 0.9);
        assert_eq!(g1, g2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn flat_update_bf16_widens_then_runs_the_same_formula() {
        use asgd_tensor::bf16;
        let merged_f32 = [1.5f32, -2.25, 0.875];
        let merged: Vec<u16> = merged_f32.iter().map(|&x| bf16::narrow(x)).collect();
        let mut global = vec![3.0f32, 1.0, 0.5];
        let mut prev = vec![2.0f32, 2.0, 0.25];
        let mut want_g = global.clone();
        let mut want_p = prev.clone();
        // Reference: widen exactly, then the f32 formula.
        let widened: Vec<f32> = merged.iter().map(|&b| bf16::widen(b)).collect();
        apply_global_update(&widened, &mut want_g, &mut want_p, 0.9);
        apply_global_update_flat(&FlatVec::Bf16(merged), &mut global, &mut prev, 0.9);
        assert_eq!(global, want_g);
        assert_eq!(prev, want_p);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use asgd_collective::allreduce_flat;
    use asgd_gpusim::{profile, Topology};
    use asgd_model::{MlpConfig, Workspace};
    use asgd_sparse::CsrMatrix;
    use asgd_tensor::Precision;
    use proptest::prelude::*;

    proptest! {
        // Each case trains its replicas and merges a whole model three
        // times (the stage and the fused pass twice), so this one runs
        // fewer cases than the block below.
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused pass reading overlays where their rows live — each
        /// replica's slots, the global model under them — equals the
        /// step-by-step stage over the replicas' materialized models, over
        /// random shapes whose segment boundaries (any partition count, any
        /// device count) fall inside `W₁` rows, class rows and across the
        /// `W₁`/`b₁`/`W₂`/`b₂` seams; for overlays of every kind (sampled
        /// steps; dense steps; every row, blended toward a target with NaNs
        /// of payloads of their own), at both precisions, with and without
        /// momentum, with device 0's weight exactly 1 (read unscaled) —
        /// through the evaluator's AVX2 build and again through its
        /// portable one.
        #[test]
        fn overlays_in_place_match_the_stage_over_random_shapes(
            features in 1usize..30,
            hidden in 1usize..9,
            classes in 1usize..30,
            n in 1usize..10,
            algo_idx in 0usize..4,
            partitions in 1usize..11,
            bf16_sel in 0usize..2,
            momentum in 0usize..2,
            seed in 0u64..1000,
        ) {
            let config = MlpConfig { num_features: features, hidden, num_classes: classes };
            let len = config.param_len();
            let precision = if bf16_sel == 1 { Precision::Bf16 } else { Precision::F32 };
            let algo = match algo_idx {
                0 => Algorithm::Naive,
                1 => Algorithm::Tree,
                2 => Algorithm::Ring,
                _ => Algorithm::MultiStreamRing { partitions },
            };
            let mut st = seed | 1;
            let mut next = move || {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                st
            };
            let value = |r: u64| (r >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
            let global: Vec<f32> = (0..len).map(|_| value(next())).collect();
            let prev: Vec<f32> = (0..len).map(|_| value(next())).collect();
            // The base every replica imported: the global model at the
            // payload's precision.
            let export = |v: &[f32]| {
                let mut out = vec![FlatVec::zeros(precision, len)];
                redistribute_global(v, &mut out);
                out.pop().unwrap()
            };
            let base = export(&global);
            let mut ws = Workspace::new(&config);
            let overlays: Vec<Overlay> = (0..n)
                .map(|d| {
                    let mut o = match d % 3 {
                        0 => Overlay::new(&config, base.view()),
                        1 => Overlay::dense(&config, base.view()),
                        _ => Overlay::whole(&config, base.view()),
                    };
                    for _ in 0..next() % 3 {
                        let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..1 + next() % 3)
                            .map(|_| {
                                let mut idx: Vec<u32> = (0..1 + next() % 4)
                                    .map(|_| (next() % features as u64) as u32)
                                    .collect();
                                idx.sort_unstable();
                                idx.dedup();
                                let val = idx.iter().map(|_| value(next())).collect();
                                (idx, val)
                            })
                            .collect();
                        let labels: Vec<Vec<u32>> = rows
                            .iter()
                            .map(|_| vec![(next() % classes as u64) as u32])
                            .collect();
                        let mut cand: Vec<u32> = labels.iter().flatten().copied().collect();
                        cand.extend((0..classes as u32).filter(|_| next() % 3 == 0));
                        cand.sort_unstable();
                        cand.dedup();
                        let mut x = CsrMatrix::from_rows(features, &rows).unwrap();
                        if d % 3 == 0 {
                            o.train_batch_sampled_ws(base.view(), &mut x, &labels, &cand, 0.1, &mut ws);
                        } else {
                            o.train_batch_ws(base.view(), &mut x, &labels, 0.1, &mut ws);
                        }
                    }
                    if d % 3 == 2 {
                        let target: Vec<f32> = (0..len)
                            .map(|i| if (i + d) % 23 == 0 {
                                f32::from_bits(0x7fc0_0000 | (d as u32 + 1) << 8 | i as u32 & 0xff)
                            } else {
                                value(next())
                            })
                            .collect();
                        o.blend(FlatRef::F32(&target), 0.5);
                    }
                    o
                })
                .collect();
            let views: Vec<&Overlay> = overlays.iter().collect();
            let exported: Vec<FlatVec> = overlays
                .iter()
                .map(|o| export(o.materialize(base.view()).as_flat()))
                .collect();
            let weights: Vec<f64> = (0..n).map(|d| 1.0 / (d + 1) as f64).collect();
            let arrivals = vec![SimTime::ZERO; n];
            let ctx = CollectiveContext::new(Topology::pcie(n), &profile::heterogeneous_server(n));
            let gamma = (momentum == 1).then_some(0.9);

            // The stage: whole buffers, one sweep per step.
            let mut want = exported.clone();
            let want_t = allreduce_flat(&mut want, &weights, algo, &ctx, &arrivals);
            let (mut want_g, mut want_p) = (global.clone(), prev.clone());
            match gamma {
                Some(g) => {
                    apply_global_update_flat(&want[0], &mut want_g, &mut want_p, g);
                    redistribute_global(&want_g, &mut want[..1]);
                }
                None => want[0].widen_into(&mut want_g),
            }

            let fused = FusedMerge {
                weights: &weights,
                gamma,
                algo,
                inter: None,
                ctx: &ctx,
                arrivals: &arrivals,
                pooled: true,
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            // Bits, not `==`: NaN payloads must match too.
            let flat_bits = |v: &FlatVec| match v {
                FlatVec::F32(v) => bits(v),
                FlatVec::Bf16(v) => v.iter().map(|&x| u32::from(x)).collect(),
            };
            for portable in [false, true] {
                let (mut g, mut p) = (global.clone(), prev.clone());
                let mut payload = vec![0u16; len];
                let bf16_payload = (precision == Precision::Bf16).then_some(&mut payload[..]);
                let input = MergeInput::Overlays(&views);
                asgd_tensor::kernels::force_portable(portable);
                let t = fused.run(&mut MergeScratch::default(), input, bf16_payload, &mut g, &mut p, None);
                asgd_tensor::kernels::force_portable(false);
                prop_assert_eq!(t, want_t);
                prop_assert!(bits(&g) == bits(&want_g), "global, portable={}", portable);
                prop_assert!(bits(&p) == bits(&want_p), "momentum memory, portable={}", portable);
                let payload = match precision {
                    Precision::F32 => FlatVec::F32(g),
                    Precision::Bf16 => FlatVec::Bf16(payload),
                };
                prop_assert!(flat_bits(&payload) == flat_bits(&want[0]), "payload, portable={}", portable);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn unperturbed_weights_sum_to_one(
            batches in proptest::collection::vec(1.0f64..5000.0, 1..8),
            updates in proptest::collection::vec(1u64..100, 1..8),
        ) {
            let n = batches.len().min(updates.len());
            let gpus: Vec<GpuHyper> = (0..n)
                .map(|i| GpuHyper { batch_size: batches[i], lr: 0.1, updates: updates[i] })
                .collect();
            // Norms above threshold: no perturbation.
            let norms = vec![1.0; n];
            let d = compute_merge_weights(&gpus, &norms, &MergeParams::default());
            let sum: f64 = d.weights.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(d.weights.iter().all(|&w| w >= 0.0));
        }

        #[test]
        fn perturbed_sum_bounded_by_delta(
            updates in proptest::collection::vec(1u64..100, 2..8),
        ) {
            let n = updates.len();
            let gpus: Vec<GpuHyper> = updates
                .iter()
                .map(|&u| GpuHyper { batch_size: 256.0, lr: 0.1, updates: u })
                .collect();
            let norms = vec![0.01; n];
            let p = MergeParams::default();
            let d = compute_merge_weights(&gpus, &norms, &p);
            let sum: f64 = d.weights.iter().sum();
            // |sum - 1| ≤ δ·(α_r + α_s) ≤ δ.
            prop_assert!((sum - 1.0).abs() <= p.delta + 1e-9, "sum {sum}");
        }

        #[test]
        fn momentum_update_is_linear(
            merged in proptest::collection::vec(-5.0f32..5.0, 1..32),
            w in proptest::collection::vec(-5.0f32..5.0, 1..32),
            wp in proptest::collection::vec(-5.0f32..5.0, 1..32),
        ) {
            let n = merged.len().min(w.len()).min(wp.len());
            let merged = &merged[..n];
            let mut global = w[..n].to_vec();
            let mut prev = wp[..n].to_vec();
            let w0 = global.clone();
            apply_global_update(merged, &mut global, &mut prev, 0.9);
            for i in 0..n {
                let want = merged[i] + 0.9 * (w0[i] - wp[i]);
                prop_assert!((global[i] - want).abs() < 1e-5);
                prop_assert_eq!(prev[i], w0[i]);
            }
        }
    }
}
