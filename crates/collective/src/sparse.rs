//! Sparse delta all-reduce: merge only the rows the replicas actually
//! touched since the last sync.
//!
//! PR 7's LSH-sampled softmax makes each training step update only a few
//! hundred W2 class rows (the sampler's candidates) plus the feature rows of
//! W1 present in the batch — yet the merge stage still all-reduces the
//! *dense* flat model. This module keeps the gradient sparsity alive
//! through the merge: replicas export `(row, values)` deltas over the rows
//! they dirtied, the collective reduces the **union** of touched rows, and
//! only the small dense blocks (b1) ride along unconditionally.
//!
//! # The reduction contract
//!
//! Exactly like [`crate::hierarchical`], sparsity here is a *communication
//! schedule*, never an arithmetic change. The weighted sum is what
//! [`crate::allreduce_flat`] computes over every replica's full flat buffer,
//! and a replica's buffer is its delta over the shared base model (the
//! payload of the last `SetModel`), reconstructed by [`scatter_delta`]:
//! every touched row sees the dense path's exact summation order and
//! untouched rows are the identical base bits in every replica
//! (`base + 0·anything` never executes). [`gather_delta`] /
//! [`scatter_delta`] are the wire format's reference; the trainer ships no
//! delta: its reduction reads each replica where its rows live
//! ([`crate::tiles`]), and this module times what the wire would carry. The merged
//! model is therefore **bit-identical** to the dense path at any
//! `ASGD_THREADS`, for both precisions, flat and hierarchical. What changes
//! is the *simulated* schedule: bytes and time are charged for the id
//! exchange plus a union-sized reduce instead of a model-sized one.
//!
//! # Cost model
//!
//! With `n` replicas, union size `U` rows / `Uₑ` elements, element width
//! `B` and per-replica delta lengths `lᵈ`:
//!
//! 1. **Compaction barrier**: each device packs its delta — one read + one
//!    write of `lᵈ` elements (`2·B·lᵈ` bytes of local traffic); the
//!    collective starts when the last device is ready (mirrors the dense
//!    pre-scale barrier).
//! 2. **Row-id all-gather** (ring): every id list makes `n−1` hops of
//!    `4·|rows|` bytes; step time is the slowest link of the step.
//! 3. **Union reduce**: the dense collective's post-barrier schedule at
//!    length `Uₑ` instead of the model length — [`dense_schedule`], which is
//!    the algorithm's own step walk in [`crate::algorithms`] run without
//!    buffers, so the price quoted here and the bill the real collective
//!    presents come from the same loops.
//! 4. **Scatter-back**: each device writes the reduced union into its
//!    model copy — `2·B·Uₑ` bytes of local traffic, devices concurrent.
//!
//! The hierarchical variant replaces 2–3 with per-server phases: id
//! gather-to-lead, per-server-union reduce-to-lead, inter-node id + value
//! exchange over the leads at the global union, intra broadcast. The value
//! phases are [`crate::hierarchical`]'s own (`reduce_phases`,
//! `broadcast_phase`), called here with union lengths where the dense merge
//! passes the model length; only the id exchanges are local to this module.
//!
//! When the union grows dense (above [`SparseMergePlan::max_density`]) the
//! id exchange and per-row bookkeeping would cost more than they save, so
//! the planner *falls back* to the dense schedule — again timing-only: the
//! arithmetic was dense all along.

use crate::algorithms::{walk, Algorithm, CostOnly};
use crate::hierarchical::{broadcast_phase, reduce_phases, server_groups, InterNode};
use crate::timing::{AllReduceTiming, CollectiveContext};
use asgd_gpusim::SimTime;
use asgd_tensor::FlatVec;

/// Default union-density threshold above which the sparse schedule falls
/// back to the dense one. At 0.5 the sparse path pays at most half the
/// value bytes plus the id overhead — comfortably ahead.
pub const DEFAULT_MAX_DENSITY: f64 = 0.5;

/// Maps the MLP's flat layout (`W1 ‖ b1 ‖ W2 ‖ b2`, row-major, `W2`
/// class-major) onto a *row space* of sparsifiable units:
///
/// * row `r < features` — W1 feature row `r` (`hidden` contiguous elements
///   at `r·hidden`), dirtied by any batch containing feature `r`;
/// * row `r ≥ features` — output class `c = r − features`: the W2 row of
///   `hidden` contiguous elements at `w2_off + c·hidden`, plus `b2[c]`,
///   dirtied when `c` is an LSH candidate.
///
/// Only `b1` (`hidden` elements) is touched by every batch and always rides
/// along densely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseLayout {
    /// Input feature count (W1 rows).
    pub features: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output class count (W2 rows).
    pub classes: usize,
}

impl SparseLayout {
    /// Builds the layout for a `features → hidden → classes` MLP.
    pub fn new(features: usize, hidden: usize, classes: usize) -> Self {
        Self {
            features,
            hidden,
            classes,
        }
    }

    /// Number of sparsifiable rows: `features + classes`.
    pub fn num_rows(&self) -> usize {
        self.features + self.classes
    }

    /// Elements carried by row `r` (`hidden` for a W1 row, `hidden + 1`
    /// for a class row + its bias).
    pub fn row_width(&self, r: u32) -> usize {
        if (r as usize) < self.features {
            self.hidden
        } else {
            self.hidden + 1
        }
    }

    /// Elements that ride along densely in every delta (`b1`).
    pub fn dense_elems(&self) -> usize {
        self.hidden
    }

    /// Flat offset of `b1`.
    pub fn b1_off(&self) -> usize {
        self.features * self.hidden
    }

    /// Flat offset of `W2`.
    pub fn w2_off(&self) -> usize {
        self.b1_off() + self.hidden
    }

    /// Flat offset of `b2`.
    pub fn b2_off(&self) -> usize {
        self.w2_off() + self.hidden * self.classes
    }

    /// Total flat model length.
    pub fn param_len(&self) -> usize {
        self.b2_off() + self.classes
    }

    /// Elements of a delta over `rows` (dense blocks included).
    pub fn delta_elems(&self, rows: &[u32]) -> usize {
        self.dense_elems() + rows.iter().map(|&r| self.row_width(r)).sum::<usize>()
    }

    /// Visits every flat index of a delta over `rows` in payload order:
    /// the dense `b1` block first, then each row's elements, rows
    /// ascending. This single function defines the wire format — gather,
    /// scatter and the model-side delta writer all follow it.
    pub fn for_each_delta_index(&self, rows: &[u32], mut f: impl FnMut(usize)) {
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "delta rows must be strictly ascending"
        );
        let h = self.hidden;
        (self.b1_off()..self.b1_off() + h).for_each(&mut f);
        let (w2, b2) = (self.w2_off(), self.b2_off());
        for &r in rows {
            let r = r as usize;
            assert!(r < self.num_rows(), "row {r} outside layout");
            if r < self.features {
                (r * h..(r + 1) * h).for_each(&mut f);
            } else {
                let c = r - self.features;
                (w2 + c * h..w2 + (c + 1) * h).for_each(&mut f);
                f(b2 + c);
            }
        }
    }
}

/// Packs the delta over `rows` out of a full flat buffer into `out`
/// (cleared and refilled; allocation recycled, precision adopted from
/// `src`). Values are the stored bits — no re-rounding for bf16.
pub fn gather_delta(layout: &SparseLayout, rows: &[u32], src: &FlatVec, out: &mut FlatVec) {
    assert_eq!(
        src.len(),
        layout.param_len(),
        "source/layout length mismatch"
    );
    if out.precision() != src.precision() {
        *out = FlatVec::empty(src.precision());
    }
    match (src, out) {
        (FlatVec::F32(s), FlatVec::F32(o)) => {
            o.clear();
            layout.for_each_delta_index(rows, |i| o.push(s[i]));
        }
        (FlatVec::Bf16(s), FlatVec::Bf16(o)) => {
            o.clear();
            layout.for_each_delta_index(rows, |i| o.push(s[i]));
        }
        _ => unreachable!("precision was just aligned"),
    }
}

/// Scatters a delta payload over `rows` onto a full flat `base` buffer —
/// the inverse of [`gather_delta`]. After the call, `base` holds the
/// delta's bits at every touched index and its own bits everywhere else,
/// which is exactly how a replica's full flat buffer is reconstructed from
/// `(shared base, its delta)` without moving the dense model.
pub fn scatter_delta(layout: &SparseLayout, rows: &[u32], payload: &FlatVec, base: &mut FlatVec) {
    assert_eq!(
        base.len(),
        layout.param_len(),
        "base/layout length mismatch"
    );
    assert_eq!(
        payload.len(),
        layout.delta_elems(rows),
        "payload/rows length mismatch"
    );
    assert_eq!(
        payload.precision(),
        base.precision(),
        "payload/base precision mismatch"
    );
    match (payload, base) {
        (FlatVec::F32(p), FlatVec::F32(b)) => {
            let mut k = 0usize;
            layout.for_each_delta_index(rows, |i| {
                b[i] = p[k];
                k += 1;
            });
        }
        (FlatVec::Bf16(p), FlatVec::Bf16(b)) => {
            let mut k = 0usize;
            layout.for_each_delta_index(rows, |i| {
                b[i] = p[k];
                k += 1;
            });
        }
        _ => unreachable!("precision equality was just asserted"),
    }
}

/// Sorted, deduplicated union of per-replica touched-row sets.
pub fn union_rows(sets: &[&[u32]]) -> Vec<u32> {
    let mut all: Vec<u32> = sets.iter().flat_map(|s| s.iter().copied()).collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// The sparse schedule's verdict for one merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseMergeTiming {
    /// The schedule charged to the simulation (the sparse one, or the
    /// caller's dense timing when `fell_back`).
    pub timing: AllReduceTiming,
    /// Rows in the union of all touched-row sets.
    pub union_rows: usize,
    /// Elements a union delta carries (dense blocks included).
    pub union_elems: usize,
    /// `union_elems / param_len` — the density the fallback gate tests.
    pub density: f64,
    /// True when the union was too dense and the dense schedule was kept.
    pub fell_back: bool,
}

/// Static inputs of the sparse schedule, bundled so call sites stay legible.
#[derive(Debug, Clone, Copy)]
pub struct SparseMergePlan {
    /// Intra-server (or flat) reduce algorithm.
    pub algo: Algorithm,
    /// Inter-node shape for cluster contexts (`None` = flat).
    pub inter: Option<InterNode>,
    /// Stored element width in bytes (4 = f32, 2 = bf16).
    pub elem_bytes: usize,
    /// Fall back to the dense schedule above this union density.
    pub max_density: f64,
}

/// Computes the simulated schedule of one sparse delta all-reduce.
///
/// `row_sets[d]` is replica `d`'s sorted touched-row set; `dense` is the
/// timing the dense collective *would* charge (and already computed — the
/// arithmetic ran dense either way), returned verbatim on fallback. The
/// result is a pure function of its arguments: bit-identical across thread
/// counts, build profiles and replay.
pub fn sparse_merge_timing(
    layout: &SparseLayout,
    row_sets: &[&[u32]],
    plan: &SparseMergePlan,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
    dense: AllReduceTiming,
) -> SparseMergeTiming {
    let n = row_sets.len();
    assert_eq!(ctx.n_devices(), n, "context/row-set count mismatch");
    assert_eq!(arrivals.len(), n, "arrivals/row-set count mismatch");
    let union = union_rows(row_sets);
    let union_elems = layout.delta_elems(&union);
    let density = union_elems as f64 / layout.param_len() as f64;
    let stats = |timing, fell_back| SparseMergeTiming {
        timing,
        union_rows: union.len(),
        union_elems,
        density,
        fell_back,
    };
    if density > plan.max_density {
        return stats(dense, true);
    }
    if n < 2 {
        // One replica: nothing to exchange; the dense collective already
        // degenerated to barrier-only.
        return stats(dense, false);
    }
    let b = plan.elem_bytes;

    // Phase 0 — compaction barrier: device d packs its l_d-element delta
    // (read + write) before the collective can start. Mirrors the dense
    // pre-scale barrier formula exactly.
    let mut start = SimTime::ZERO;
    for d in 0..n {
        let p = &ctx.profiles()[d];
        let pack_t = (2 * b) as f64 * layout.delta_elems(row_sets[d]) as f64
            / (p.mem_bandwidth_gbs * 1e9)
            / p.speed_factor;
        start = start.max(arrivals[d] + pack_t);
    }

    let id_counts: Vec<usize> = row_sets.iter().map(|s| s.len()).collect();
    let mut elapsed = 0.0f64;
    let mut bytes = 0usize;

    let groups = server_groups(ctx);
    let hierarchical = plan.inter.is_some() && ctx.is_cluster() && groups.len() > 1;
    if hierarchical {
        let inter = plan.inter.expect("hierarchical implies inter shape");

        // Per-server unions: what each lead holds after the intra phase.
        let server_unions: Vec<Vec<u32>> = groups
            .iter()
            .map(|members| {
                let member_sets: Vec<&[u32]> = members.iter().map(|&d| row_sets[d]).collect();
                union_rows(&member_sets)
            })
            .collect();
        // The two-level value phases of `hierarchical`, evaluated at the
        // union delta sizes instead of the model size: reduce-to-lead at
        // each server's union, inter-lead reduce at the global union.
        let (intra_t, inter_t, value_bytes) = reduce_phases(
            ctx,
            &groups,
            plan.algo,
            inter,
            b,
            |g| layout.delta_elems(&server_unions[g]),
            union_elems,
        );
        bytes += value_bytes;

        // Phase 1a — intra id gather-to-lead (servers concurrent, the
        // lead's link serializes its members).
        let mut phase = 0.0f64;
        for members in &groups {
            let lead = members[0];
            let mut t = 0.0f64;
            for &d in members.iter().skip(1) {
                let c = id_counts[d];
                if c == 0 {
                    continue;
                }
                t += ctx.p2p_time_sized(d, lead, c, 4);
                bytes += 4 * c;
            }
            phase = phase.max(t);
        }
        elapsed += phase;

        // Phase 1b — intra value reduce-to-lead.
        elapsed += intra_t;

        // Phase 2a — inter id ring all-gather over the leads (per-server
        // union id lists).
        let leads: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        let lead_counts: Vec<usize> = server_unions.iter().map(|u| u.len()).collect();
        let (t, by) = id_allgather_ring(ctx, &leads, &lead_counts);
        elapsed += t;
        bytes += by;

        // Phase 2b — inter value reduce over the leads.
        elapsed += inter_t;

        // Phase 3 — intra broadcast of the union ids + values.
        let (t, by) = broadcast_phase(
            &groups,
            |from, to| {
                ctx.p2p_time_sized(from, to, union_elems, b)
                    + ctx.p2p_time_sized(from, to, union.len(), 4)
            },
            union_elems * b + union.len() * 4,
        );
        elapsed += t;
        bytes += by;
    } else {
        // Flat: id all-gather, then the dense algorithm's own schedule at
        // the union length.
        let devs: Vec<usize> = (0..n).collect();
        let (t, by) = id_allgather_ring(ctx, &devs, &id_counts);
        elapsed += t;
        bytes += by;
        let (t, by) = dense_schedule(plan.algo, ctx, union_elems, b);
        elapsed += t;
        bytes += by;
    }

    // Final phase — scatter the reduced union back into each local model
    // copy (read payload + write model; devices concurrent).
    let scatter = (0..n)
        .map(|d| {
            let p = &ctx.profiles()[d];
            (2 * b) as f64 * union_elems as f64 / (p.mem_bandwidth_gbs * 1e9) / p.speed_factor
        })
        .fold(0.0f64, f64::max);
    elapsed += scatter;

    stats(
        AllReduceTiming {
            start,
            end: start + elapsed,
            bytes_moved: bytes,
        },
        false,
    )
}

/// Ring all-gather of per-device id lists over the devices `devs` (logical
/// ring order): at step `s`, logical device `i` forwards the list that
/// originated at logical `(i − s) mod n` to `i + 1`. Returns
/// `(elapsed, bytes)`; empty lists cost nothing (mirroring how the dense
/// ring skips empty chunks).
fn id_allgather_ring(ctx: &CollectiveContext, devs: &[usize], counts: &[usize]) -> (f64, usize) {
    let n = devs.len();
    debug_assert_eq!(counts.len(), n);
    if n < 2 {
        return (0.0, 0);
    }
    let mut t = 0.0f64;
    let mut bytes = 0usize;
    for s in 0..n - 1 {
        let mut step_t = 0.0f64;
        for i in 0..n {
            let c = counts[(i + n - s) % n];
            if c == 0 {
                continue;
            }
            let (src, dst) = (devs[i], devs[(i + 1) % n]);
            bytes += 4 * c;
            step_t = step_t.max(ctx.p2p_time_sized(src, dst, c, 4));
        }
        t += step_t;
    }
    (t, bytes)
}

/// Post-barrier `(elapsed, bytes)` of the dense collective at an arbitrary
/// length: the algorithm's own step walk ([`crate::algorithms`]) run with no
/// buffers, so it equals the real collective's
/// `(duration − barrier, bytes_moved)` **exactly** — the accounting is the
/// same code, not a copy of it. The sparse path uses it to price the union
/// reduce without materializing union-length buffers.
pub fn dense_schedule(
    algo: Algorithm,
    ctx: &CollectiveContext,
    len: usize,
    elem_bytes: usize,
) -> (f64, usize) {
    walk(algo, ctx, len, elem_bytes, &mut CostOnly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::allreduce_flat;
    use crate::hierarchical::hierarchical_allreduce_flat;
    use asgd_gpusim::{profile, ClusterTopology, Topology};

    fn layout() -> SparseLayout {
        SparseLayout::new(7, 3, 5)
    }

    fn lcg_f32(state: &mut u64) -> f32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
        ((*state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
    }

    fn random_flat(len: usize, seed: u64, bf16: bool) -> FlatVec {
        let mut s = seed | 1;
        if bf16 {
            FlatVec::Bf16(
                (0..len)
                    .map(|_| asgd_tensor::bf16::narrow(lcg_f32(&mut s)))
                    .collect(),
            )
        } else {
            FlatVec::F32((0..len).map(|_| lcg_f32(&mut s)).collect())
        }
    }

    #[test]
    fn layout_offsets_and_widths() {
        let l = layout(); // 7 features, hidden 3, 5 classes
        assert_eq!(l.b1_off(), 21);
        assert_eq!(l.w2_off(), 24);
        assert_eq!(l.b2_off(), 39);
        assert_eq!(l.param_len(), 44);
        assert_eq!(l.num_rows(), 12);
        assert_eq!(l.row_width(0), 3);
        assert_eq!(l.row_width(6), 3);
        assert_eq!(l.row_width(7), 4);
        assert_eq!(l.delta_elems(&[]), 3);
        assert_eq!(l.delta_elems(&[1, 7, 11]), 3 + 3 + 4 + 4);
    }

    #[test]
    fn delta_indices_cover_each_index_once_and_in_payload_order() {
        let l = layout();
        let rows = [0u32, 6, 7, 11];
        let mut seen = Vec::new();
        l.for_each_delta_index(&rows, |i| seen.push(i));
        assert_eq!(seen.len(), l.delta_elems(&rows));
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "an index was visited twice");
        assert!(seen.iter().all(|&i| i < l.param_len()));
        // b1, W1 rows 0 and 6, then each class row (classes 0 and 4) as
        // one contiguous W2 run followed by its b2 entry.
        let (w2, b2) = (l.w2_off(), l.b2_off());
        let want: Vec<usize> = (21..24)
            .chain(0..3)
            .chain(18..21)
            .chain([w2, w2 + 1, w2 + 2, b2])
            .chain([w2 + 12, w2 + 13, w2 + 14, b2 + 4])
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn gather_scatter_reconstructs_the_replica_bit_for_bit() {
        let l = layout();
        for bf16 in [false, true] {
            let base = random_flat(l.param_len(), 42, bf16);
            // Replica = base modified ONLY at the touched rows' indices.
            let rows = [2u32, 3, 8, 10];
            let mut replica = base.clone();
            match &mut replica {
                FlatVec::F32(v) => l.for_each_delta_index(&rows, |i| v[i] += 1.0),
                FlatVec::Bf16(v) => l.for_each_delta_index(&rows, |i| v[i] ^= 1),
            }
            let mut delta = FlatVec::default();
            gather_delta(&l, &rows, &replica, &mut delta);
            assert_eq!(delta.len(), l.delta_elems(&rows));
            let mut rebuilt = base.clone();
            scatter_delta(&l, &rows, &delta, &mut rebuilt);
            assert_eq!(rebuilt, replica, "bf16={bf16}: reconstruction diverged");
        }
    }

    #[test]
    fn empty_row_set_still_carries_the_dense_blocks() {
        let l = layout();
        let src = random_flat(l.param_len(), 7, false);
        let mut delta = FlatVec::default();
        gather_delta(&l, &[], &src, &mut delta);
        assert_eq!(delta.len(), l.dense_elems());
    }

    #[test]
    fn union_merges_sorted_sets() {
        assert_eq!(union_rows(&[&[1, 3], &[2, 3, 9], &[]]), vec![1, 2, 3, 9]);
        assert_eq!(union_rows(&[]), Vec::<u32>::new());
        assert_eq!(union_rows(&[&[], &[]]), Vec::<u32>::new());
    }

    /// With every row dirty on every replica the union delta *is* the model
    /// (`delta_elems(all rows) == param_len`), so the sparse schedule's value
    /// traffic must equal the dense collective's byte for byte — flat (the
    /// shared walk at the union length) and two-level (the shared
    /// `reduce_phases` / `broadcast_phase` at the union lengths) alike. What
    /// is left over is exactly the id exchange.
    #[test]
    fn full_union_value_bytes_equal_the_dense_collective() {
        let l = layout();
        let all_rows: Vec<u32> = (0..l.num_rows() as u32).collect();
        assert_eq!(l.delta_elems(&all_rows), l.param_len());
        let ids = all_rows.len();
        for (servers, m, inter) in [
            (1usize, 4usize, None),
            (1, 7, None),
            (2, 2, Some(InterNode::Ring)),
            (4, 4, Some(InterNode::Ring)),
            (4, 4, Some(InterNode::Tree)),
        ] {
            let n = servers * m;
            let profiles = profile::heterogeneous_server(n);
            let ctx = match inter {
                None => CollectiveContext::new(Topology::pcie(n), &profiles),
                Some(_) => {
                    CollectiveContext::cluster(&ClusterTopology::ethernet(servers, m), &profiles)
                }
            };
            // Every id list holds all `ids` row ids. Flat: each of the n
            // lists makes n−1 ring hops. Two-level: m−1 members hand theirs
            // to the lead, the S lead lists make S−1 hops, and the broadcast
            // carries the union ids to the m−1 non-leads of every server.
            let id_hops = match inter {
                None => n * (n - 1),
                Some(_) => 2 * servers * (m - 1) + servers * (servers - 1),
            };
            let row_sets = vec![all_rows.clone(); n];
            let weights = vec![1.0 / n as f64; n];
            let arrivals = vec![SimTime::ZERO; n];
            for bf16 in [false, true] {
                for algo in [
                    Algorithm::Naive,
                    Algorithm::Tree,
                    Algorithm::Ring,
                    Algorithm::MultiStreamRing { partitions: n },
                ] {
                    let mut bufs: Vec<FlatVec> = (0..n)
                        .map(|d| random_flat(l.param_len(), d as u64 + 5, bf16))
                        .collect();
                    let dense = match inter {
                        None => allreduce_flat(&mut bufs, &weights, algo, &ctx, &arrivals),
                        Some(i) => hierarchical_allreduce_flat(
                            &mut bufs, &weights, algo, i, &ctx, &arrivals,
                        ),
                    };
                    let plan = SparseMergePlan {
                        algo,
                        inter,
                        elem_bytes: if bf16 { 2 } else { 4 },
                        max_density: 1.0,
                    };
                    let s =
                        sparse_merge_timing(&l, &refs(&row_sets), &plan, &ctx, &arrivals, dense);
                    assert!(!s.fell_back);
                    assert_eq!(s.union_elems, l.param_len());
                    assert_eq!(
                        s.timing.bytes_moved - 4 * ids * id_hops,
                        dense.bytes_moved,
                        "{algo:?} {servers}x{m} {inter:?} bf16={bf16}"
                    );
                }
            }
        }
    }

    fn amazon_layout() -> SparseLayout {
        SparseLayout::new(135_909, 128, 670_091)
    }

    fn refs(sets: &[Vec<u32>]) -> Vec<&[u32]> {
        sets.iter().map(|s| s.as_slice()).collect()
    }

    #[test]
    fn sparse_schedule_moves_an_order_of_magnitude_fewer_bytes_at_scale() {
        let l = amazon_layout();
        let n = 4;
        let ctx = CollectiveContext::new(Topology::pcie(n), &profile::heterogeneous_server(n));
        let arrivals = vec![SimTime::ZERO; n];
        // ~16k W1 rows + ~2.4k candidate columns per replica — the shape a
        // 24-batch mega-batch of the sampled Amazon-670k run produces.
        let mut state = 0xABCDu64;
        let row_sets: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let mut rows: Vec<u32> = (0..18_400)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                        if state.is_multiple_of(8) {
                            l.features as u32 + (state >> 33) as u32 % l.classes as u32
                        } else {
                            (state >> 33) as u32 % l.features as u32
                        }
                    })
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                rows
            })
            .collect();
        let algo = Algorithm::MultiStreamRing { partitions: n };
        let (dense_elapsed, dense_bytes) = dense_schedule(algo, &ctx, l.param_len(), 4);
        let dense = AllReduceTiming {
            start: SimTime::ZERO,
            end: SimTime(dense_elapsed),
            bytes_moved: dense_bytes,
        };
        let plan = SparseMergePlan {
            algo,
            inter: None,
            elem_bytes: 4,
            max_density: DEFAULT_MAX_DENSITY,
        };
        let s = sparse_merge_timing(&l, &refs(&row_sets), &plan, &ctx, &arrivals, dense);
        assert!(!s.fell_back);
        assert!(s.density < 0.15, "density {}", s.density);
        assert!(
            dense.bytes_moved as f64 / s.timing.bytes_moved as f64 >= 10.0,
            "sparse bytes {} not ≥10x under dense {}",
            s.timing.bytes_moved,
            dense.bytes_moved
        );
        assert!(s.timing.duration() < dense.duration());
    }

    #[test]
    fn dense_union_falls_back_to_the_dense_schedule() {
        let l = layout();
        let n = 3;
        let ctx = CollectiveContext::new(Topology::pcie(n), &profile::homogeneous_server(n));
        let all_rows: Vec<u32> = (0..l.num_rows() as u32).collect();
        let row_sets = vec![all_rows.clone(), all_rows.clone(), all_rows];
        let dense = AllReduceTiming {
            start: SimTime(1.0),
            end: SimTime(2.0),
            bytes_moved: 777,
        };
        let plan = SparseMergePlan {
            algo: Algorithm::Ring,
            inter: None,
            elem_bytes: 4,
            max_density: 0.5,
        };
        let s = sparse_merge_timing(
            &l,
            &refs(&row_sets),
            &plan,
            &ctx,
            &vec![SimTime::ZERO; n],
            dense,
        );
        assert!(s.fell_back);
        assert_eq!(s.timing, dense);
        // A full union covers every flat element exactly once.
        assert_eq!(s.union_elems, l.param_len());
        assert!((s.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_deltas_cost_only_barrier_and_dense_blocks() {
        let l = layout();
        let n = 2;
        let ctx = CollectiveContext::new(Topology::pcie(n), &profile::homogeneous_server(n));
        let plan = SparseMergePlan {
            algo: Algorithm::Ring,
            inter: None,
            elem_bytes: 4,
            max_density: 0.5,
        };
        let dense = AllReduceTiming {
            start: SimTime::ZERO,
            end: SimTime(9.0),
            bytes_moved: 999,
        };
        let s = sparse_merge_timing(
            &l,
            &vec![[].as_slice(); n],
            &plan,
            &ctx,
            &vec![SimTime::ZERO; n],
            dense,
        );
        assert!(!s.fell_back);
        assert_eq!(s.union_rows, 0);
        assert_eq!(s.union_elems, l.dense_elems());
        // Only the b1 block moves: 2(n−1)·dense_elems·4 ring bytes, no ids.
        assert_eq!(s.timing.bytes_moved, 2 * (n - 1) * l.dense_elems() * 4);
    }

    #[test]
    fn hierarchical_schedule_beats_flat_sparse_on_slow_fabric() {
        // 8 servers × 4 devices on a 30µs-setup ethernet fabric, replicas
        // sampling candidate columns from a shared hot pool (the LSH
        // sampler's popular classes overlap heavily): the flat ring pays
        // the inter-node setup on every one of its 2(N−1) steps, the
        // two-level schedule only 2(S−1) times.
        let l = amazon_layout();
        let (servers, m) = (8, 4);
        let n = servers * m;
        let cluster = ClusterTopology::ethernet(servers, m);
        let ctx = CollectiveContext::cluster(&cluster, &profile::homogeneous_server(n));
        let arrivals = vec![SimTime::ZERO; n];
        let mut state = 0x1234u64;
        let row_sets: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let mut rows: Vec<u32> = (0..300)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                        l.features as u32 + (state >> 33) as u32 % 2000
                    })
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                rows
            })
            .collect();
        let dense = AllReduceTiming {
            start: SimTime::ZERO,
            end: SimTime(1e9),
            bytes_moved: usize::MAX / 2,
        };
        let algo = Algorithm::Ring;
        let flat_plan = SparseMergePlan {
            algo,
            inter: None,
            elem_bytes: 4,
            max_density: 0.5,
        };
        let hier_plan = SparseMergePlan {
            algo,
            inter: Some(InterNode::Ring),
            elem_bytes: 4,
            max_density: 0.5,
        };
        let flat = sparse_merge_timing(&l, &refs(&row_sets), &flat_plan, &ctx, &arrivals, dense);
        let hier = sparse_merge_timing(&l, &refs(&row_sets), &hier_plan, &ctx, &arrivals, dense);
        assert!(!flat.fell_back && !hier.fell_back);
        assert_eq!(flat.union_rows, hier.union_rows);
        assert!(
            hier.timing.duration() < flat.timing.duration(),
            "hier {} !< flat {}",
            hier.timing.duration(),
            flat.timing.duration()
        );
    }

    #[test]
    fn bf16_halves_the_sparse_value_bytes() {
        let l = layout();
        let n = 2;
        let ctx = CollectiveContext::new(Topology::pcie(n), &profile::homogeneous_server(n));
        let rows = vec![vec![0u32, 8], vec![1u32, 8]];
        let dense = AllReduceTiming {
            start: SimTime::ZERO,
            end: SimTime(1.0),
            bytes_moved: 1 << 30,
        };
        let mk = |elem_bytes| SparseMergePlan {
            algo: Algorithm::Ring,
            inter: None,
            elem_bytes,
            max_density: 1.0,
        };
        let f32s = sparse_merge_timing(
            &l,
            &refs(&rows),
            &mk(4),
            &ctx,
            &vec![SimTime::ZERO; n],
            dense,
        );
        let bf16s = sparse_merge_timing(
            &l,
            &refs(&rows),
            &mk(2),
            &ctx,
            &vec![SimTime::ZERO; n],
            dense,
        );
        // Value traffic halves; the 4-byte id traffic is identical.
        let ids = |s: &SparseMergeTiming, value_b: usize| {
            s.timing.bytes_moved - 2 * (n - 1) * s.union_elems * value_b
        };
        assert_eq!(ids(&f32s, 4), ids(&bf16s, 2));
        assert!(bf16s.timing.bytes_moved < f32s.timing.bytes_moved);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::algorithms::allreduce_flat;
    use asgd_gpusim::{profile, Topology};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The one pin that the buffer-less walk (`dense_schedule`) and the
        /// arithmetic walk report the same `(elapsed, bytes)` — over random
        /// shapes, lengths, algorithms, precisions and arrival skews.
        #[test]
        fn schedule_mirror_is_exact(
            n in 2usize..7,
            len in 1usize..600,
            seed in 0u64..1000,
            bf16_sel in 0usize..2,
            algo_idx in 0usize..4,
            skew in 0u64..50,
        ) {
            let bf16 = bf16_sel == 1;
            let profiles = profile::heterogeneous_server(n);
            let ctx = CollectiveContext::new(Topology::pcie(n), &profiles);
            let algo = match algo_idx {
                0 => Algorithm::Naive,
                1 => Algorithm::Tree,
                2 => Algorithm::Ring,
                _ => Algorithm::MultiStreamRing { partitions: (seed as usize % 8) + 1 },
            };
            let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
            };
            let mut bufs: Vec<FlatVec> = (0..n)
                .map(|_| {
                    if bf16 {
                        FlatVec::Bf16((0..len).map(|_| asgd_tensor::bf16::narrow(next())).collect())
                    } else {
                        FlatVec::F32((0..len).map(|_| next()).collect())
                    }
                })
                .collect();
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
            let arrivals: Vec<SimTime> =
                (0..n).map(|d| SimTime((d as u64 * skew) as f64 * 1e-5)).collect();
            let real = allreduce_flat(&mut bufs, &weights, algo, &ctx, &arrivals);
            let b = if bf16 { 2 } else { 4 };
            let mut start = SimTime::ZERO;
            for (d, &arrival) in arrivals.iter().enumerate() {
                let p = &ctx.profiles()[d];
                let scale_t =
                    (2 * b) as f64 * len as f64 / (p.mem_bandwidth_gbs * 1e9) / p.speed_factor;
                start = start.max(arrival + scale_t);
            }
            let (elapsed, bytes) = dense_schedule(algo, &ctx, len, b);
            prop_assert_eq!(real.start, start);
            prop_assert_eq!(real.end, start + elapsed);
            prop_assert_eq!(real.bytes_moved, bytes);
        }

        /// Gather → scatter over a shared base reconstructs any replica
        /// whose edits stayed inside its touched rows — the exact property
        /// the trainer's sparse merge path relies on for bit-identity.
        #[test]
        fn gather_scatter_roundtrip(
            features in 1usize..20,
            hidden in 1usize..8,
            classes in 1usize..20,
            seed in 0u64..1000,
            bf16_sel in 0usize..2,
            row_mask in 0u64..u64::MAX,
        ) {
            let l = SparseLayout::new(features, hidden, classes);
            let rows: Vec<u32> = (0..l.num_rows().min(64) as u32)
                .filter(|r| row_mask & (1u64 << (r % 64)) != 0)
                .collect();
            let bf16 = bf16_sel == 1;
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
            };
            let base = if bf16 {
                FlatVec::Bf16(
                    (0..l.param_len()).map(|_| asgd_tensor::bf16::narrow(next())).collect(),
                )
            } else {
                FlatVec::F32((0..l.param_len()).map(|_| next()).collect())
            };
            let mut replica = base.clone();
            match &mut replica {
                FlatVec::F32(v) => l.for_each_delta_index(&rows, |i| v[i] = v[i] * 0.5 + 1.0),
                FlatVec::Bf16(v) => l.for_each_delta_index(&rows, |i| v[i] = v[i].wrapping_add(3)),
            }
            let mut delta = FlatVec::default();
            gather_delta(&l, &rows, &replica, &mut delta);
            let mut rebuilt = base.clone();
            scatter_delta(&l, &rows, &delta, &mut rebuilt);
            prop_assert_eq!(rebuilt, replica);
        }
    }
}
