//! Two-level (hierarchical) all-reduce over a simulated cluster.
//!
//! The journal extension of the paper generalizes Algorithm 2's single-server
//! merge to an N-server fleet: each server first reduces its replicas into
//! one buffer on a *lead* device over the fast intra-node links, the leads
//! then reduce across servers over the slow inter-node fabric (ring or
//! tree), and finally each lead broadcasts the merged model back inside its
//! server.
//!
//! # The reduction contract
//!
//! A genuine two-level summation would change floating-point association
//! (`(a₀+a₁)+(a₂+a₃)` vs the flat algorithm's order) and therefore the bits
//! of the merged model — every golden trace would fork on the fleet shape.
//! This module deliberately keeps the **arithmetic pinned to the single-level
//! all-reduce**: the weighted sum is produced by the flat collective's own
//! tile pass ([`crate::allreduce_flat`] — same pooled/serial machinery, same
//! per-element order, bit-identical for any `ASGD_THREADS`), while the
//! cluster topology shapes only the *simulated* two-level schedule —
//! barrier, per-phase durations and byte accounting.
//! Merging topology is a scheduling optimization, not an arithmetic one:
//! trajectories are invariant under flat↔hierarchical and ring↔tree
//! switches, which is exactly the property the determinism test suite pins.
//!
//! # Cost model
//!
//! With `S` servers of `M` devices, model length `L` (elements of width `B`):
//!
//! 1. **Intra reduce-to-lead** (servers concurrent, slowest bounds the
//!    phase): Naive `(M−1)·(p2p(L)+red(L))` sequential on the lead; Tree
//!    `⌈log₂M⌉·(p2p(L)+red(L))`; Ring / MultiStreamRing
//!    `(M−1)·(p2p(C)+red(C)) + (M−1)·p2p(C)` with `C = ⌈L/M⌉`.
//! 2. **Inter reduction over the `S` leads**: Ring
//!    `(S−1)·(inter(C·B)+red(C)) + (S−1)·inter(C·B)` with `C = ⌈L/S⌉`;
//!    Tree `⌈log₂S⌉·(inter(L·B)+red(L)) + ⌈log₂S⌉·inter(L·B)`. Both move
//!    `2(S−1)·L·B` bytes over the fabric.
//! 3. **Intra broadcast** (concurrent): `⌈log₂M⌉·p2p(L)`, `(M−1)·L·B` bytes
//!    per server.
//!
//! A single-server fleet (`S = 1`) degenerates to the flat collective —
//! timing included — so the 1×M row of a scaling curve is the flat baseline
//! by construction.

use crate::algorithms::{allreduce_flat_with, Algorithm};
use crate::timing::{AllReduceTiming, CollectiveContext};
use asgd_gpusim::SimTime;
use asgd_tensor::FlatVec;

/// The inter-node reduction shape run over the server leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterNode {
    /// Ring over the leads: bandwidth-optimal, `2(S−1)` chunk steps.
    Ring,
    /// Binomial tree over the leads: latency-optimal, `2⌈log₂S⌉` full-model
    /// steps.
    Tree,
}

/// Hierarchical weighted all-reduce over precision-tagged flat buffers.
///
/// Result bits are **identical** to [`crate::allreduce_flat`] with the same
/// `buffers`/`weights`/`intra` (see the module docs); the returned timing is
/// the two-level schedule derived from the cluster links in `ctx`.
///
/// # Panics
/// Panics on the same inconsistencies as [`crate::allreduce_flat`].
pub fn hierarchical_allreduce_flat(
    buffers: &mut [FlatVec],
    weights: &[f64],
    intra: Algorithm,
    inter: InterNode,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
) -> AllReduceTiming {
    allreduce_flat_with(buffers, weights, intra, Some(inter), ctx, arrivals, true)
}

/// [`hierarchical_allreduce_flat`] degraded to the serial (non-pooled)
/// arithmetic path — the merge-time OOM fallback. Bits and timing are
/// identical to the pooled variant; only host-side execution differs.
pub fn hierarchical_allreduce_flat_serial(
    buffers: &mut [FlatVec],
    weights: &[f64],
    intra: Algorithm,
    inter: InterNode,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
) -> AllReduceTiming {
    allreduce_flat_with(buffers, weights, intra, Some(inter), ctx, arrivals, false)
}

/// `⌈log₂ m⌉` (0 for `m ≤ 1`): the round count of a binomial tree over `m`
/// participants.
pub(crate) fn ceil_log2(m: usize) -> usize {
    if m <= 1 {
        0
    } else {
        (usize::BITS - (m - 1).leading_zeros()) as usize
    }
}

/// Devices of each server in ascending flat order, grouped by ascending
/// server id. The fixed server-major ordering is what makes the schedule —
/// and therefore the timing — independent of any interleaving.
pub(crate) fn server_groups(ctx: &CollectiveContext) -> Vec<Vec<usize>> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for d in 0..ctx.n_devices() {
        let s = ctx.server_of(d);
        match groups.iter_mut().find(|(id, _)| *id == s) {
            Some((_, members)) => members.push(d),
            None => groups.push((s, vec![d])),
        }
    }
    groups.sort_by_key(|(id, _)| *id);
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Phases 1–2 of the two-level schedule, shared by the dense merge (every
/// length is the model length) and the sparse merge (union lengths):
///
/// 1. every server reduces to its lead with `intra` at `server_len(g)`
///    elements — servers are concurrent, the slowest bounds the phase;
/// 2. the `S` leads reduce across the fabric with `inter` at `inter_len`
///    elements, moving `2(S−1)·inter_len·B` bytes.
///
/// Returns `(intra seconds, inter seconds, bytes of both)`; the durations
/// stay separate because the sparse schedule slots its id exchanges between
/// them and floating-point sums must keep their order.
pub(crate) fn reduce_phases(
    ctx: &CollectiveContext,
    groups: &[Vec<usize>],
    intra: Algorithm,
    inter: InterNode,
    elem_bytes: usize,
    server_len: impl Fn(usize) -> usize,
    inter_len: usize,
) -> (f64, f64, usize) {
    let red_max = |members: &[usize], elems: usize| -> f64 {
        members
            .iter()
            .map(|&d| ctx.reduce_time_sized(d, elems, elem_bytes))
            .fold(0.0f64, f64::max)
    };
    let mut bytes = 0usize;

    let mut intra_t = 0.0f64;
    for (g, members) in groups.iter().enumerate() {
        let m = members.len();
        if m < 2 {
            continue;
        }
        let lead = members[0];
        let len = server_len(g);
        let p2p = |elems: usize| ctx.p2p_time_sized(members[0], members[1], elems, elem_bytes);
        let (t, b) = match intra {
            Algorithm::Naive => (
                members
                    .iter()
                    .skip(1)
                    .map(|&d| {
                        ctx.p2p_time_sized(d, lead, len, elem_bytes)
                            + ctx.reduce_time_sized(lead, len, elem_bytes)
                    })
                    .sum::<f64>(),
                (m - 1) * len * elem_bytes,
            ),
            Algorithm::Tree => (
                ceil_log2(m) as f64 * (p2p(len) + red_max(members, len)),
                (m - 1) * len * elem_bytes,
            ),
            Algorithm::Ring | Algorithm::MultiStreamRing { .. } => {
                let c = len.div_ceil(m);
                (
                    (m - 1) as f64 * (p2p(c) + red_max(members, c)) + (m - 1) as f64 * p2p(c),
                    (m - 1) * m * c * elem_bytes + (m - 1) * c * elem_bytes,
                )
            }
        };
        intra_t = intra_t.max(t);
        bytes += b;
    }

    let servers = groups.len();
    let leads: Vec<usize> = groups.iter().map(|g| g[0]).collect();
    let inter_t = match inter {
        InterNode::Ring => {
            let c = inter_len.div_ceil(servers);
            (servers - 1) as f64 * (ctx.inter_time(c * elem_bytes) + red_max(&leads, c))
                + (servers - 1) as f64 * ctx.inter_time(c * elem_bytes)
        }
        InterNode::Tree => {
            let rounds = ceil_log2(servers) as f64;
            rounds * (ctx.inter_time(inter_len * elem_bytes) + red_max(&leads, inter_len))
                + rounds * ctx.inter_time(inter_len * elem_bytes)
        }
    };
    bytes += 2 * (servers - 1) * inter_len * elem_bytes;
    (intra_t, inter_t, bytes)
}

/// Phase 3: every lead broadcasts inside its server in `⌈log₂M⌉` binomial
/// rounds of `hop(from, to)` seconds (servers concurrent), each non-lead
/// member receiving `member_bytes`. Returns `(seconds, bytes)`.
pub(crate) fn broadcast_phase(
    groups: &[Vec<usize>],
    hop: impl Fn(usize, usize) -> f64,
    member_bytes: usize,
) -> (f64, usize) {
    let mut t = 0.0f64;
    let mut bytes = 0usize;
    for members in groups.iter().filter(|g| g.len() >= 2) {
        let m = members.len();
        t = t.max(ceil_log2(m) as f64 * hop(members[0], members[1]));
        bytes += (m - 1) * member_bytes;
    }
    (t, bytes)
}

/// Replaces the flat collective's post-barrier schedule over `len` elements
/// of width `b` with the two-level one. `flat.start` (barrier after
/// pre-scale) is kept: arrival semantics do not change with the merge
/// topology.
pub(crate) fn hierarchical_timing(
    len: usize,
    b: usize,
    intra: Algorithm,
    inter: InterNode,
    ctx: &CollectiveContext,
    flat: AllReduceTiming,
) -> AllReduceTiming {
    let groups = server_groups(ctx);
    if ctx.n_devices() <= 1 || groups.len() <= 1 || len == 0 {
        // One device, one server, or nothing to move: the flat schedule IS
        // the hierarchical one.
        return flat;
    }
    let (intra_t, inter_t, reduce_bytes) =
        reduce_phases(ctx, &groups, intra, inter, b, |_| len, len);
    let (bcast_t, bcast_bytes) = broadcast_phase(
        &groups,
        |from, to| ctx.p2p_time_sized(from, to, len, b),
        len * b,
    );
    AllReduceTiming {
        start: flat.start,
        end: flat.start + (intra_t + inter_t + bcast_t),
        bytes_moved: reduce_bytes + bcast_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::allreduce_flat;
    use asgd_gpusim::{profile, ClusterTopology};

    fn cluster_ctx(servers: usize, m: usize) -> CollectiveContext {
        let cluster = ClusterTopology::ethernet(servers, m);
        CollectiveContext::cluster(&cluster, &profile::homogeneous_server(servers * m))
    }

    fn f32_buffers(n: usize, len: usize, seed: u64) -> Vec<FlatVec> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                FlatVec::F32(
                    (0..len)
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                            ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn bf16_buffers(n: usize, len: usize, seed: u64) -> Vec<FlatVec> {
        f32_buffers(n, len, seed)
            .into_iter()
            .map(|b| match b {
                FlatVec::F32(v) => {
                    FlatVec::Bf16(v.iter().map(|&x| asgd_tensor::bf16::narrow(x)).collect())
                }
                other => other,
            })
            .collect()
    }

    fn norm_weights(n: usize) -> Vec<f64> {
        let raw: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        let sum: f64 = raw.iter().sum();
        raw.iter().map(|w| w / sum).collect()
    }

    #[test]
    fn hierarchical_bits_equal_flat_bits() {
        for (servers, m) in [(2usize, 3usize), (4, 4), (3, 1), (1, 4)] {
            let n = servers * m;
            let ctx = cluster_ctx(servers, m);
            let weights = norm_weights(n);
            let arrivals: Vec<SimTime> = (0..n).map(|d| SimTime(d as f64 * 1e-4)).collect();
            for make in [f32_buffers, bf16_buffers] {
                for inter in [InterNode::Ring, InterNode::Tree] {
                    let mut hier = make(n, 257, 5);
                    let mut flat = make(n, 257, 5);
                    hierarchical_allreduce_flat(
                        &mut hier,
                        &weights,
                        Algorithm::MultiStreamRing { partitions: n },
                        inter,
                        &ctx,
                        &arrivals,
                    );
                    allreduce_flat(
                        &mut flat,
                        &weights,
                        Algorithm::MultiStreamRing { partitions: n },
                        &ctx,
                        &arrivals,
                    );
                    assert_eq!(hier, flat, "{servers}x{m} {inter:?}: bits diverged");
                }
            }
        }
    }

    #[test]
    fn single_server_degenerates_to_flat_timing() {
        let ctx = cluster_ctx(1, 4);
        let weights = norm_weights(4);
        let mut hier = f32_buffers(4, 128, 9);
        let mut flat = f32_buffers(4, 128, 9);
        let th = hierarchical_allreduce_flat(
            &mut hier,
            &weights,
            Algorithm::Ring,
            InterNode::Ring,
            &ctx,
            &[SimTime::ZERO; 4],
        );
        let tf = allreduce_flat(
            &mut flat,
            &weights,
            Algorithm::Ring,
            &ctx,
            &[SimTime::ZERO; 4],
        );
        assert_eq!(th, tf);
    }

    #[test]
    fn hierarchical_beats_flat_on_slow_inter_link() {
        // 8 servers × 4 devices, 25GbE-class fabric: a flat ring pays the
        // inter-node setup on every one of its 2(N−1) steps; the two-level
        // schedule pays it only 2(S−1) times.
        let (servers, m) = (8, 4);
        let n = servers * m;
        let ctx = cluster_ctx(servers, m);
        let weights = norm_weights(n);
        let len = 1 << 16;
        let mut a = f32_buffers(n, len, 3);
        let mut b = f32_buffers(n, len, 3);
        let arrivals = vec![SimTime::ZERO; n];
        let hier = hierarchical_allreduce_flat(
            &mut a,
            &weights,
            Algorithm::Ring,
            InterNode::Ring,
            &ctx,
            &arrivals,
        );
        let flat = allreduce_flat(&mut b, &weights, Algorithm::Ring, &ctx, &arrivals);
        assert!(
            hier.duration() < flat.duration(),
            "hierarchical {} !< flat {}",
            hier.duration(),
            flat.duration()
        );
        assert_eq!(a, b);
    }

    #[test]
    fn serial_variant_matches_pooled_bits_and_timing() {
        let (servers, m) = (3, 2);
        let n = servers * m;
        let ctx = cluster_ctx(servers, m);
        let weights = norm_weights(n);
        let arrivals: Vec<SimTime> = (0..n).map(|d| SimTime(d as f64 * 2e-4)).collect();
        let mut pooled = bf16_buffers(n, 300, 21);
        let mut serial = bf16_buffers(n, 300, 21);
        let tp = hierarchical_allreduce_flat(
            &mut pooled,
            &weights,
            Algorithm::Tree,
            InterNode::Tree,
            &ctx,
            &arrivals,
        );
        let ts = hierarchical_allreduce_flat_serial(
            &mut serial,
            &weights,
            Algorithm::Tree,
            InterNode::Tree,
            &ctx,
            &arrivals,
        );
        assert_eq!(pooled, serial);
        assert_eq!(tp, ts);
    }

    #[test]
    fn thread_count_invariance_at_fleet_scale() {
        // 64 and 256 replicas — the ISSUE's target range — across both
        // precisions: bits must not depend on ASGD_THREADS.
        for (servers, m) in [(16usize, 4usize), (64, 4)] {
            let n = servers * m;
            let ctx = cluster_ctx(servers, m);
            let weights = norm_weights(n);
            let arrivals = vec![SimTime::ZERO; n];
            let len = 1 << 15; // above MIN_PAR_REDUCE so the pool engages
            for make in [f32_buffers, bf16_buffers] {
                let mut one = make(n, len, 13);
                let mut eight = make(n, len, 13);
                asgd_tensor::parallel::override_threads(1);
                let t1 = hierarchical_allreduce_flat(
                    &mut one,
                    &weights,
                    Algorithm::MultiStreamRing { partitions: 4 },
                    InterNode::Ring,
                    &ctx,
                    &arrivals,
                );
                asgd_tensor::parallel::override_threads(8);
                let t8 = hierarchical_allreduce_flat(
                    &mut eight,
                    &weights,
                    Algorithm::MultiStreamRing { partitions: 4 },
                    InterNode::Ring,
                    &ctx,
                    &arrivals,
                );
                asgd_tensor::parallel::override_threads(0);
                assert_eq!(one, eight, "{servers}x{m}: bits differ across threads");
                assert_eq!(t1, t8, "{servers}x{m}: timing differs across threads");
            }
        }
    }

    #[test]
    fn ceil_log2_rounds() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::algorithms::allreduce_flat;
    use asgd_gpusim::{profile, ClusterTopology};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The ISSUE's contract: for random fleet shapes (1–16 servers ×
        /// 1–8 devices), random weights and both precisions, the
        /// hierarchical merge result is bit-equal to the single-level
        /// all-reduce over the same flat buffers.
        #[test]
        fn hierarchical_is_bit_equal_to_flat(
            servers in 1usize..=16,
            m in 1usize..=8,
            len in 1usize..200,
            seed in 0u64..1000,
            bf16_sel in 0usize..2,
            tree_sel in 0usize..2,
            algo_idx in 0usize..4,
        ) {
            let (bf16, tree_inter) = (bf16_sel == 1, tree_sel == 1);
            let n = servers * m;
            let cluster = ClusterTopology::ethernet(servers, m);
            let ctx = CollectiveContext::cluster(&cluster, &profile::homogeneous_server(n));
            let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
            };
            let make = |next: &mut dyn FnMut() -> f32| -> Vec<FlatVec> {
                (0..n)
                    .map(|_| {
                        if bf16 {
                            FlatVec::Bf16(
                                (0..len).map(|_| asgd_tensor::bf16::narrow(next())).collect(),
                            )
                        } else {
                            FlatVec::F32((0..len).map(|_| next()).collect())
                        }
                    })
                    .collect()
            };
            let mut hier = make(&mut next);
            let flat_inputs: Vec<FlatVec> = hier.clone();
            let mut flat = flat_inputs;
            let raw: Vec<f64> = (0..n).map(|i| 0.2 + ((seed as usize + i) % 7) as f64).collect();
            let sum: f64 = raw.iter().sum();
            let weights: Vec<f64> = raw.iter().map(|w| w / sum).collect();
            let algo = match algo_idx {
                0 => Algorithm::Naive,
                1 => Algorithm::Tree,
                2 => Algorithm::Ring,
                _ => Algorithm::MultiStreamRing { partitions: m.max(1) },
            };
            let inter = if tree_inter { InterNode::Tree } else { InterNode::Ring };
            let arrivals: Vec<SimTime> = (0..n).map(|d| SimTime(d as f64 * 1e-5)).collect();
            let th = hierarchical_allreduce_flat(&mut hier, &weights, algo, inter, &ctx, &arrivals);
            let tf = allreduce_flat(&mut flat, &weights, algo, &ctx, &arrivals);
            prop_assert_eq!(hier, flat, "{}x{} {:?}/{:?}: bits diverged", servers, m, algo, inter);
            prop_assert_eq!(th.start, tf.start, "barrier must not depend on merge topology");
        }
    }
}
