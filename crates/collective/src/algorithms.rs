//! The all-reduce algorithms: each one's step walk, written once.
//!
//! A *walk* is the step structure of an algorithm — who sends which range
//! to whom in which round — together with its cost accounting (transfers of
//! a round overlap: max within a round, sum across rounds). Every walk hands
//! the payload of each step to a [`Payload`], and there are exactly two: the
//! recorder of [`crate::tiles`], which keeps the step list so the *real*
//! weighted-sum arithmetic can be compiled into the exact data flow of the
//! algorithm — one sum tree per segment, evaluated element by element, so
//! floating-point summation order matches what the hardware collective
//! would produce — and [`CostOnly`], which moves nothing
//! and makes the same walk the cost schedule of a collective at any length
//! (`sparse::dense_schedule`). The bill a collective presents and the
//! arithmetic it performs therefore come from a single pass over the same
//! loops, and the two can never drift apart.
//!
//! Within any single step of any algorithm here, the chunks written never
//! alias the chunks read (the ring forwards chunk `i - s` while reading
//! `i + 1 - s`), so applying the steps one after another in place is
//! bit-identical to a fully simultaneous exchange. The step-at-a-time
//! execution survives as `Arith`, the `#[cfg(test)]` oracle the compiled
//! plan is pinned against.

use crate::hierarchical::InterNode;
use crate::tiles::{allreduce_tiled, split_shares, tile_shares, InPlace, ReducePlan};
use crate::timing::{AllReduceTiming, CollectiveContext};
use asgd_gpusim::SimTime;
use asgd_tensor::bf16::ReduceElem;
use asgd_tensor::parallel::split_range;
use asgd_tensor::{FlatVec, Precision};
use std::ops::Range;

/// The collective algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Gather every replica to device 0, reduce there, broadcast back.
    Naive,
    /// Binomial-tree reduce followed by a tree broadcast (single stream) —
    /// the shape of NCCL's single-server tree algorithm.
    Tree,
    /// Classic single-stream ring: reduce-scatter + all-gather over
    /// `n` model chunks.
    Ring,
    /// The paper's algorithm: the model is split into `partitions`
    /// partitions, each running its own ring on a dedicated stream starting
    /// at a different GPU, overlapping transfer and reduction completely.
    /// The optimal partition count is empirically the GPU count (§IV).
    MultiStreamRing {
        /// Number of partitions = concurrent streams.
        partitions: usize,
    },
}

/// Runs a weighted all-reduce over per-device buffers.
///
/// On return every buffer holds `Σ_i weights[i] · input_i` and the returned
/// timing covers barrier wait, pre-scaling, transfers and reductions.
///
/// # Panics
/// Panics when lengths are inconsistent or `buffers` is empty.
pub fn allreduce(
    buffers: &mut [Vec<f32>],
    weights: &[f64],
    algo: Algorithm,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
) -> AllReduceTiming {
    let views = buffers.iter_mut().map(|b| b.as_mut_slice()).collect();
    allreduce_in_place(views, weights, algo, None, ctx, arrivals, true)
}

/// [`allreduce`] over precision-tagged flat buffers: every algorithm runs
/// on the stored element type (f32 verbatim, or bf16 bits with f32
/// accumulators and one narrow per store — see `asgd_tensor::bf16`), with
/// byte accounting and simulated transfer/reduce times reflecting the
/// element width.
///
/// # Panics
/// Panics when buffers mix precisions, lengths are inconsistent, or
/// `buffers` is empty.
pub fn allreduce_flat(
    buffers: &mut [FlatVec],
    weights: &[f64],
    algo: Algorithm,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
) -> AllReduceTiming {
    allreduce_flat_with(buffers, weights, algo, None, ctx, arrivals, true)
}

/// [`allreduce_flat`] degraded to the serial (non-pooled) path: no work is
/// ever submitted to the persistent worker pool, so the reduction succeeds
/// even when pooled scratch can't be allocated (the trainer's merge-time OOM
/// fallback). Per-element arithmetic order is identical to the pooled path —
/// results AND timing are bit-identical to [`allreduce_flat`]; only
/// wall-clock execution differs.
pub fn allreduce_flat_serial(
    buffers: &mut [FlatVec],
    weights: &[f64],
    algo: Algorithm,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
) -> AllReduceTiming {
    allreduce_flat_with(buffers, weights, algo, None, ctx, arrivals, false)
}

/// Dispatches [`allreduce_in_place`] on the storage precision of the flat
/// buffers (which must all match).
pub(crate) fn allreduce_flat_with(
    buffers: &mut [FlatVec],
    weights: &[f64],
    algo: Algorithm,
    inter: Option<InterNode>,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
    pooled: bool,
) -> AllReduceTiming {
    fn views<E: ReduceElem>(buffers: &mut [FlatVec]) -> Vec<&mut [E]> {
        let view = |b| E::slice_mut(b).expect("mixed-precision allreduce");
        buffers.iter_mut().map(view).collect()
    }
    assert!(
        !buffers.is_empty(),
        "allreduce needs at least one participant"
    );
    match buffers[0].precision() {
        Precision::F32 => allreduce_in_place(
            views::<f32>(buffers),
            weights,
            algo,
            inter,
            ctx,
            arrivals,
            pooled,
        ),
        Precision::Bf16 => allreduce_in_place(
            views::<u16>(buffers),
            weights,
            algo,
            inter,
            ctx,
            arrivals,
            pooled,
        ),
    }
}

/// The in-place collective, generic over the storage element (`f32`
/// reproduces the pre-generic code path bit for bit; `u16` runs the bf16
/// rounding contract): every buffer is cut at the tile-pass shares, and each
/// share's tiles are loaded from and stored back to the buffers themselves.
fn allreduce_in_place<E: ReduceElem>(
    views: Vec<&mut [E]>,
    weights: &[f64],
    algo: Algorithm,
    inter: Option<InterNode>,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
    pooled: bool,
) -> AllReduceTiming {
    assert!(
        !views.is_empty(),
        "allreduce needs at least one participant"
    );
    assert_eq!(weights.len(), views.len(), "weights/buffers mismatch");
    let len = views[0].len();
    assert!(
        views.iter().all(|b| b.len() == len),
        "replica size mismatch"
    );
    let shares = tile_shares(len, pooled);
    let mut parts: Vec<(Range<usize>, InPlace<E>)> = shares
        .iter()
        .map(|r| {
            let (start, bufs) = (r.start, Vec::with_capacity(views.len()));
            (r.clone(), InPlace { start, bufs })
        })
        .collect();
    for view in views {
        for ((_, part), slice) in parts.iter_mut().zip(split_shares(view, &shares)) {
            part.bufs.push(slice);
        }
    }
    let plan = ReducePlan::compile(algo, ctx, len);
    allreduce_tiled(&plan, parts, weights, inter, ctx, arrivals)
}

/// The data side of a collective step. The walks below own the step
/// structure and the cost accounting; a `Payload` only moves the elements.
pub(crate) trait Payload {
    /// `dst[range] += src[range]` (device indices, element range).
    fn reduce(&mut self, dst: usize, src: usize, range: Range<usize>);
    /// `dst[range] = src[range]`.
    fn copy(&mut self, dst: usize, src: usize, range: Range<usize>);
}

/// No buffers: the walk's accounting alone.
pub(crate) struct CostOnly;

impl Payload for CostOnly {
    fn reduce(&mut self, _: usize, _: usize, _: Range<usize>) {}
    fn copy(&mut self, _: usize, _: usize, _: Range<usize>) {}
}

/// Post-barrier `(elapsed, bytes_moved)` of `algo` over `len` elements of
/// width `elem_bytes`, handing every step to `p`.
///
/// The element range is cut into *streams* — one covering everything, except
/// for [`Algorithm::MultiStreamRing`], whose partitions each run their own
/// ring starting at a different GPU. Streams are element-disjoint and run
/// concurrently on the simulated fabric: durations overlap (max) and bytes
/// add, combined in stream order, so the totals are deterministic.
pub(crate) fn walk<P: Payload>(
    algo: Algorithm,
    ctx: &CollectiveContext,
    len: usize,
    elem_bytes: usize,
    p: &mut P,
) -> (f64, usize) {
    let n = ctx.n_devices();
    if n < 2 {
        return (0.0, 0);
    }
    // Stream `i` of `parts`; a zero-length multi-stream collective has none.
    let parts = match algo {
        Algorithm::MultiStreamRing { partitions } if len > 0 => partitions.clamp(1, len),
        Algorithm::MultiStreamRing { .. } => 0,
        _ => 1,
    };
    let mut total = (0.0f64, 0usize);
    for i in 0..parts {
        let r = split_range(len.max(1), parts, i);
        let r = r.start..r.end.min(len);
        let (t, bytes) = match algo {
            Algorithm::Naive => naive(p, ctx, elem_bytes, r),
            Algorithm::Tree => tree(p, ctx, elem_bytes, r),
            Algorithm::Ring => ring(p, ctx, elem_bytes, r, 0),
            Algorithm::MultiStreamRing { .. } => ring(p, ctx, elem_bytes, r, i % n),
        };
        total = (total.0.max(t), total.1 + bytes);
    }
    total
}

/// Gather-to-root + broadcast over `range`. Sequential on the root's links.
fn naive<P: Payload>(
    p: &mut P,
    ctx: &CollectiveContext,
    b: usize,
    range: Range<usize>,
) -> (f64, usize) {
    let n = ctx.n_devices();
    let len = range.len();
    let mut t = 0.0;
    let mut bytes = 0usize;
    for src in 1..n {
        p.reduce(0, src, range.clone());
        t += ctx.p2p_time_sized(src, 0, len, b) + ctx.reduce_time_sized(0, len, b);
        bytes += b * len;
    }
    for dst in 1..n {
        p.copy(dst, 0, range.clone());
        t += ctx.p2p_time_sized(0, dst, len, b);
        bytes += b * len;
    }
    (t, bytes)
}

/// Binomial tree reduce + broadcast over `range`, single stream,
/// whole-range transfers.
fn tree<P: Payload>(
    p: &mut P,
    ctx: &CollectiveContext,
    b: usize,
    range: Range<usize>,
) -> (f64, usize) {
    let n = ctx.n_devices();
    let len = range.len();
    let mut bytes = 0usize;
    // One round at `stride`: the pairs `(i, i + stride)`, `i = 0, 2·stride, …`
    // are concurrent. `up` reduces into `i`, otherwise `i` broadcasts.
    let mut round = |stride: usize, up: bool| -> f64 {
        let mut round_t = 0.0f64;
        let mut i = 0;
        while i + stride < n {
            let cost = if up {
                p.reduce(i, i + stride, range.clone());
                ctx.p2p_time_sized(i + stride, i, len, b) + ctx.reduce_time_sized(i, len, b)
            } else {
                p.copy(i + stride, i, range.clone());
                ctx.p2p_time_sized(i, i + stride, len, b)
            };
            round_t = round_t.max(cost);
            bytes += b * len;
            i += stride * 2;
        }
        round_t
    };
    let mut t = 0.0;
    // Reduce up: stride doubling. Broadcast down: reverse the strides.
    let mut stride = 1;
    while stride < n {
        t += round(stride, true);
        stride *= 2;
    }
    while stride >= 1 {
        t += round(stride, false);
        stride /= 2;
    }
    (t, bytes)
}

/// Ring all-reduce over `range`, with the ring starting role rotated by
/// `rotate` (used by the multi-stream variant so each partition's traffic
/// starts at a different GPU).
///
/// In reduce-scatter step `s`, device `i+1` receives chunk `i - s` while
/// only chunk `i + 1 - s` of its buffer is read (as the source of the next
/// hop) — written and read chunks never coincide within a step, so applying
/// the steps in sequence is bit-identical to a simultaneous exchange. The
/// all-gather phase overwrites chunk `i + 1 - s` while chunk `i + 2 - s` is
/// read: again disjoint.
fn ring<P: Payload>(
    p: &mut P,
    ctx: &CollectiveContext,
    b: usize,
    range: Range<usize>,
    rotate: usize,
) -> (f64, usize) {
    let n = ctx.n_devices();
    if range.is_empty() {
        return (0.0, 0);
    }
    // Chunk the range into n near-equal pieces; a range shorter than n has
    // one-element chunks and then empty ones, so every logical chunk index
    // stays addressable (timing charges only non-empty sends).
    let pieces = range.len().min(n);
    let chunk = |j: usize| {
        if j < pieces {
            let c = split_range(range.len(), pieces, j);
            range.start + c.start..range.start + c.end
        } else {
            range.end..range.end
        }
    };
    // Physical device playing logical role `i`.
    let dev = |i: usize| (i + rotate) % n;

    let mut t = 0.0f64;
    let mut bytes = 0usize;
    // Reduce-scatter, then all-gather. In step `s` logical device `i` sends
    // chunk `(i - s) mod n` to `i + 1`, which accumulates; after that phase
    // logical `i` owns the complete chunk `(i + 1) mod n`, so the gather
    // sends chunk `(i + 1 - s) mod n` and the receiver overwrites.
    for gather in [false, true] {
        for s in 0..n - 1 {
            let mut step_t = 0.0f64;
            for i in 0..n {
                let c = chunk((i + usize::from(gather) + n - s) % n);
                if c.is_empty() {
                    continue;
                }
                let elems = c.len();
                let (src, dst) = (dev(i), dev((i + 1) % n));
                let cost = if gather {
                    p.copy(dst, src, c);
                    ctx.p2p_time_sized(src, dst, elems, b)
                } else {
                    p.reduce(dst, src, c);
                    ctx.p2p_time_sized(src, dst, elems, b) + ctx.reduce_time_sized(dst, elems, b)
                };
                bytes += b * elems;
                // All transfers of a step run on disjoint ring links: take max.
                step_t = step_t.max(cost);
            }
            t += step_t;
        }
    }
    (t, bytes)
}

/// The step-at-a-time arithmetic, in place on whole per-device buffers —
/// what the collectives executed before the compiled plan, kept as the
/// oracle its evaluation is pinned against.
#[cfg(test)]
pub(crate) struct Arith<'a, E> {
    pub(crate) bufs: Vec<&'a mut [E]>,
}

/// Borrows item `dst` mutably and item `src` immutably (`dst != src`).
#[cfg(test)]
fn pair<T>(items: &mut [T], dst: usize, src: usize) -> (&mut T, &T) {
    assert_ne!(dst, src);
    if dst < src {
        let (lo, hi) = items.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = items.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

#[cfg(test)]
impl<E: ReduceElem> Payload for Arith<'_, E> {
    fn reduce(&mut self, dst: usize, src: usize, range: Range<usize>) {
        let (d, s) = pair(&mut self.bufs, dst, src);
        for (d, &s) in d[range.clone()].iter_mut().zip(&s[range]) {
            *d = d.plus(s);
        }
    }

    fn copy(&mut self, dst: usize, src: usize, range: Range<usize>) {
        let (d, s) = pair(&mut self.bufs, dst, src);
        d[range.clone()].copy_from_slice(&s[range]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::MIN_PAR_REDUCE;
    use asgd_gpusim::{profile, Topology};

    fn ctx(n: usize) -> CollectiveContext {
        CollectiveContext::new(Topology::pcie(n), &profile::homogeneous_server(n))
    }

    fn ring_on_vecs(bufs: &mut [Vec<f32>], ctx: &CollectiveContext, rotate: usize) -> (f64, usize) {
        let len = bufs[0].len();
        let mut p = Arith {
            bufs: bufs.iter_mut().map(|b| b.as_mut_slice()).collect(),
        };
        ring(&mut p, ctx, 4, 0..len, rotate)
    }

    #[test]
    fn ring_handles_len_smaller_than_devices() {
        let n = 4;
        let mut bufs: Vec<Vec<f32>> = (0..n).map(|d| vec![d as f32 + 1.0; 2]).collect();
        let w = vec![1.0f64; n];
        allreduce(
            &mut bufs,
            &w,
            Algorithm::Ring,
            &ctx(n),
            &vec![SimTime::ZERO; n],
        );
        for b in &bufs {
            assert_eq!(b, &vec![10.0f32; 2]);
        }
    }

    #[test]
    fn single_device_is_scale_only() {
        let mut bufs = vec![vec![2.0f32; 8]];
        let t = allreduce(
            &mut bufs,
            &[0.5],
            Algorithm::Ring,
            &ctx(1),
            &[SimTime::ZERO],
        );
        assert_eq!(bufs[0], vec![1.0f32; 8]);
        assert_eq!(t.bytes_moved, 0);
    }

    #[test]
    fn non_power_of_two_tree() {
        let n = 5;
        let mut bufs: Vec<Vec<f32>> = (0..n).map(|d| vec![d as f32; 16]).collect();
        let w = vec![1.0f64; n];
        allreduce(
            &mut bufs,
            &w,
            Algorithm::Tree,
            &ctx(n),
            &vec![SimTime::ZERO; n],
        );
        for b in &bufs {
            assert_eq!(b, &vec![10.0f32; 16]);
        }
    }

    #[test]
    fn rotation_does_not_change_result() {
        let n = 3;
        let make = || -> Vec<Vec<f32>> {
            (0..n)
                .map(|d| (0..50).map(|i| (d * 50 + i) as f32).collect())
                .collect()
        };
        let mut a = make();
        let mut b = make();
        ring_on_vecs(&mut a, &ctx(n), 0);
        ring_on_vecs(&mut b, &ctx(n), 2);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn bytes_moved_matches_ring_formula() {
        let n = 4;
        let len = 400usize;
        let mut bufs: Vec<Vec<f32>> = (0..n).map(|_| vec![1.0; len]).collect();
        let w = vec![1.0f64; n];
        let t = allreduce(
            &mut bufs,
            &w,
            Algorithm::Ring,
            &ctx(n),
            &vec![SimTime::ZERO; n],
        );
        // Ring moves 2(n-1)/n of the model per device: 2*(n-1)*len*4 bytes total.
        assert_eq!(t.bytes_moved, 2 * (n - 1) * len * 4);
    }

    #[test]
    fn thread_count_does_not_change_any_algorithm_bits() {
        // Buffers longer than MIN_PAR_REDUCE so the worker pool actually
        // engages; pseudo-random values so rounding differences would show.
        let n = 4;
        let len = MIN_PAR_REDUCE * 2 + 37;
        let make = || -> Vec<Vec<f32>> {
            let mut state = 0x9e3779b97f4a7c15u64;
            (0..n)
                .map(|_| {
                    (0..len)
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                            ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
                        })
                        .collect()
                })
                .collect()
        };
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let algos = [
            Algorithm::Naive,
            Algorithm::Tree,
            Algorithm::Ring,
            Algorithm::MultiStreamRing { partitions: n },
        ];
        for algo in algos {
            let mut serial = make();
            let mut pooled = make();
            asgd_tensor::parallel::override_threads(1);
            allreduce(
                &mut serial,
                &weights,
                algo,
                &ctx(n),
                &vec![SimTime::ZERO; n],
            );
            asgd_tensor::parallel::override_threads(8);
            allreduce(
                &mut pooled,
                &weights,
                algo,
                &ctx(n),
                &vec![SimTime::ZERO; n],
            );
            asgd_tensor::parallel::override_threads(0);
            for (a, b) in serial.iter().zip(&pooled) {
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{algo:?}: 1-thread and 8-thread results differ"
                );
            }
        }
    }

    #[test]
    fn serial_fallback_is_bit_identical_to_pooled_with_equal_timing() {
        // The OOM degradation path must change *nothing* observable but the
        // host-side execution strategy: same bits, same simulated timing.
        let n = 4;
        let len = MIN_PAR_REDUCE * 2 + 11;
        let make = || -> Vec<FlatVec> {
            let mut state = 0xDEAD_BEEF_u64;
            (0..n)
                .map(|_| {
                    FlatVec::F32(
                        (0..len)
                            .map(|_| {
                                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                                ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
                            })
                            .collect(),
                    )
                })
                .collect()
        };
        let weights: Vec<f64> = (0..n).map(|i| (i + 1) as f64 / 10.0).collect();
        let arrivals: Vec<SimTime> = (0..n).map(|i| SimTime(i as f64 * 0.01)).collect();
        for algo in [
            Algorithm::Naive,
            Algorithm::Tree,
            Algorithm::Ring,
            Algorithm::MultiStreamRing { partitions: n },
        ] {
            let mut pooled = make();
            let mut serial = make();
            let tp = allreduce_flat(&mut pooled, &weights, algo, &ctx(n), &arrivals);
            let ts = allreduce_flat_serial(&mut serial, &weights, algo, &ctx(n), &arrivals);
            let bits = |b: &FlatVec| -> Vec<u32> {
                (0..b.len()).map(|i| b.get_f32(i).to_bits()).collect()
            };
            for (a, b) in pooled.iter().zip(&serial) {
                assert_eq!(
                    bits(a),
                    bits(b),
                    "{algo:?}: serial fallback changed result bits"
                );
            }
            assert_eq!(tp.start, ts.start, "{algo:?}: start differs");
            assert_eq!(tp.end, ts.end, "{algo:?}: end differs");
            assert_eq!(tp.bytes_moved, ts.bytes_moved, "{algo:?}: bytes differ");
        }
    }

    /// Deterministic pseudo-random bf16 buffers (bit patterns from an LCG,
    /// narrowed from f32 so they are valid storage values).
    fn bf16_buffers(n: usize, len: usize, seed: u64) -> Vec<FlatVec> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                FlatVec::Bf16(
                    (0..len)
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                            asgd_tensor::bf16::narrow(
                                ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0,
                            )
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn bf16_thread_count_does_not_change_any_algorithm_bits() {
        let n = 4;
        let len = MIN_PAR_REDUCE * 2 + 37;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        for algo in [
            Algorithm::Naive,
            Algorithm::Tree,
            Algorithm::Ring,
            Algorithm::MultiStreamRing { partitions: n },
        ] {
            let mut one = bf16_buffers(n, len, 7);
            let mut eight = bf16_buffers(n, len, 7);
            asgd_tensor::parallel::override_threads(1);
            let t1 = allreduce_flat(&mut one, &weights, algo, &ctx(n), &vec![SimTime::ZERO; n]);
            asgd_tensor::parallel::override_threads(8);
            let t8 = allreduce_flat(&mut eight, &weights, algo, &ctx(n), &vec![SimTime::ZERO; n]);
            asgd_tensor::parallel::override_threads(0);
            assert_eq!(one, eight, "{algo:?}: bf16 bits differ across threads");
            assert_eq!(t1, t8, "{algo:?}: bf16 timing differs across threads");
            // Serial OOM fallback: same bits AND timing as the pooled path.
            let mut serial = bf16_buffers(n, len, 7);
            let ts = allreduce_flat_serial(
                &mut serial,
                &weights,
                algo,
                &ctx(n),
                &vec![SimTime::ZERO; n],
            );
            assert_eq!(serial, one, "{algo:?}: bf16 serial fallback bits differ");
            assert_eq!(ts, t1, "{algo:?}: bf16 serial fallback timing differs");
        }
    }

    #[test]
    fn bf16_ring_moves_half_the_bytes_of_f32() {
        let n = 4;
        let len = 400usize;
        let w = vec![1.0f64; n];
        let mut halves = bf16_buffers(n, len, 3);
        let th = allreduce_flat(
            &mut halves,
            &w,
            Algorithm::Ring,
            &ctx(n),
            &vec![SimTime::ZERO; n],
        );
        assert_eq!(th.bytes_moved, 2 * (n - 1) * len * 2);
        let mut fulls: Vec<FlatVec> = (0..n).map(|_| FlatVec::F32(vec![1.0; len])).collect();
        let tf = allreduce_flat(
            &mut fulls,
            &w,
            Algorithm::Ring,
            &ctx(n),
            &vec![SimTime::ZERO; n],
        );
        assert_eq!(tf.bytes_moved, 2 * th.bytes_moved);
        // Halved payloads finish the simulated collective faster.
        assert!(th.duration() < tf.duration());
    }

    #[test]
    fn bf16_allreduce_approximates_weighted_sum() {
        let n = 4;
        let len = 257;
        let weights = vec![1.0 / n as f64; n];
        let mut bufs = bf16_buffers(n, len, 11);
        let want: Vec<f64> = (0..len)
            .map(|i| {
                bufs.iter()
                    .zip(&weights)
                    .map(|(b, &w)| b.get_f32(i) as f64 * w)
                    .sum::<f64>()
            })
            .collect();
        allreduce_flat(
            &mut bufs,
            &weights,
            Algorithm::MultiStreamRing { partitions: n },
            &ctx(n),
            &vec![SimTime::ZERO; n],
        );
        for b in &bufs {
            for (i, &w) in want.iter().enumerate() {
                // bf16 keeps ~8 mantissa bits; the ring re-rounds per step.
                assert!(
                    (b.get_f32(i) as f64 - w).abs() < 0.05,
                    "elem {i}: {} vs {w}",
                    b.get_f32(i)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "mixed-precision allreduce")]
    fn mixed_precision_panics() {
        let mut bufs = vec![FlatVec::F32(vec![0.0; 8]), FlatVec::Bf16(vec![0; 8])];
        let _ = allreduce_flat(
            &mut bufs,
            &[0.5, 0.5],
            Algorithm::Ring,
            &ctx(2),
            &[SimTime::ZERO; 2],
        );
    }

    #[test]
    #[should_panic(expected = "replica size mismatch")]
    fn mismatched_replicas_panic() {
        let mut bufs = vec![vec![0.0f32; 4], vec![0.0f32; 5]];
        let _ = allreduce(
            &mut bufs,
            &[0.5, 0.5],
            Algorithm::Ring,
            &ctx(2),
            &[SimTime::ZERO; 2],
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use asgd_gpusim::{profile, Topology};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn every_algorithm_matches_reference(
            n in 2usize..5,
            len in 1usize..40,
            seed in 0u64..1000,
            algo_idx in 0usize..4,
        ) {
            let ctx = CollectiveContext::new(
                Topology::pcie(n),
                &profile::homogeneous_server(n),
            );
            let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
            };
            let mut bufs: Vec<Vec<f32>> =
                (0..n).map(|_| (0..len).map(|_| next()).collect()).collect();
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
            let want: Vec<f32> = (0..len)
                .map(|i| {
                    bufs.iter()
                        .zip(&weights)
                        .map(|(b, &w)| b[i] as f64 * w)
                        .sum::<f64>() as f32
                })
                .collect();
            let algo = match algo_idx {
                0 => Algorithm::Naive,
                1 => Algorithm::Tree,
                2 => Algorithm::Ring,
                _ => Algorithm::MultiStreamRing { partitions: n },
            };
            let timing = allreduce(&mut bufs, &weights, algo, &ctx, &vec![SimTime::ZERO; n]);
            prop_assert!(timing.duration() >= 0.0);
            for b in &bufs {
                for (g, w) in b.iter().zip(&want) {
                    prop_assert!((g - w).abs() < 1e-3, "{algo:?}: {g} vs {w}");
                }
            }
        }
    }
}
