//! The all-reduce arithmetic: a recorded walk, replayed tile by tile.
//!
//! A collective's walk ([`crate::algorithms::walk`]) is run once with a
//! [`Recorder`], which moves nothing and keeps the exact step list — who
//! adds or copies which element range into whom, in which order — next to
//! the `(elapsed, bytes)` bill the walk computes anyway. The arithmetic then
//! happens per fixed-size *tile* of the element range: every device's tile
//! is loaded into a tile-sized scratch buffer, pre-scaled by its merge
//! weight, taken through every recorded step clipped to the tile, and handed
//! to a sink. All operations are element-wise and the steps that touch an
//! element run in recorded order, so the summation order of an element
//! depends only on its dense index — the result is bit-identical to
//! executing each step over its whole range, for any tile size, any division
//! of tiles among threads and any `ASGD_THREADS`. What changes is the memory
//! traffic: each model-sized buffer is read once and written once instead of
//! once per step.
//!
//! Where tiles come from and where they go is the caller's [`TilePart`]:
//! the public in-place collectives load from and store to the same `n`
//! buffers; the trainer's fused merge loads gathered replicas (or the global
//! model overlaid with sparse deltas) and stores the momentum update and the
//! redistribution payload (`asgd_core::merging::fused_merge`).

use crate::algorithms::{walk, Algorithm, Payload};
use crate::hierarchical::{hierarchical_timing, InterNode};
use crate::timing::{AllReduceTiming, CollectiveContext};
use asgd_gpusim::SimTime;
use asgd_tensor::bf16::ReduceElem;
use asgd_tensor::parallel::{num_threads, par_chunks_mut, split_ranges};
use std::ops::Range;

/// Elements per tile. With `n` scratch tiles per task the working set is
/// `n · TILE_ELEMS` elements — 32 KiB at four f32 replicas, resident in a
/// 48 KiB L1d next to the streamed source and sink lines. Any value from
/// 1 Ki to 32 Ki measures within noise of this one (2-core host, in-place
/// 13.1 M × 4 f32: 15–21 ms per collective; the trainer's fused pass:
/// 118–136 ms per six merges); 512 pays the per-tile step scan, 128 Ki
/// (2 MiB of tiles) falls out of L2 at 1.5×, 1 Mi at 2.7× — the numbers are
/// in DESIGN.md, "Cost model: one walk, two consumers".
pub const TILE_ELEMS: usize = 1 << 11;

/// Buffers shorter than this are reduced on the calling thread — the
/// fork/join on the worker pool only pays off for model-sized buffers.
pub(crate) const MIN_PAR_REDUCE: usize = 1 << 14;

/// One contiguous share of the element range, owned by one task of the tile
/// pass. `range` arguments are absolute element ranges inside the share, at
/// most [`TILE_ELEMS`] long, visited in ascending order; `tiles[d]` is device
/// `d`'s scratch tile, exactly `range.len()` long.
pub trait TilePart<E>: Send {
    /// Fills every `tiles[d]` with device `d`'s unscaled elements `range`.
    fn load(&mut self, range: Range<usize>, tiles: &mut [Vec<E>]);
    /// Takes the tile after the collective ran over it: `tiles[d]` holds
    /// what device `d`'s buffer would hold at `range`.
    fn store(&mut self, range: Range<usize>, tiles: &[Vec<E>]);
}

/// How a tile pass over `0..len` is divided among tasks: one share when
/// `pooled` is off or the buffer is short, otherwise one run of whole tiles
/// per worker thread. Shares are ascending and cover `0..len`; which
/// division is used never changes a bit of the result.
pub fn tile_shares(len: usize, pooled: bool) -> Vec<Range<usize>> {
    let tasks = if pooled && len >= MIN_PAR_REDUCE {
        num_threads()
    } else {
        1
    };
    split_ranges(len.div_ceil(TILE_ELEMS), tasks)
        .into_iter()
        .map(|t| t.start * TILE_ELEMS..(t.end * TILE_ELEMS).min(len))
        .collect()
}

/// Cuts `buf` at the boundaries of `shares` (ascending, covering
/// `0..buf.len()` — what [`tile_shares`] returns): a chain of
/// `split_at_mut`s, one slice per share.
pub fn split_shares<'a, T>(buf: &'a mut [T], shares: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut rest = buf;
    shares
        .iter()
        .map(|r| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            head
        })
        .collect()
}

/// One recorded step: `dst[range] += src[range]`, or `=` when `copy`.
struct Step {
    copy: bool,
    dst: usize,
    src: usize,
    range: Range<usize>,
}

/// The [`Payload`] that moves nothing and remembers every step.
#[derive(Default)]
struct Recorder(Vec<Step>);

impl Payload for Recorder {
    fn reduce(&mut self, dst: usize, src: usize, range: Range<usize>) {
        self.0.push(Step {
            copy: false,
            dst,
            src,
            range,
        });
    }

    fn copy(&mut self, dst: usize, src: usize, range: Range<usize>) {
        self.0.push(Step {
            copy: true,
            dst,
            src,
            range,
        });
    }
}

/// Weighted all-reduce of `weights.len()` devices' buffers of `len`
/// elements, streamed through `parts` — one `(share, part)` per entry of
/// [`tile_shares`]`(len, pooled)`, in order. More than one part runs on the
/// worker pool; a single part stays on the calling thread and submits
/// nothing to the pool (the merge-time OOM fallback).
///
/// The returned timing is the flat collective's — barrier after the
/// pre-scale, then the walk's own bill — or, with `inter`, the two-level
/// schedule of [`crate::hierarchical`] over the same arithmetic.
///
/// # Panics
/// Panics when `weights`, `arrivals` and `ctx` disagree on the device count
/// or there is no device.
pub fn allreduce_tiled<E: ReduceElem, P: TilePart<E>>(
    parts: &mut [(Range<usize>, P)],
    len: usize,
    weights: &[f64],
    algo: Algorithm,
    inter: Option<InterNode>,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
) -> AllReduceTiming {
    let n = weights.len();
    assert!(n > 0, "allreduce needs at least one participant");
    assert_eq!(arrivals.len(), n, "arrivals/buffers mismatch");
    assert_eq!(ctx.n_devices(), n, "context device count mismatch");
    debug_assert!(
        parts.iter().map(|(r, _)| r.len()).sum::<usize>() == len
            && parts.windows(2).all(|w| w[0].0.end == w[1].0.start),
        "parts must tile 0..len"
    );

    // Each replica is pre-scaled by its merge weight on its own device,
    // which delays that device's arrival. It must stay a separate pass (not
    // fused into the ring's adds): ring chunks forward partial sums, so
    // fusing would re-scale them. Cost model: one read + one write of the
    // stored payload (`2 · BYTES` bytes/element). The collective begins when
    // the last participant is ready.
    let start = (0..n)
        .map(|d| {
            let p = &ctx.profiles()[d];
            let scale_t =
                (2 * E::BYTES) as f64 * len as f64 / (p.mem_bandwidth_gbs * 1e9) / p.speed_factor;
            arrivals[d] + scale_t
        })
        .fold(SimTime::ZERO, SimTime::max);

    let mut steps = Recorder::default();
    let (elapsed, bytes) = walk(algo, ctx, len, E::BYTES, &mut steps);
    let scales: Vec<f32> = weights.iter().map(|&w| w as f32).collect();
    let nparts = parts.len();
    let min_serial = if nparts > 1 { 0 } else { usize::MAX };
    par_chunks_mut(parts, nparts, 1, min_serial, |_, chunk| {
        for (share, part) in chunk {
            replay(share.clone(), part, &steps.0, &scales);
        }
    });

    let flat = AllReduceTiming {
        start,
        end: start + elapsed,
        bytes_moved: bytes,
    };
    match inter {
        Some(inter) => hierarchical_timing(len, E::BYTES, algo, inter, ctx, flat),
        None => flat,
    }
}

/// Runs one share: per tile, load → pre-scale → every step clipped to the
/// tile → store.
fn replay<E: ReduceElem, P: TilePart<E>>(
    share: Range<usize>,
    part: &mut P,
    steps: &[Step],
    scales: &[f32],
) {
    let mut tiles: Vec<Vec<E>> = scales
        .iter()
        .map(|_| vec![E::ZERO; TILE_ELEMS.min(share.len())])
        .collect();
    let mut a = share.start;
    while a < share.end {
        let b = (a + TILE_ELEMS).min(share.end);
        for t in &mut tiles {
            // Only a share's last tile is short.
            t.truncate(b - a);
        }
        part.load(a..b, &mut tiles);
        for (t, &w) in tiles.iter_mut().zip(scales) {
            if w != 1.0 {
                E::scale_slice(w, t);
            }
        }
        for s in steps {
            let (lo, hi) = (s.range.start.max(a), s.range.end.min(b));
            if lo >= hi {
                continue;
            }
            let (dst, src) = pair(&mut tiles, s.dst, s.src);
            let (dst, src) = (&mut dst[lo - a..hi - a], &src[lo - a..hi - a]);
            if s.copy {
                dst.copy_from_slice(src);
            } else {
                E::add_slice(dst, src);
            }
        }
        part.store(a..b, &tiles);
        a = b;
    }
}

/// Borrows item `dst` mutably and item `src` immutably (`dst != src`).
pub(crate) fn pair<T>(items: &mut [T], dst: usize, src: usize) -> (&mut T, &T) {
    assert_ne!(dst, src);
    if dst < src {
        let (lo, hi) = items.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = items.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

/// The in-place collective's share: tiles come from, and go back to, the
/// same per-device buffers.
pub(crate) struct InPlace<'a, E> {
    /// First element of the share; `bufs[d]` starts there.
    pub(crate) start: usize,
    pub(crate) bufs: Vec<&'a mut [E]>,
}

impl<E: ReduceElem> TilePart<E> for InPlace<'_, E> {
    fn load(&mut self, range: Range<usize>, tiles: &mut [Vec<E>]) {
        let rel = range.start - self.start..range.end - self.start;
        for (t, b) in tiles.iter_mut().zip(&self.bufs) {
            t.copy_from_slice(&b[rel.clone()]);
        }
    }

    fn store(&mut self, range: Range<usize>, tiles: &[Vec<E>]) {
        let rel = range.start - self.start..range.end - self.start;
        for (t, b) in tiles.iter().zip(&mut self.bufs) {
            b[rel.clone()].copy_from_slice(t);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::algorithms::{allreduce_flat, allreduce_flat_serial, Arith};
    use asgd_gpusim::{profile, Topology};
    use asgd_tensor::parallel::override_threads;
    use asgd_tensor::FlatVec;
    use proptest::prelude::*;

    /// The collective as it ran before the tile replay: pre-scale every
    /// buffer whole, then execute every step of the walk over its whole
    /// range, on the calling thread.
    fn step_at_a_time<E: ReduceElem>(
        bufs: &mut [Vec<E>],
        weights: &[f64],
        algo: Algorithm,
        ctx: &CollectiveContext,
        arrivals: &[SimTime],
    ) -> AllReduceTiming {
        let len = bufs[0].len();
        let mut start = SimTime::ZERO;
        for (d, buf) in bufs.iter_mut().enumerate() {
            let w = weights[d] as f32;
            if w != 1.0 {
                E::scale_slice(w, buf);
            }
            let p = &ctx.profiles()[d];
            let scale_t =
                (2 * E::BYTES) as f64 * len as f64 / (p.mem_bandwidth_gbs * 1e9) / p.speed_factor;
            start = start.max(arrivals[d] + scale_t);
        }
        let mut p = Arith {
            bufs: bufs.iter_mut().map(|b| b.as_mut_slice()).collect(),
        };
        let (elapsed, bytes) = walk(algo, ctx, len, E::BYTES, &mut p);
        AllReduceTiming {
            start,
            end: start + elapsed,
            bytes_moved: bytes,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Tiled replay == step-at-a-time oracle: merged bits AND timing,
        /// across algorithms, device counts, lengths around the tile size,
        /// partition counts, precisions, pooled/serial and thread counts.
        #[test]
        fn tile_replay_matches_the_step_at_a_time_oracle(
            algo_idx in 0usize..4,
            n in 1usize..10,
            len_pick in 0usize..8,
            partitions in 1usize..11,
            bf16_sel in 0usize..2,
            pooled_sel in 0usize..2,
            threads_pick in 0usize..3,
            seed in 0u64..1000,
            skew in 0u64..50,
        ) {
            let (bf16, pooled) = (bf16_sel == 1, pooled_sel == 1);
            let len = [
                0,
                1,
                n - 1,
                TILE_ELEMS - 1,
                TILE_ELEMS,
                TILE_ELEMS + 1,
                3 * TILE_ELEMS + 7,
                49_000,
            ][len_pick];
            let algo = match algo_idx {
                0 => Algorithm::Naive,
                1 => Algorithm::Tree,
                2 => Algorithm::Ring,
                _ => Algorithm::MultiStreamRing { partitions },
            };
            let ctx = CollectiveContext::new(Topology::pcie(n), &profile::heterogeneous_server(n));
            let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
            };
            let values: Vec<Vec<f32>> =
                (0..n).map(|_| (0..len).map(|_| next()).collect()).collect();
            // Device 0 keeps weight 1.0: the skipped pre-scale is covered too.
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
            let arrivals: Vec<SimTime> =
                (0..n).map(|d| SimTime((d as u64 * skew) as f64 * 1e-5)).collect();

            let mut flat: Vec<FlatVec> = values
                .iter()
                .map(|v| {
                    if bf16 {
                        FlatVec::Bf16(v.iter().map(|&x| asgd_tensor::bf16::narrow(x)).collect())
                    } else {
                        FlatVec::F32(v.clone())
                    }
                })
                .collect();
            override_threads([1, 2, 8][threads_pick]);
            let got = if pooled {
                allreduce_flat(&mut flat, &weights, algo, &ctx, &arrivals)
            } else {
                allreduce_flat_serial(&mut flat, &weights, algo, &ctx, &arrivals)
            };
            override_threads(0);

            if bf16 {
                let mut want: Vec<Vec<u16>> =
                    flat_inputs(&values, asgd_tensor::bf16::narrow);
                let timing = step_at_a_time(&mut want, &weights, algo, &ctx, &arrivals);
                prop_assert_eq!(got, timing);
                for (g, w) in flat.iter().zip(&want) {
                    prop_assert_eq!(u16::slice(g).unwrap(), w.as_slice());
                }
            } else {
                let mut want: Vec<Vec<f32>> = flat_inputs(&values, |x| x);
                let timing = step_at_a_time(&mut want, &weights, algo, &ctx, &arrivals);
                prop_assert_eq!(got, timing);
                for (g, w) in flat.iter().zip(&want) {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(f32::slice(g).unwrap()), bits(w));
                }
            }
        }
    }

    fn flat_inputs<E>(values: &[Vec<f32>], store: impl Fn(f32) -> E) -> Vec<Vec<E>> {
        values
            .iter()
            .map(|v| v.iter().map(|&x| store(x)).collect())
            .collect()
    }
}
