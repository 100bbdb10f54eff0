//! The all-reduce arithmetic: a recorded walk, compiled once into one sum
//! tree per segment and evaluated straight from the sources.
//!
//! A collective's walk ([`crate::algorithms::walk`]) is run once with a
//! [`Recorder`], which moves nothing and keeps the exact step list — who
//! adds or copies which element range into whom, in which order.
//! [`ReducePlan::compile`] then runs that list *symbolically*: the step
//! ranges cut `0..len` into segments, and inside a segment every step covers
//! all of it or none of it, so one pass over the steps turns an `add` into a
//! node `dst + src` (operands in the recorded order, so even NaN payloads
//! follow) and a `copy` into a move of a node. What every device holds at the
//! end is one tree per segment over the `n` pre-scaled inputs — the same
//! tree for every device, since every walk ends in a broadcast or an
//! all-gather — and the all-gather copies, which nothing reads, vanish.
//!
//! [`allreduce_tiled`] evaluates each element's tree from its sources: per
//! block of a segment, each leaf is read where the caller's [`TilePart`]
//! says it lives (a replica in place, a sparse delta's row, the shared base
//! under it), pre-scaled by its merge weight as it is read (and not at all
//! when the weight is `1`), and each add rounds to the storage precision as
//! [`ReduceElem::plus`] does. The operations, their operands and their order
//! are the step-at-a-time walk's for every element, so the result is bit for
//! bit the walk's, for any block size, any division of the range among
//! threads and any `ASGD_THREADS`. What changes is the memory traffic: every
//! source is read once, nothing is copied into scratch tiles, and the sink
//! sees one block of reduced values.

use crate::algorithms::{walk, Algorithm, Payload};
use crate::hierarchical::{hierarchical_timing, InterNode};
use crate::timing::{AllReduceTiming, CollectiveContext};
use asgd_gpusim::SimTime;
use asgd_tensor::bf16::ReduceElem;
use asgd_tensor::parallel::{num_threads, par_chunks_mut, split_range};
use std::ops::Range;

/// Elements per tile: the unit of the tile pass's division among threads
/// (shares are runs of whole tiles) and of the sums of squares the fused
/// merge leaves per tile. A block the evaluator hands to a sink never
/// crosses a tile boundary.
pub const TILE_ELEMS: usize = 1 << 11;

/// Buffers shorter than this are reduced on the calling thread — the
/// fork/join on the worker pool only pays off for model-sized buffers.
pub(crate) const MIN_PAR_REDUCE: usize = 1 << 14;

/// Most shares a tile pass is cut into (more threads leave the rest idle;
/// the division never changes a bit).
const MAX_SHARES: usize = 64;

/// Elements per evaluated block, at most: a block's partial sums stay in
/// L1 next to the streamed sources and the sink.
const BLOCK: usize = 512;

/// Most devices one collective reduces. Each task of a pass keeps the
/// partial sums of a block's tree (`n − 1` adds) on its stack, and the
/// fused merge views every replica's delta from its own, so a plan is
/// refused beyond this bound rather than spilling to the heap.
pub const MAX_DEVICES: usize = 1 << 10;

/// Partial-sum elements each task keeps on its stack: a block holds one
/// element per add of its tree, `TEMP_CAP / adds` elements wide.
const TEMP_CAP: usize = 8 * BLOCK;
const _: () = assert!(MAX_DEVICES <= TEMP_CAP);

/// Devices whose source runs each task tracks on its stack; a collective
/// over more keeps them in one heap buffer per task.
const STACK_RUNS: usize = 64;

/// How a tile pass over `0..len` is divided among tasks: one share when
/// `pooled` is off or the buffer is short, otherwise one run of whole tiles
/// per worker thread (at most `MAX_SHARES`). Shares are ascending and cover
/// `0..len`; which division is used never changes a bit of the result.
/// Built on the stack: dividing a pass allocates nothing.
#[derive(Clone)]
pub struct Shares {
    ranges: [Range<usize>; MAX_SHARES],
    count: usize,
}

impl std::ops::Deref for Shares {
    type Target = [Range<usize>];
    fn deref(&self) -> &[Range<usize>] {
        &self.ranges[..self.count]
    }
}

/// The shares of a tile pass over `0..len` (see [`Shares`]).
pub fn tile_shares(len: usize, pooled: bool) -> Shares {
    let tasks = if pooled && len >= MIN_PAR_REDUCE {
        num_threads().min(MAX_SHARES)
    } else {
        1
    };
    let tiles = len.div_ceil(TILE_ELEMS);
    let count = tasks.min(tiles);
    let mut ranges = [const { 0..0 }; MAX_SHARES];
    for (i, r) in ranges[..count].iter_mut().enumerate() {
        let t = split_range(tiles, count, i);
        *r = t.start * TILE_ELEMS..(t.end * TILE_ELEMS).min(len);
    }
    Shares { ranges, count }
}

/// Cuts `buf` at the boundaries of `shares` (ascending, covering
/// `0..buf.len()` — what [`tile_shares`] returns): a chain of
/// `split_at_mut`s, one slice per share, built as they are taken.
pub fn split_shares<'a, 's, T>(
    buf: &'a mut [T],
    shares: &'s [Range<usize>],
) -> impl Iterator<Item = &'a mut [T]> + 's
where
    'a: 's,
{
    let mut rest = buf;
    shares.iter().map(move |r| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        rest = tail;
        head
    })
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

/// One add of a segment's tree: `value(a) + value(b)`, in that order. A
/// value below `n` is that device's pre-scaled input; value `n + j` is the
/// segment's `j`-th add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    a: u32,
    b: u32,
}

/// A run of elements that share one tree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    end: usize,
    /// The tree's adds, in evaluation order (operands before their uses).
    ops: Range<usize>,
    /// The value every device ends with (an input only when `n == 1`).
    result: u32,
}

/// The arithmetic of one collective — `algo` over `n` devices and `len`
/// elements — compiled from its recorded walk: one sum tree per segment of
/// the element range (module docs). Compiled once per (algorithm, device
/// count, length) and evaluated by every [`allreduce_tiled`] of that shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducePlan {
    algo: Algorithm,
    n: usize,
    len: usize,
    segments: Vec<Segment>,
    ops: Vec<Op>,
    /// Adds of the largest tree.
    max_ops: usize,
}

impl ReducePlan {
    /// Runs `algo`'s walk over `ctx`'s devices and `len` elements with a
    /// recorder and compiles what it records (module docs).
    ///
    /// # Panics
    /// Panics with more than [`MAX_DEVICES`] devices, or if the walk leaves
    /// two devices with different trees (no walk here does: each ends in a
    /// broadcast or an all-gather).
    pub fn compile(algo: Algorithm, ctx: &CollectiveContext, len: usize) -> Self {
        let n = ctx.n_devices();
        assert!(n > 0, "allreduce needs at least one participant");
        assert!(
            n <= MAX_DEVICES,
            "allreduce over {n} devices: at most {MAX_DEVICES}"
        );
        let mut rec = Recorder::default();
        walk(algo, ctx, len, 4, &mut rec);
        let steps = rec.0;
        let mut cuts: Vec<usize> = vec![0, len];
        for s in steps.iter().filter(|s| !s.range.is_empty()) {
            cuts.extend([s.range.start, s.range.end]);
        }
        cuts.sort_unstable();
        cuts.dedup();
        // The steps covering each segment, in recorded order: `covers[j]`
        // lists segment `j`'s (each step covers a run of whole segments).
        let segs = |r: &Range<usize>| {
            let at = |x: usize| cuts.binary_search(&x).expect("a cut");
            at(r.start)..at(r.end)
        };
        let mut first = vec![0usize; cuts.len()];
        for s in steps.iter().filter(|s| !s.range.is_empty()) {
            for j in segs(&s.range) {
                first[j + 1] += 1;
            }
        }
        for j in 1..first.len() {
            first[j] += first[j - 1];
        }
        let mut covers = vec![0u32; first[cuts.len() - 1]];
        let mut fill = first.clone();
        for (i, s) in steps
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.range.is_empty())
        {
            for j in segs(&s.range) {
                covers[fill[j]] = i as u32;
                fill[j] += 1;
            }
        }

        let mut plan = ReducePlan {
            algo,
            n,
            len,
            segments: Vec::new(),
            ops: Vec::new(),
            max_ops: 0,
        };
        let (mut nodes, mut holds) = (Vec::new(), Vec::with_capacity(n));
        let (mut keep, mut live) = (Vec::new(), Vec::new());
        for (j, w) in cuts.windows(2).enumerate() {
            let (lo, hi) = (w[0], w[1]);
            nodes.clear();
            holds.clear();
            holds.extend(0..n as u32);
            for &i in &covers[first[j]..first[j + 1]] {
                let s = &steps[i as usize];
                if s.copy {
                    holds[s.dst] = holds[s.src];
                } else {
                    nodes.push(Op {
                        a: holds[s.dst],
                        b: holds[s.src],
                    });
                    holds[s.dst] = (n + nodes.len() - 1) as u32;
                }
            }
            let result = holds[0];
            assert!(
                holds.iter().all(|&h| h == result),
                "{algo:?} leaves the devices different trees on {lo}..{hi}"
            );
            // Only the adds the result reads, renumbered in their order.
            keep.clear();
            keep.resize(nodes.len(), u32::MAX);
            live.clear();
            live.resize(nodes.len(), false);
            if result as usize >= n {
                live[result as usize - n] = true;
            }
            for j in (0..nodes.len()).rev() {
                if live[j] {
                    for v in [nodes[j].a, nodes[j].b] {
                        if v as usize >= n {
                            live[v as usize - n] = true;
                        }
                    }
                }
            }
            let first = plan.ops.len();
            let renumber = |v: u32, keep: &[u32]| {
                if (v as usize) < n {
                    v
                } else {
                    keep[v as usize - n]
                }
            };
            for (j, op) in nodes.iter().enumerate().filter(|(j, _)| live[*j]) {
                keep[j] = (n + plan.ops.len() - first) as u32;
                plan.ops.push(Op {
                    a: renumber(op.a, &keep),
                    b: renumber(op.b, &keep),
                });
            }
            let ops = first..plan.ops.len();
            plan.max_ops = plan.max_ops.max(ops.len());
            plan.segments.push(Segment {
                end: hi,
                ops,
                result: renumber(result, &keep),
            });
        }
        // A tree over `n` leaves has `n − 1` adds: a block of at least one
        // element fits the task's partial sums (`MAX_DEVICES ≤ TEMP_CAP`).
        assert!(plan.max_ops < n, "{algo:?} reads an input twice");
        plan
    }

    /// Whether this plan is `algo` over `n` devices and `len` elements.
    pub fn fits(&self, algo: Algorithm, n: usize, len: usize) -> bool {
        (self.algo, self.n, self.len) == (algo, n, len)
    }
}

/// Where a run of one device's stored elements is read from.
#[derive(Debug, Clone, Copy)]
pub enum Src<'s, E> {
    /// Elements at the storage precision, taken as they are.
    Stored(&'s [E]),
    /// f32 elements, each rounded to the storage precision as it is read
    /// ([`ReduceElem::round`]: a copy at f32, bf16's one round point).
    Narrow(&'s [f32]),
}

/// One contiguous share of the element range, owned by one task of the
/// pass: it says where each device's elements live and takes the reduced
/// ones. Ranges are absolute element indices inside the share, visited in
/// ascending order.
pub trait TilePart<E>: Send {
    /// Where a run of a device's elements lives, in the part's own terms.
    type Loc: Copy;
    /// Where device `d`'s elements from `at` on live, and where that run
    /// ends (exclusive, past `at`; the share's end at the latest).
    fn locate(&self, d: usize, at: usize) -> (Self::Loc, usize);
    /// Device `d`'s unscaled elements `range`, inside a run `locate`
    /// returned `loc` for.
    fn read(&self, d: usize, loc: Self::Loc, range: Range<usize>) -> Src<'_, E>;
    /// Takes `merged`, what every device's buffer holds at `range` after
    /// the collective. `range` never crosses a [`TILE_ELEMS`] boundary.
    fn store(&mut self, range: Range<usize>, merged: &[E]);
}

/// Weighted all-reduce of `weights.len()` devices' buffers of `plan`'s
/// length, evaluated through `parts` — one `(share, part)` per entry of
/// [`tile_shares`], in order. More than one part runs on the worker pool; a
/// single part stays on the calling thread and submits nothing to the pool
/// (the merge-time OOM fallback). Over at most 64 devices the pass
/// allocates nothing: each task's scratch is on its stack.
///
/// The returned timing is the flat collective's — barrier after the
/// pre-scale, then the walk's own bill — or, with `inter`, the two-level
/// schedule of [`crate::hierarchical`] over the same arithmetic.
///
/// # Panics
/// Panics when `weights`, `arrivals`, `ctx` and `plan` disagree on the
/// device count, or there are more than `MAX_SHARES` parts.
pub fn allreduce_tiled<E: ReduceElem, P: TilePart<E>>(
    plan: &ReducePlan,
    parts: impl IntoIterator<Item = (Range<usize>, P)>,
    weights: &[f64],
    inter: Option<InterNode>,
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
) -> AllReduceTiming {
    let (n, len) = (weights.len(), plan.len);
    assert!(n > 0, "allreduce needs at least one participant");
    assert_eq!(arrivals.len(), n, "arrivals/buffers mismatch");
    assert_eq!(ctx.n_devices(), n, "context device count mismatch");
    assert_eq!(plan.n, n, "plan device count mismatch");

    // Each replica is pre-scaled by its merge weight on its own device,
    // which delays that device's arrival. It must stay a separate step (not
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
    let (elapsed, bytes) = walk(
        plan.algo,
        ctx,
        len,
        E::BYTES,
        &mut crate::algorithms::CostOnly,
    );

    let mut slots: [Option<(Range<usize>, P)>; MAX_SHARES] = [const { None }; MAX_SHARES];
    let mut count = 0;
    for part in parts {
        assert!(count < MAX_SHARES, "more parts than shares");
        debug_assert!(
            part.0.start
                == count
                    .checked_sub(1)
                    .map_or(0, |c| slots[c].as_ref().unwrap().0.end),
            "parts must tile 0..len"
        );
        slots[count] = Some(part);
        count += 1;
    }
    debug_assert!(
        slots[..count]
            .last()
            .map_or(len == 0, |p| p.as_ref().unwrap().0.end == len),
        "parts must tile 0..len"
    );
    let min_serial = if count > 1 { 0 } else { usize::MAX };
    par_chunks_mut(&mut slots[..count], count, 1, min_serial, |_, chunk| {
        for (share, part) in chunk.iter_mut().flatten() {
            #[cfg(target_arch = "x86_64")]
            if asgd_tensor::kernels::avx2_fma_available() {
                // SAFETY: AVX2 support was just verified.
                unsafe { evaluate_avx2(plan, share.clone(), part, weights) };
                continue;
            }
            evaluate(plan, share.clone(), part, weights);
        }
    });

    let flat = AllReduceTiming {
        start,
        end: start + elapsed,
        bytes_moved: bytes,
    };
    match inter {
        Some(inter) => hierarchical_timing(len, E::BYTES, plan.algo, inter, ctx, flat),
        None => flat,
    }
}

/// A leaf or a partial sum, as one block's operand.
#[derive(Clone, Copy)]
enum Read<'s, E> {
    Plain(&'s [E]),
    Scaled(&'s [E], f32),
    Narrow(&'s [f32]),
    NarrowScaled(&'s [f32], f32),
}

/// Binds `$it` to an iterator over `$r`'s values at the storage precision
/// and evaluates `$body` — one monomorphized loop per kind of operand.
macro_rules! with_values {
    ($E:ty, $r:expr, $it:ident => $body:expr) => {
        match $r {
            Read::Plain(v) => {
                let $it = v.iter().copied();
                $body
            }
            Read::Scaled(v, s) => {
                let $it = v.iter().map(move |&x| x.times(s));
                $body
            }
            Read::Narrow(v) => {
                let $it = v.iter().map(|&x| <$E>::round(x));
                $body
            }
            Read::NarrowScaled(v, s) => {
                let $it = v.iter().map(move |&x| <$E>::round(x).times(s));
                $body
            }
        }
    };
}

/// `out[i] = a[i] + b[i]`, rounded to the storage precision.
#[inline(always)]
fn add_block<E: ReduceElem>(out: &mut [E], a: Read<'_, E>, b: Read<'_, E>) {
    with_values!(E, a, xa => with_values!(E, b, xb => {
        for ((o, x), y) in out.iter_mut().zip(xa).zip(xb) {
            *o = x.plus(y);
        }
    }))
}

/// `out[i] = a[i]` (the one-device collective's tree).
#[inline(always)]
fn load_block<E: ReduceElem>(out: &mut [E], a: Read<'_, E>) {
    with_values!(E, a, xa => {
        for (o, x) in out.iter_mut().zip(xa) {
            *o = x;
        }
    })
}

/// Evaluates one share: block by block — never across a segment, a tile
/// or a source run — every add of the block's tree over the whole block,
/// reading each leaf where its part says it lives, then the block to the
/// sink.
#[inline(always)]
fn evaluate<E: ReduceElem, P: TilePart<E>>(
    plan: &ReducePlan,
    share: Range<usize>,
    part: &mut P,
    weights: &[f64],
) {
    let n = plan.n;
    // `compile` bounds the adds: `max_ops < n ≤ MAX_DEVICES ≤ TEMP_CAP`.
    let block = (TEMP_CAP / plan.max_ops.max(1)).clamp(1, BLOCK);
    let temps = &mut [E::ZERO; TEMP_CAP];
    // The spill stays on purpose: with a fixed stack table and no heap
    // side (64 entries or `MAX_DEVICES` alike) the same loop measured ~20 %
    // slower on the sampled benchmark, for the same bits (EXPERIMENTS.md,
    // "One bound for the stack scratch"). More than `STACK_RUNS` devices
    // take the heap side (`the_most_devices_reduce_like_the_walk`).
    let (mut runs_stack, mut runs_heap) = ([None; STACK_RUNS], Vec::new());
    let runs: &mut [Option<(P::Loc, usize)>] = if n <= STACK_RUNS {
        &mut runs_stack[..n]
    } else {
        runs_heap.resize(n, None);
        &mut runs_heap
    };

    let mut seg = plan.segments.partition_point(|s| s.end <= share.start);
    let mut at = share.start;
    while at < share.end {
        let s = &plan.segments[seg];
        if s.end <= at {
            seg += 1;
            continue;
        }
        let tile_end = (at / TILE_ELEMS + 1) * TILE_ELEMS;
        let end = (at + block).min(s.end).min(share.end).min(tile_end);
        let m = end - at;
        let part_ref = &*part;
        // Leaf `d` from element `from` on, up to where its run or the block
        // ends.
        let mut leaf = |d: usize, from: usize| {
            let run = &mut runs[d];
            let (loc, run_end) = match *run {
                Some(r) if r.1 > from => r,
                _ => *run.insert(part_ref.locate(d, from)),
            };
            let to = run_end.min(end);
            let scale = weights[d] as f32;
            let read = match (part_ref.read(d, loc, from..to), scale != 1.0) {
                (Src::Stored(v), false) => Read::Plain(v),
                (Src::Stored(v), true) => Read::Scaled(v, scale),
                (Src::Narrow(v), false) => Read::Narrow(v),
                (Src::Narrow(v), true) => Read::NarrowScaled(v, scale),
            };
            (read, to)
        };
        // Every add runs over the whole block, cut only where one of its
        // own leaves changes source.
        let ops = &plan.ops[s.ops.clone()];
        for (j, op) in ops.iter().enumerate() {
            let (done, rest) = temps.split_at_mut(j * block);
            let out = &mut rest[..m];
            let mut operand = |v: u32, from: usize| match v as usize {
                d if d < n => leaf(d, from),
                t => (
                    Read::Plain(&done[(t - n) * block + from - at..][..end - from]),
                    end,
                ),
            };
            let mut from = at;
            while from < end {
                let (a, a_end) = operand(op.a, from);
                let (b, b_end) = operand(op.b, from);
                let to = a_end.min(b_end);
                add_block(&mut out[from - at..to - at], a, b);
                from = to;
            }
        }
        let r = s.result as usize;
        if r < n {
            let mut from = at;
            while from < end {
                let (a, to) = leaf(r, from);
                load_block(&mut temps[from - at..to - at], a);
                from = to;
            }
        }
        let t = r.saturating_sub(n);
        part.store(at..end, &temps[t * block..][..m]);
        at = end;
    }
}

/// [`evaluate`] compiled for AVX2: the same element operations in the same
/// order (no fused multiply-add — the feature is not enabled, and Rust
/// never contracts), so the same bits, eight f32 lanes at a time.
///
/// # Safety
/// AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn evaluate_avx2<E: ReduceElem, P: TilePart<E>>(
    plan: &ReducePlan,
    share: Range<usize>,
    part: &mut P,
    weights: &[f64],
) {
    evaluate(plan, share, part, weights);
}

/// The in-place collective's share: every device's elements are read from,
/// and the reduced ones written back to, the same per-device buffers.
pub(crate) struct InPlace<'a, E> {
    /// First element of the share; `bufs[d]` starts there.
    pub(crate) start: usize,
    pub(crate) bufs: Vec<&'a mut [E]>,
}

impl<E: ReduceElem> TilePart<E> for InPlace<'_, E> {
    type Loc = ();

    fn locate(&self, _: usize, _: usize) -> ((), usize) {
        ((), self.start + self.bufs[0].len())
    }

    fn read(&self, d: usize, _: (), range: Range<usize>) -> Src<'_, E> {
        Src::Stored(&self.bufs[d][range.start - self.start..range.end - self.start])
    }

    fn store(&mut self, range: Range<usize>, merged: &[E]) {
        let rel = range.start - self.start..range.end - self.start;
        for b in &mut self.bufs {
            b[rel.clone()].copy_from_slice(merged);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::algorithms::{allreduce_flat, allreduce_flat_serial, Arith};
    use crate::hierarchical::{hierarchical_allreduce_flat, hierarchical_allreduce_flat_serial};
    use asgd_gpusim::{profile, Topology};
    use asgd_tensor::parallel::override_threads;
    use asgd_tensor::FlatVec;
    use proptest::prelude::*;

    /// The collective as it ran before the compiled plan: pre-scale every
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
                buf.iter_mut().for_each(|x| *x = x.times(w));
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

        /// Plan evaluation == step-at-a-time oracle: merged bits AND timing,
        /// across algorithms, device counts, lengths around the tile and
        /// block sizes, partition counts (so segment boundaries fall
        /// anywhere), precisions, flat and hierarchical schedules,
        /// pooled/serial, thread counts, and the evaluator's AVX2 and
        /// portable builds. Device 0 keeps weight 1 (a leaf read unscaled),
        /// and signaling NaNs with payloads of their own are planted, so a
        /// leaf scaled that should not be (or not scaled that should) shows
        /// in the bits.
        #[test]
        fn tile_replay_matches_the_step_at_a_time_oracle(
            algo_idx in 0usize..4,
            n in 1usize..10,
            len_pick in 0usize..9,
            partitions in 1usize..11,
            bf16_sel in 0usize..2,
            pooled_sel in 0usize..2,
            threads_pick in 0usize..3,
            seed in 0u64..1000,
            skew in 0u64..50,
            nans in 0usize..2,
            hier_sel in 0usize..3,
        ) {
            let (bf16, pooled) = (bf16_sel == 1, pooled_sel == 1);
            let len = [
                0,
                1,
                n - 1,
                BLOCK + 3,
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
            // Flat, or a cluster of two servers (one when `n` is odd) under
            // either inter-node shape: the arithmetic is the flat walk's
            // either way, only the bill is two-level.
            let inter = [None, Some(InterNode::Ring), Some(InterNode::Tree)][hier_sel];
            let ctx = match inter {
                None => CollectiveContext::new(Topology::pcie(n), &profile::heterogeneous_server(n)),
                Some(_) => {
                    let servers = if n % 2 == 0 { 2 } else { 1 };
                    let cluster = asgd_gpusim::ClusterTopology::ethernet(servers, n / servers);
                    CollectiveContext::cluster(&cluster, &profile::heterogeneous_server(n))
                }
            };
            let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                state
            };
            let mut values: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..len)
                        .map(|_| ((next() >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0)
                        .collect()
                })
                .collect();
            // With `nans`, about every 61st element holds a NaN with a
            // payload of its own in one device: it must come out with that
            // payload (quieted), whatever the order of the adds it meets.
            // (Which of *two* NaNs an add returns follows operand order,
            // which codegen does not pin, so no element holds two.)
            if nans > 0 {
                #[allow(clippy::needless_range_loop)] // one device per element
                for i in 0..len {
                    let r = next();
                    if (r >> 20) % 61 == 0 {
                        let d = (r >> 40) as usize % n;
                        values[d][i] = f32::from_bits(0x7fa0_0000 | (r as u32 & 0x1f_ffff));
                    }
                }
            }
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
            let arrivals: Vec<SimTime> =
                (0..n).map(|d| SimTime((d as u64 * skew) as f64 * 1e-5)).collect();

            let bill = |t: AllReduceTiming, bytes: usize| match inter {
                Some(i) => hierarchical_timing(len, bytes, algo, i, &ctx, t),
                None => t,
            };
            let (mut want16, mut want32) = (
                flat_inputs(&values, asgd_tensor::bf16::narrow),
                flat_inputs(&values, |x| x),
            );
            let want_t = if bf16 {
                bill(step_at_a_time(&mut want16, &weights, algo, &ctx, &arrivals), 2)
            } else {
                bill(step_at_a_time(&mut want32, &weights, algo, &ctx, &arrivals), 4)
            };

            let inputs: Vec<FlatVec> = if bf16 {
                flat_inputs(&values, asgd_tensor::bf16::narrow).into_iter().map(FlatVec::Bf16).collect()
            } else {
                values.iter().cloned().map(FlatVec::F32).collect()
            };
            // The evaluator's AVX2 build, then its portable one.
            for portable in [false, true] {
                let mut flat = inputs.clone();
                asgd_tensor::kernels::force_portable(portable);
                override_threads([1, 2, 8][threads_pick]);
                let got = match (inter, pooled) {
                    (None, true) => allreduce_flat(&mut flat, &weights, algo, &ctx, &arrivals),
                    (None, false) => allreduce_flat_serial(&mut flat, &weights, algo, &ctx, &arrivals),
                    (Some(i), true) => hierarchical_allreduce_flat(&mut flat, &weights, algo, i, &ctx, &arrivals),
                    (Some(i), false) => {
                        hierarchical_allreduce_flat_serial(&mut flat, &weights, algo, i, &ctx, &arrivals)
                    }
                };
                override_threads(0);
                asgd_tensor::kernels::force_portable(false);
                prop_assert_eq!(got, want_t);
                for (d, g) in flat.iter().enumerate() {
                    let bad = match g {
                        FlatVec::Bf16(g) => g.iter().zip(&want16[d]).position(|(a, b)| a != b),
                        FlatVec::F32(g) => g
                            .iter()
                            .zip(&want32[d])
                            .position(|(a, b)| a.to_bits() != b.to_bits()),
                    };
                    prop_assert!(
                        bad.is_none(),
                        "{algo:?} n={n} len={len} portable={portable}: element {bad:?}"
                    );
                }
            }
        }
    }

    /// The device bound, tested at its edge: at `MAX_DEVICES` (each block
    /// 4 elements wide, to hold the tree's 1,023 partial sums on the
    /// stack; the source runs of that many devices on the heap) the
    /// collective is the walk's, bit for bit, at both precisions, on one
    /// thread and on the pool.
    #[test]
    fn the_most_devices_reduce_like_the_walk() {
        let n = MAX_DEVICES;
        let ctx = CollectiveContext::new(Topology::pcie(n), &profile::heterogeneous_server(n));
        let len = TILE_ELEMS + 5;
        let values: Vec<Vec<f32>> = (0..n)
            .map(|d| {
                (0..len)
                    .map(|i| ((d * 31 + i * 7) % 97) as f32 / 13.0 - 3.0)
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = (0..n).map(|d| 1.0 / (d + 1) as f64).collect();
        let arrivals = vec![SimTime::ZERO; n];
        let inputs16: Vec<FlatVec> = flat_inputs(&values, asgd_tensor::bf16::narrow)
            .into_iter()
            .map(FlatVec::Bf16)
            .collect();
        for algo in [Algorithm::Naive, Algorithm::Tree] {
            let mut want = flat_inputs(&values, |x| x);
            let want_t = step_at_a_time(&mut want, &weights, algo, &ctx, &arrivals);
            let mut want16 = flat_inputs(&values, asgd_tensor::bf16::narrow);
            let want16_t = step_at_a_time(&mut want16, &weights, algo, &ctx, &arrivals);
            for pooled in [false, true] {
                let mut got: Vec<FlatVec> = values.iter().cloned().map(FlatVec::F32).collect();
                let mut got16 = inputs16.clone();
                let (t, t16) = if pooled {
                    (
                        allreduce_flat(&mut got, &weights, algo, &ctx, &arrivals),
                        allreduce_flat(&mut got16, &weights, algo, &ctx, &arrivals),
                    )
                } else {
                    (
                        allreduce_flat_serial(&mut got, &weights, algo, &ctx, &arrivals),
                        allreduce_flat_serial(&mut got16, &weights, algo, &ctx, &arrivals),
                    )
                };
                assert_eq!((t, t16), (want_t, want16_t), "{algo:?} timing");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| bits(f32::slice(g).unwrap()) == bits(w)),
                    "{algo:?} f32 pooled={pooled}"
                );
                assert!(
                    got16
                        .iter()
                        .zip(&want16)
                        .all(|(g, w)| u16::slice(g).unwrap() == &w[..]),
                    "{algo:?} bf16 pooled={pooled}"
                );
            }
        }
    }

    /// One device past the bound is refused when the plan is compiled,
    /// before any buffer is touched.
    #[test]
    #[should_panic(expected = "at most 1024")]
    fn more_devices_than_the_bound_are_refused() {
        let n = MAX_DEVICES + 1;
        let ctx = CollectiveContext::new(Topology::pcie(n), &profile::homogeneous_server(n));
        ReducePlan::compile(Algorithm::Tree, &ctx, 8);
    }

    fn flat_inputs<E>(values: &[Vec<f32>], store: impl Fn(f32) -> E) -> Vec<Vec<E>> {
        values
            .iter()
            .map(|v| v.iter().map(|&x| store(x)).collect())
            .collect()
    }

    /// What the symbolic run leaves: the ring's all-gather copies vanish
    /// (every segment keeps exactly the `n − 1` adds of its tree), the
    /// multi-stream ring has one segment per chunk of each partition, and a
    /// one-device collective is its input, with no add at all.
    #[test]
    fn compiled_trees_keep_only_the_adds() {
        let ctx = |n| CollectiveContext::new(Topology::pcie(n), &profile::homogeneous_server(n));
        for n in 1..7 {
            for algo in [
                Algorithm::Naive,
                Algorithm::Tree,
                Algorithm::Ring,
                Algorithm::MultiStreamRing { partitions: 3 },
            ] {
                let plan = ReducePlan::compile(algo, &ctx(n), 10_000);
                for s in &plan.segments {
                    assert_eq!(s.ops.len(), n - 1, "{algo:?} n={n}");
                }
                let want = match algo {
                    Algorithm::Ring if n > 1 => n,
                    Algorithm::MultiStreamRing { partitions } if n > 1 => partitions * n,
                    _ => 1,
                };
                assert_eq!(plan.segments.len(), want, "{algo:?} n={n}");
                assert!(plan.fits(algo, n, 10_000) && !plan.fits(algo, n + 1, 10_000));
            }
        }
        assert!(ReducePlan::compile(Algorithm::Ring, &ctx(3), 0)
            .segments
            .is_empty());
    }
}
