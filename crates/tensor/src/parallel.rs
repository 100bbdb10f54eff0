//! Fork/join row-range parallelism over the persistent worker pool.
//!
//! The kernels in this workspace parallelize over *disjoint row ranges* of an
//! output buffer. Each parallel call enters a region of the process-wide
//! pool ([`crate::pool`]), splits its index space with [`split_ranges`] —
//! deterministic, contiguous, near-equal chunks — into as many ranges as the
//! region's fair share allows, and runs one task per range. Any number of
//! threads may do so at once: the share is `max(1, num_threads() / threads
//! currently inside a parallel region)`, so a caller that has the pool to
//! itself forks [`num_threads`] ways (workers are spawned once and parked
//! between jobs; the per-call cost is two short critical sections and one
//! wake-up per helper), and a caller that arrives while as many threads as
//! the pool has are already mid-kernel runs its whole range inline as one
//! chunk, at no synchronization cost beyond one counter.
//!
//! Determinism: every output row is computed in full by exactly one task,
//! with the same inner loop order regardless of how ranges are partitioned
//! or which worker claims them — results are bit-identical for any thread
//! count, including 1, and for any reading of the occupancy counter.
//!
//! The thread count is resolved once per process: the `ASGD_THREADS`
//! environment variable wins (set but not a positive integer is a hard
//! error), otherwise `std::thread::available_parallelism`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Row counts below this stay serial — the fork/join (listing the job, one
/// futex wake per helper, the join barrier) costs more than the work — and
/// such a call never enters a pool region, so it is not counted as
/// occupying the pool either. One named threshold shared by every
/// row-parallel kernel (dense GEMM, sparse SpMM, softmax). The value was
/// swept when the tiled kernels landed (EXPERIMENTS.md, "Kernel layer"):
/// below ~16 rows the pool wake-ups cost more than the split recovers.
pub const MIN_PAR_ROWS: usize = 16;

static THREADS: OnceLock<usize> = OnceLock::new();

/// In-process override used by determinism tests (see [`override_threads`]);
/// `0` means "no override".
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Parses the text of `ASGD_THREADS`: a positive integer. Anything else is
/// an error naming the variable and the text — a typo must not silently run
/// on every core (two gate rows meant to differ in thread count would then
/// compare default against default and pass vacuously).
pub fn parse_threads(text: &str) -> Result<usize, String> {
    match text.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "ASGD_THREADS={text:?} is not a valid value for ASGD_THREADS (a positive integer)"
        )),
    }
}

/// The number of worker threads kernels will fork.
///
/// Resolved once from `ASGD_THREADS` when it is set, else the machine's
/// available parallelism; at least 1.
///
/// # Panics
/// Panics when `ASGD_THREADS` is set to anything [`parse_threads`] rejects.
pub fn num_threads() -> usize {
    let forced = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *THREADS.get_or_init(|| match std::env::var_os("ASGD_THREADS") {
        Some(v) => parse_threads(&v.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

/// Forces [`num_threads`] to `n` for the current process (`0` clears the
/// override). Test-only: lets one process compare e.g. 1-thread vs 8-thread
/// kernel results, which the env-var path (read once) cannot.
#[doc(hidden)]
pub fn override_threads(n: usize) {
    THREADS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal size.
///
/// Returns an empty vector when `n == 0`. Every element of `0..n` is covered
/// exactly once and ranges are in ascending order.
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    (0..parts).map(|i| split_range(n, parts, i)).collect()
}

/// Range `i` of [`split_ranges`]`(n, parts)` for `1 <= parts <= n`,
/// computed without building the list: the first `n % parts` ranges hold
/// one element more than the rest.
pub fn split_range(n: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    let (base, rem) = (n / parts, n % parts);
    let start = i * base + i.min(rem);
    start..start + base + usize::from(i < rem)
}

/// Partitions `data` (logically `rows` rows of `row_len` elements) into
/// contiguous row chunks and runs `f(first_row, chunk)` on each, on the
/// worker pool when `rows >= min_serial`. The chunks are
/// [`split_ranges`]`(rows, lanes)`, each computed inside its task, so a
/// fork touches no heap.
///
/// # Panics
/// Panics when `data.len() != rows * row_len`.
pub fn par_chunks_mut<T, F>(data: &mut [T], rows: usize, row_len: usize, min_serial: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(data.len(), rows * row_len, "par_chunks_mut shape mismatch");
    if rows == 0 {
        return;
    }
    let threads = num_threads();
    if threads == 1 || rows < min_serial {
        f(0, data);
        return;
    }
    let region = crate::pool::POOL.enter(threads);
    let parts = region.lanes().clamp(1, rows);
    let base = data.as_mut_ptr() as usize;
    region.run(parts, &|i| {
        let r = split_range(rows, parts, i);
        // SAFETY: the `parts` ranges partition `0..rows`, each index runs
        // exactly once, so the tasks carve disjoint row ranges out of
        // `data` (length checked above); `Region::run` joins every helper
        // before it returns, so no chunk outlives the `&mut` borrow. The
        // usize round-trip keeps the closure `Sync`.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(
                (base as *mut T).add(r.start * row_len),
                r.len() * row_len,
            )
        };
        f(r.start, chunk);
    });
}

/// [`par_chunks_mut`] over two buffers cut at the same rows: `a` holds
/// `rows` rows of `a_row` elements, `b` as many of `b_row`, and
/// `f(first_row, a_chunk, b_chunk)` gets the matching chunks of both.
///
/// # Panics
/// Panics when `a.len() != rows * a_row` or `b.len() != rows * b_row`.
pub fn par_chunks_mut2<A, B, F>(
    a: &mut [A],
    a_row: usize,
    b: &mut [B],
    b_row: usize,
    rows: usize,
    min_serial: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(a.len(), rows * a_row, "par_chunks_mut2 shape mismatch");
    assert_eq!(b.len(), rows * b_row, "par_chunks_mut2 shape mismatch");
    if rows == 0 {
        return;
    }
    let threads = num_threads();
    if threads == 1 || rows < min_serial {
        f(0, a, b);
        return;
    }
    let region = crate::pool::POOL.enter(threads);
    let parts = region.lanes().clamp(1, rows);
    let (a_base, b_base) = (a.as_mut_ptr() as usize, b.as_mut_ptr() as usize);
    region.run(parts, &|i| {
        let r = split_range(rows, parts, i);
        // SAFETY: as in `par_chunks_mut`, for each buffer: the `parts`
        // ranges partition `0..rows` and each index runs exactly once, so
        // the tasks carve disjoint row ranges out of `a` and out of `b`
        // (lengths checked above), and `Region::run` joins every helper
        // before it returns, so no chunk outlives the `&mut` borrows.
        let (ca, cb) = unsafe {
            (
                std::slice::from_raw_parts_mut(
                    (a_base as *mut A).add(r.start * a_row),
                    r.len() * a_row,
                ),
                std::slice::from_raw_parts_mut(
                    (b_base as *mut B).add(r.start * b_row),
                    r.len() * b_row,
                ),
            )
        };
        f(r.start, ca, cb);
    });
}

/// `dst.copy_from_slice(src)` over the worker pool — model broadcast /
/// redistribution copies. Element-wise, bit-identical for any thread count.
///
/// # Panics
/// Panics when lengths differ.
pub fn par_copy(src: &[f32], dst: &mut [f32], min_serial: usize) {
    assert_eq!(dst.len(), src.len(), "par_copy length mismatch");
    par_chunks_mut(dst, dst.len(), 1, min_serial, |first, chunk| {
        chunk.copy_from_slice(&src[first..first + chunk.len()]);
    });
}

/// The fused global-model momentum update (Algorithm 2, lines 8–9) as a
/// single pool-parallel sweep: per element, `w' = m + gamma·(w − w_prev)`,
/// then `w_prev ← w`, `w ← w'`. Strictly element-wise over three equally
/// indexed slices, so any partitioning yields the exact serial result.
///
/// # Panics
/// Panics when lengths differ.
pub fn par_momentum_update(
    merged: &[f32],
    global: &mut [f32],
    prev: &mut [f32],
    gamma: f32,
    min_serial: usize,
) {
    assert_eq!(merged.len(), global.len(), "par_momentum_update length");
    assert_eq!(merged.len(), prev.len(), "par_momentum_update length");
    let prev_base = prev.as_mut_ptr() as usize;
    par_chunks_mut(global, global.len(), 1, min_serial, |first, chunk| {
        // SAFETY: `prev` is as long as `global` (asserted above) and is
        // carved at the very ranges `par_chunks_mut` carves `global` at —
        // disjoint across tasks, joined before `par_chunks_mut` returns.
        let prev_part = unsafe {
            std::slice::from_raw_parts_mut((prev_base as *mut f32).add(first), chunk.len())
        };
        let merged_part = &merged[first..first + chunk.len()];
        for ((&m, w), wp) in merged_part.iter().zip(chunk).zip(prev_part) {
            let w_new = m + gamma * (*w - *wp);
            *wp = *w;
            *w = w_new;
        }
    });
}

/// `dst[i] = narrow(src[i])` over the worker pool — f32 → bf16 storage
/// conversion (redistribution, checkpoint export). One round per store.
///
/// # Panics
/// Panics when lengths differ.
pub fn par_narrow(src: &[f32], dst: &mut [u16], min_serial: usize) {
    assert_eq!(dst.len(), src.len(), "par_narrow length mismatch");
    par_chunks_mut(dst, dst.len(), 1, min_serial, |first, chunk| {
        crate::bf16::narrow_slice(&src[first..first + chunk.len()], chunk);
    });
}

/// `dst[i] = widen(src[i])` over the worker pool — exact bf16 → f32
/// conversion (model import, serve-time weight streaming).
///
/// # Panics
/// Panics when lengths differ.
pub fn par_widen(src: &[u16], dst: &mut [f32], min_serial: usize) {
    assert_eq!(dst.len(), src.len(), "par_widen length mismatch");
    par_chunks_mut(dst, dst.len(), 1, min_serial, |first, chunk| {
        crate::bf16::widen_slice(&src[first..first + chunk.len()], chunk);
    });
}

/// The bf16-reading twin of [`par_momentum_update`]: `merged` holds bf16
/// bits, widened exactly per element; the global/momentum state stays f32,
/// so the update arithmetic is identical to the f32 path.
///
/// # Panics
/// Panics when lengths differ.
pub fn par_momentum_update_bf16(
    merged: &[u16],
    global: &mut [f32],
    prev: &mut [f32],
    gamma: f32,
    min_serial: usize,
) {
    assert_eq!(merged.len(), global.len(), "par_momentum_update length");
    assert_eq!(merged.len(), prev.len(), "par_momentum_update length");
    let prev_base = prev.as_mut_ptr() as usize;
    par_chunks_mut(global, global.len(), 1, min_serial, |first, chunk| {
        // SAFETY: as in `par_momentum_update` — same lengths (asserted
        // above), same disjoint ranges, same join.
        let prev_part = unsafe {
            std::slice::from_raw_parts_mut((prev_base as *mut f32).add(first), chunk.len())
        };
        let merged_part = &merged[first..first + chunk.len()];
        for ((&m, w), wp) in merged_part.iter().zip(chunk).zip(prev_part) {
            let w_new = crate::bf16::widen(m) + gamma * (*w - *wp);
            *wp = *w;
            *w = w_new;
        }
    });
}

/// Runs `f(0), …, f(ntasks-1)` on the worker pool, one task per index —
/// coarse-grained fork/join for jobs that are already partitioned by the
/// caller (e.g. the multi-stream ring's per-partition rings). Tasks must
/// touch disjoint state. Calls from inside a parallel region, and calls that
/// find the pool fully occupied, run every task inline in index order.
pub fn par_tasks<F>(ntasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    crate::pool::POOL.enter(num_threads()).run(ntasks, &f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn split_covers_everything_once() {
        for n in [0usize, 1, 5, 16, 17, 1000] {
            for parts in [1usize, 2, 3, 7, 64] {
                let ranges = split_ranges(n, parts);
                let mut covered = vec![false; n];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!covered[i], "double cover at {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} parts={parts}");
                if n > 0 {
                    assert!(ranges.len() <= parts.max(1));
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    assert!(max - min <= 1, "unbalanced split");
                }
            }
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_rows() {
        let rows = 103;
        let row_len = 7;
        let mut data = vec![0.0f32; rows * row_len];
        par_chunks_mut(&mut data, rows, row_len, 1, |first_row, chunk| {
            for (i, row) in chunk.chunks_mut(row_len).enumerate() {
                row.fill((first_row + i) as f32);
            }
        });
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(data[r * row_len + c], r as f32);
            }
        }
    }

    #[test]
    fn serial_fallback_matches_parallel() {
        let rows = 64;
        let row_len = 4;
        let run = |min_serial: usize| {
            let mut data = vec![0.0f32; rows * row_len];
            par_chunks_mut(&mut data, rows, row_len, min_serial, |first, chunk| {
                for (i, row) in chunk.chunks_mut(row_len).enumerate() {
                    let v = ((first + i) * 31 % 17) as f32;
                    row.fill(v);
                }
            });
            data
        };
        assert_eq!(run(usize::MAX), run(1));
    }

    #[test]
    fn parse_threads_takes_positive_integers_only() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert_eq!(parse_threads("512"), Ok(512));
        for bad in ["8x", "0", "", "-1", "four", "1.5"] {
            let e = parse_threads(bad).unwrap_err();
            assert!(
                e.contains("ASGD_THREADS") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
        }
    }

    #[test]
    fn par_copy_matches_serial() {
        let a: Vec<f32> = (0..3000).map(|i| i as f32 * 0.25 - 100.0).collect();
        let mut dst_par = vec![0.0f32; 3000];
        let mut dst_ser = vec![0.0f32; 3000];
        par_copy(&a, &mut dst_par, 1);
        par_copy(&a, &mut dst_ser, usize::MAX);
        assert_eq!(dst_par, a);
        assert_eq!(dst_ser, a);
    }

    #[test]
    fn par_momentum_update_matches_serial_sweep() {
        let n = 4097;
        let merged: Vec<f32> = (0..n).map(|i| (i % 13) as f32 - 6.0).collect();
        let g0: Vec<f32> = (0..n).map(|i| (i % 7) as f32 * 0.5).collect();
        let p0: Vec<f32> = (0..n).map(|i| (i % 11) as f32 * 0.25).collect();
        let run = |min_serial: usize| {
            let mut g = g0.clone();
            let mut p = p0.clone();
            par_momentum_update(&merged, &mut g, &mut p, 0.9, min_serial);
            (g, p)
        };
        let (g_par, p_par) = run(1);
        let (g_ser, p_ser) = run(usize::MAX);
        assert_eq!(g_par, g_ser);
        assert_eq!(p_par, p_ser);
        // Spot-check the formula and the prev hand-off.
        for i in [0usize, 1000, n - 1] {
            assert_eq!(g_par[i], merged[i] + 0.9 * (g0[i] - p0[i]));
            assert_eq!(p_par[i], g0[i]);
        }
    }

    #[test]
    fn par_tasks_runs_each_index_once() {
        let hits: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
        par_tasks(9, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        par_tasks(0, |_| panic!("must not run"));
    }

    #[test]
    fn concurrent_submitters_execute_every_index_exactly_once() {
        // 8 threads submit at once — fewer, as many, and more submitters
        // than the pool has threads — so jobs run inline, forked, and
        // helped by workers that just left another submitter's job.
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for threads in [1usize, 2, 8] {
            override_threads(threads);
            std::thread::scope(|s| {
                for submitter in 0..8u64 {
                    s.spawn(move || {
                        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
                        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(submitter + 1);
                        for job in 0..2000 {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let ntasks = 1 + (state >> 33) as usize % 64;
                            par_tasks(ntasks, |i| {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            });
                            for (i, h) in hits.iter().enumerate() {
                                let want = usize::from(i < ntasks);
                                assert_eq!(
                                    h.swap(0, Ordering::Relaxed),
                                    want,
                                    "threads {threads} submitter {submitter} job {job} index {i} of {ntasks}"
                                );
                            }
                        }
                    });
                }
            });
        }
        override_threads(0);
    }

    #[test]
    fn num_threads_is_positive_and_stable() {
        let a = num_threads();
        let b = num_threads();
        assert!(a >= 1);
        assert_eq!(a, b);
    }

    /// Serializes tests that toggle the global thread-count override so they
    /// can't clobber each other's setting mid-assertion. (Other tests are
    /// unaffected by the override: results are thread-count independent.)
    pub(crate) static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn override_forces_thread_count() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        override_threads(5);
        assert_eq!(num_threads(), 5);
        override_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn gemm_bit_identical_across_thread_counts() {
        use crate::{ops, Matrix};
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let a = Matrix::from_fn(120, 64, |r, c| ((r * 31 + c * 17) % 13) as f32 / 7.0 - 0.9);
        let b = Matrix::from_fn(64, 90, |r, c| ((r * 23 + c * 29) % 11) as f32 / 5.0 - 1.1);
        let run = |threads: usize| {
            override_threads(threads);
            let mut nn = Matrix::zeros(120, 90);
            ops::gemm(1.0, &a, &b, 0.0, &mut nn);
            let mut tn = Matrix::zeros(64, 64);
            ops::gemm_tn(1.0, &a, &a, 0.0, &mut tn);
            (nn, tn)
        };
        let single = run(1);
        let eight = run(8);
        override_threads(0);
        // Bit-identical, not approximately equal: every output row is
        // computed whole by one task with a fixed inner-loop order.
        assert_eq!(single, eight);
    }
}
