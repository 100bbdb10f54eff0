//! Process-wide persistent worker pool for fork/join kernels.
//!
//! The kernels in this workspace parallelize over disjoint, deterministic
//! index ranges (see [`crate::parallel::split_ranges`]). A set of long-lived
//! workers parks on a condvar; a fork is "list a job record, wake the
//! helpers it can use", a join is "wait until the last helper let go".
//!
//! Design:
//!
//! - **Many jobs at a time.** Any number of threads may be inside
//!   [`Region::run`] at once (one replica thread per device during a
//!   training phase, the scheduler's eval, a serving loop). A submitter lists its job and starts on its own
//!   tasks immediately; it never waits for another submitter's job. Parked
//!   workers take tasks from *any* listed job that still has unclaimed ones,
//!   and look for another before parking again. The state mutex is held
//!   only to list, attach to, detach from and unlist a job — never while a
//!   task runs.
//! - **Fair share instead of a queue.** The pool counts the threads that are
//!   inside a parallel region ([`Pool::enter`] … drop of the [`Region`]).
//!   A region is offered [`lanes`]`(threads, busy)` = `max(1, threads /
//!   busy)` ways of parallelism: alone on the pool that is the full thread
//!   count, with every replica mid-step it is 1 and the kernel runs inline
//!   on its caller as one chunk — no fork, no join, no futex. The count is
//!   a relaxed statistic: a stale read changes how a kernel is partitioned,
//!   which by the contract below cannot change what it computes.
//! - **Claim-based scheduling, deterministic results.** A job is `ntasks`
//!   closures-by-index; helpers claim indices from the job's own atomic
//!   cursor. *Which* thread runs a task is nondeterministic, but tasks are
//!   disjoint and each is executed exactly once, so outputs are
//!   bit-identical for any worker count — the partitioning itself stays the
//!   caller's business.
//! - **Borrow-safe by barrier.** Task closures may borrow the caller's stack
//!   and the job record lives there too (the lifetimes are erased
//!   internally). A worker reaches a record only through `State::jobs`, and
//!   only under the state mutex; [`Region::run`] unlists its record under
//!   that mutex, after waiting until no helper is attached, before it
//!   returns or unwinds.
//! - **Panic propagation.** A panicking task aborts the remaining tasks of
//!   *its* job; the first payload is re-raised on that job's submitter after
//!   the barrier. Other jobs never see it.
//! - **Re-entrancy.** A parallel call made from inside a region (from a
//!   task, or from the submitter's inline chunk) gets one lane and runs
//!   inline: the outer region already owns this thread's share.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The ways of parallelism a region gets when `busy` threads (itself
/// included) are inside a parallel region of a `threads`-thread pool.
pub(crate) fn lanes(threads: usize, busy: usize) -> usize {
    (threads / busy.max(1)).max(1)
}

/// One fork/join job. Lives on its submitter's stack for the duration of
/// [`Region::run`].
struct Job<'a> {
    task: &'a (dyn Fn(usize) + Sync),
    ntasks: usize,
    /// Next unclaimed task index. Only ever grows, so once a helper has seen
    /// it at or past `ntasks` the job has no work for anyone, for good.
    next: AtomicUsize,
    /// First panic payload raised by one of this job's tasks.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Signals the submitter: the last attached worker let go.
    released: Condvar,
}

impl Job<'_> {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.ntasks
    }

    /// Claims and executes task indices until the job is exhausted. On a
    /// panic, keeps the first payload and aborts what has not started;
    /// running tasks finish on their own.
    fn help(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.ntasks {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                self.panic
                    .lock()
                    .expect("job panic slot poisoned")
                    .get_or_insert(payload);
                self.next.fetch_max(self.ntasks, Ordering::Relaxed);
            }
        }
    }
}

/// A listed job: the lifetime-erased address of a submitter's [`Job`] plus
/// the number of workers currently inside its [`Job::help`].
///
/// **Listed ⇒ alive.** Workers reach a record only through `State::jobs`,
/// only under the state mutex, and attach (`helpers += 1`) only while it
/// `has_unclaimed()`. The submitter's own `help()` returns only once the
/// cursor is exhausted — which is final — so from then on nobody attaches;
/// [`Region::run`]'s barrier then waits, under the same mutex, until
/// `helpers == 0` and unlists the record before its frame (which owns the
/// `Job` and outlives the borrowed task) can return or unwind — no task runs
/// outside `catch_unwind`. An attached worker's last touch of the record is
/// the `released` notify it sends with the mutex still held.
struct Listed {
    job: *const Job<'static>,
    helpers: usize,
}

// SAFETY: the pointer is only dereferenced under the rule above, and `Job`
// is `Sync`: its task is `Sync`, the rest are atomics and std sync
// primitives — so the address may move to whichever thread locks the state.
unsafe impl Send for Listed {}

struct State {
    /// Jobs a worker may attach to. A record is pushed and removed by its
    /// submitter only.
    jobs: Vec<Listed>,
    /// Workers spawned so far (never torn down).
    workers: usize,
    /// Workers parked on `work`.
    parked: usize,
    /// Notifies sent on `work`, for the wake-up test: what the pool decides.
    /// (How many parked workers then return is the `Condvar`'s business —
    /// std allows spurious returns, and a worker preempted between
    /// releasing the mutex and sleeping returns at once after any notify.)
    #[cfg(test)]
    notifies: usize,
}

/// A worker pool. The process uses one ([`POOL`]); tests build their own
/// to count wake-ups without other tests' jobs in the way.
pub(crate) struct Pool {
    state: Mutex<State>,
    /// Signals parked workers: a job with unclaimed tasks was listed.
    work: Condvar,
    /// Threads inside a parallel region — see the module docs.
    busy: AtomicUsize,
}

/// The process-wide pool.
pub(crate) static POOL: Pool = Pool::new();

thread_local! {
    /// Set while this thread is inside a parallel region (submitter) or is a
    /// pool worker; parallel calls made then get one lane.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

impl Pool {
    pub(crate) const fn new() -> Self {
        Self {
            state: Mutex::new(State {
                jobs: Vec::new(),
                workers: 0,
                parked: 0,
                #[cfg(test)]
                notifies: 0,
            }),
            work: Condvar::new(),
            busy: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // No task runs under this mutex, so it is only ever poisoned by a
        // bug in this module.
        self.state.lock().expect("pool state poisoned")
    }

    /// Enters a parallel region sized for a `threads`-thread pool: counts
    /// the calling thread as busy until the returned [`Region`] drops and
    /// fixes the region's fair share of lanes.
    pub(crate) fn enter(&'static self, threads: usize) -> Region {
        let nested = IN_REGION.with(|f| f.replace(true));
        let lanes = if nested {
            1
        } else {
            lanes(threads, self.busy.fetch_add(1, Ordering::Relaxed) + 1)
        };
        Region {
            pool: self,
            threads,
            lanes,
            nested,
        }
    }

    /// The worker loop: attach to a listed job that has unclaimed tasks,
    /// help it, detach; park when there is none. Workers live for the
    /// process lifetime.
    fn worker_loop(&'static self) {
        IN_REGION.with(|f| f.set(true));
        let mut st = self.lock();
        loop {
            // SAFETY: listed ⇒ alive (see `Listed`), and the state mutex is
            // held.
            let open = st
                .jobs
                .iter_mut()
                .find(|l| unsafe { &*l.job }.has_unclaimed());
            let Some(listed) = open else {
                st.parked += 1;
                st = self.work.wait(st).expect("pool state poisoned");
                st.parked -= 1;
                continue;
            };
            listed.helpers += 1;
            let job = listed.job;
            drop(st);
            // SAFETY: `helpers` was raised under the mutex while the record
            // was listed; its submitter's barrier does not unlist it, let
            // alone return, while `helpers > 0` (see `Listed`).
            unsafe { &*job }.help();
            st = self.lock();
            let listed = st
                .jobs
                .iter_mut()
                .find(|l| std::ptr::eq(l.job, job))
                .expect("a job stays listed while a worker is attached");
            listed.helpers -= 1;
            if listed.helpers == 0 {
                // SAFETY: still listed and the mutex is still held, so the
                // submitter cannot have passed its barrier; this is the last
                // time this worker touches the record.
                unsafe { &*job }.released.notify_one();
            }
        }
    }

    #[cfg(test)]
    fn notifies(&self) -> usize {
        self.lock().notifies
    }

    #[cfg(test)]
    fn parked(&self) -> usize {
        self.lock().parked
    }
}

/// One thread's stay inside a parallel region of a [`Pool`]: entered before
/// the work is partitioned (so the partition can follow [`Region::lanes`]),
/// left on drop.
pub(crate) struct Region {
    pool: &'static Pool,
    threads: usize,
    lanes: usize,
    nested: bool,
}

impl Region {
    /// The region's fair share: how many ways to split the work.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Executes `task(0..ntasks)` on the calling thread plus up to
    /// `lanes - 1` woken workers (any idle worker may join in), returning
    /// after every index has been executed exactly once. With one lane or
    /// one task everything runs inline on the caller.
    ///
    /// Panics from any task are re-raised here (first payload wins). The
    /// pool lazily grows to `threads - 1` workers.
    pub(crate) fn run(&self, ntasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if self.lanes == 1 || ntasks <= 1 {
            for i in 0..ntasks {
                task(i);
            }
            return;
        }
        let pool = self.pool;
        let job = Job {
            task,
            ntasks,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
            released: Condvar::new(),
        };
        // Erases the borrow of the caller's stack (`task`, and `job` itself)
        // so the address can sit in `State::jobs`; see `Listed` for what
        // keeps every dereference of it inside `job`'s lifetime.
        let erased = std::ptr::from_ref(&job).cast::<Job<'static>>();

        let wake = {
            let mut st = pool.lock();
            while st.workers + 1 < self.threads {
                st.workers += 1;
                std::thread::Builder::new()
                    .name(format!("asgd-pool-{}", st.workers))
                    .spawn(move || pool.worker_loop())
                    .expect("failed to spawn pool worker");
            }
            st.jobs.push(Listed {
                job: erased,
                helpers: 0,
            });
            let wake = (ntasks.min(self.lanes) - 1).min(st.parked);
            #[cfg(test)]
            {
                st.notifies += wake;
            }
            wake
        };
        for _ in 0..wake {
            pool.work.notify_one();
        }

        job.help();

        // The barrier.
        let mut st = pool.lock();
        loop {
            let at = st
                .jobs
                .iter()
                .position(|l| std::ptr::eq(l.job, erased))
                .expect("only the submitter unlists its job");
            if st.jobs[at].helpers == 0 {
                st.jobs.swap_remove(at);
                break;
            }
            st = job.released.wait(st).expect("pool state poisoned");
        }
        drop(st);
        if let Some(payload) = job.panic.into_inner().expect("job panic slot poisoned") {
            resume_unwind(payload);
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        if !self.nested {
            self.pool.busy.fetch_sub(1, Ordering::Relaxed);
            IN_REGION.with(|f| f.set(false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Generous: only a broken pool ever waits this long.
    const TIMEOUT: Duration = Duration::from_secs(20);

    /// A pool of its own, so other tests' jobs cannot take its tasks, wake
    /// its workers or occupy its lanes.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    /// A one-way latch with a timed wait.
    #[derive(Default)]
    struct Flag(Mutex<bool>, Condvar);

    impl Flag {
        fn set(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }

        fn wait(&self) -> bool {
            let guard = self.0.lock().unwrap();
            let (guard, _) = self
                .1
                .wait_timeout_while(guard, TIMEOUT, |set| !*set)
                .unwrap();
            *guard
        }
    }

    fn wait_until_parked(pool: &Pool, workers: usize) {
        let deadline = Instant::now() + TIMEOUT;
        while pool.parked() != workers {
            assert!(Instant::now() < deadline, "workers never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn lanes_is_the_fair_share() {
        // (threads, busy) -> lanes
        for (threads, busy, want) in [
            (1, 1, 1),
            (2, 1, 2),
            (2, 2, 1),
            (2, 5, 1),
            (8, 1, 8),
            (8, 2, 4),
            (8, 3, 2),
            (8, 4, 2),
            (8, 5, 1),
            (16, 4, 4),
            (16, 256, 1),
            // A racing decrement can make the count read 0; never divide by it.
            (4, 0, 4),
        ] {
            assert_eq!(lanes(threads, busy), want, "lanes({threads}, {busy})");
        }
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        POOL.enter(4).run(100, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn borrows_caller_stack_mutably_through_disjoint_indices() {
        let mut data = vec![0usize; 64];
        let ptr = data.as_mut_ptr() as usize;
        // SAFETY: each index is executed exactly once, so every task writes
        // its own element of `data`, which outlives the joined job.
        POOL.enter(4).run(64, &|i| unsafe {
            *(ptr as *mut usize).add(i) = i * 3;
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn nested_runs_execute_inline() {
        let total = AtomicUsize::new(0);
        POOL.enter(4).run(4, &|_| {
            let inner = POOL.enter(4);
            assert_eq!(inner.lanes(), 1);
            inner.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn a_region_alone_gets_every_lane_and_a_crowded_one_runs_inline() {
        let pool = private_pool();
        let alone = pool.enter(4);
        assert_eq!(alone.lanes(), 4);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Two threads inside: half the pool each.
                let second = pool.enter(4);
                assert_eq!(second.lanes(), 2);
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let crowded = pool.enter(2);
                        assert_eq!(crowded.lanes(), 1);
                        let me = std::thread::current().id();
                        crowded.run(8, &|_| assert_eq!(std::thread::current().id(), me));
                    });
                });
            });
        });
        drop(alone);
        assert_eq!(pool.enter(4).lanes(), 4, "leaving a region frees its share");
    }

    #[test]
    fn two_submitters_jobs_overlap_in_time() {
        // Job A cannot finish until job B, submitted while A is in flight,
        // has run: a pool that takes one job at a time fails here.
        let pool = private_pool();
        let a_in_flight = Flag::default();
        let b_ran = Flag::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.enter(4).run(2, &|i| {
                    if i == 0 {
                        a_in_flight.set();
                        assert!(b_ran.wait(), "job B never ran while job A was in flight");
                    }
                });
            });
            s.spawn(|| {
                assert!(a_in_flight.wait());
                let region = pool.enter(4);
                assert_eq!(region.lanes(), 2, "job B is really forked");
                region.run(2, &|_| b_ran.set());
            });
        });
    }

    #[test]
    fn a_panic_stays_in_its_own_job() {
        let pool = private_pool();
        let b_in_flight = Flag::default();
        let a_panicked = Flag::default();
        let b_hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.enter(4).run(4, &|i| {
                    if i == 0 {
                        b_in_flight.set();
                        assert!(a_panicked.wait(), "job A never finished");
                    }
                    b_hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            s.spawn(|| {
                assert!(b_in_flight.wait());
                let result = catch_unwind(AssertUnwindSafe(|| {
                    pool.enter(4).run(16, &|i| {
                        if i == 7 {
                            panic!("boom from task 7");
                        }
                    });
                }));
                let payload = result.expect_err("panic must reach job A's submitter");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom from task 7"));
                a_panicked.set();
            });
        });
        assert_eq!(b_hits.load(Ordering::Relaxed), 4, "job B lost a task");
        // The pool stays usable, and the unwound region gave its lane back.
        let ok = AtomicUsize::new(0);
        let region = pool.enter(4);
        assert_eq!(region.lanes(), 4);
        region.run(16, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 16);
    }

    /// The pool decides to wake exactly one of 7 parked workers for a job
    /// with one task to give away. What is counted is the notifies it
    /// sends, not the workers that return from parking: a `Condvar` may
    /// return spuriously, and a worker preempted between releasing the
    /// mutex and sleeping returns at once after any notify.
    #[test]
    fn a_two_task_job_wakes_exactly_one_worker() {
        let pool = private_pool();
        pool.enter(8).run(8, &|_| {});
        wait_until_parked(pool, 7);
        let before = pool.notifies();
        let second_task_ran = Flag::default();
        pool.enter(8).run(2, &|i| {
            if i == 1 {
                second_task_ran.set();
            }
        });
        assert!(second_task_ran.wait());
        wait_until_parked(pool, 7);
        assert_eq!(
            pool.notifies() - before,
            1,
            "notifies sent to 7 parked workers for a job with one task to give away"
        );
    }

    #[test]
    fn grows_to_larger_thread_requests() {
        let pool = private_pool();
        let hits = AtomicUsize::new(0);
        pool.enter(2).run(32, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(pool.lock().workers, 1);
        pool.enter(6).run(32, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(pool.lock().workers, 5);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }
}
