//! A std-only **persistent worker pool** for the learner's data-parallel
//! sweeps.
//!
//! The first parallel layer (PR 3) used `std::thread::scope`, paying a
//! thread spawn + join per fan-out — per *message* on the exact path.
//! `BENCH_learner.json` showed that cost eating the win (0.81–0.88× on
//! `exact_blowup`). This module replaces it with warm workers created
//! once per process and parked on a condvar between dispatches:
//!
//! * [`WorkerPool::global`] — the shared pool every learn/serve session
//!   uses, so `bbmg serve` shards amortize the same workers across
//!   sources and periods. Growth is lazy and capped at
//!   `available_parallelism() − 1` (the caller is the remaining thread);
//!   a 1-core host therefore keeps every sweep inline and sequential
//!   instead of oversubscribing.
//! * [`WorkerPool::scatter`] — the fork/join primitive: a vector of
//!   `'static` jobs, job 0 run inline on the caller, the rest pushed to
//!   the shared queue, results returned **in job order**. The caller
//!   helps drain the queue while waiting, so a pool with zero workers
//!   degrades to an ordered sequential loop, never a deadlock. Worker
//!   panics are caught, forwarded, and re-raised on the caller — lowest
//!   job index first, matching the sequential order of occurrence.
//! * [`chunk_ranges`] — the deterministic partition of a range of items
//!   into at most `threads` contiguous chunks (sizes a pure function of
//!   `(items, threads)`, never of timing). Because callers reduce chunk
//!   results in chunk order and workers only *generate*, concatenating
//!   the ordered results equals a sequential left-to-right run at every
//!   thread count — the determinism contract `tests/determinism.rs`
//!   enforces.
//! * [`auto_threads`] — the `--threads 0` clamp: auto-detection sized by
//!   the workload's packed-word volume, so small traces never pay for
//!   cores they cannot feed.
//!
//! Jobs must be `'static` (the workers outlive any one call), so call
//! sites wrap shared read-only inputs in `Arc` and take them back with
//! `Arc::try_unwrap` after the join — still allocation-free on the hot
//! path, and safe under the workspace-wide `#![forbid(unsafe_code)]`.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};

/// A queued unit of work: an erased closure that runs on any worker (or
/// on the caller, when it helps drain the queue).
type QueuedJob = Box<dyn FnOnce() + Send + 'static>;

/// The shared state workers park on.
struct Queue {
    jobs: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
}

/// Minimum packed-word volume per auto-detected thread: `--threads 0`
/// admits one worker per this many words of kernel work, so a small
/// trace on a big machine stays sequential (see [`auto_threads`]).
pub const AUTO_THREAD_WORDS: usize = 64 * 1024;

/// A persistent pool of parked worker threads (see the module docs).
///
/// Workers are plain `std::thread`s looping on a `Mutex<VecDeque>` +
/// `Condvar` queue; they are spawned once (lazily) and live for the
/// process, parked when idle. No dependencies, no unsafe.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: AtomicUsize,
    /// Serializes spawning so concurrent `ensure_workers` calls cannot
    /// overshoot the requested total.
    grow: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// A pool with no workers yet; [`scatter`](Self::scatter) runs
    /// inline until [`ensure_workers`](Self::ensure_workers) or
    /// [`provision`](Self::provision) grows it.
    #[must_use]
    pub fn new() -> Self {
        WorkerPool {
            queue: Arc::new(Queue {
                jobs: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
            }),
            workers: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }

    /// The process-wide shared pool: one set of warm workers amortized
    /// across every learn run and serve shard in the process.
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    /// Number of worker threads currently alive (the caller's own thread
    /// is not counted).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::Acquire)
    }

    /// Grows the pool to at least `total` workers, regardless of the
    /// hardware's core count — the knob tests and benches use to force
    /// real cross-thread execution on small hosts. Spawn failures leave
    /// the pool smaller; `scatter` stays correct at any size.
    pub fn ensure_workers(&self, total: usize) {
        let _guard = self.grow.lock().unwrap_or_else(PoisonError::into_inner);
        while self.workers() < total {
            let queue = Arc::clone(&self.queue);
            let spawned = std::thread::Builder::new()
                .name(format!("bbmg-pool-{}", self.workers()))
                .spawn(move || worker_loop(&queue));
            if spawned.is_err() {
                break;
            }
            self.workers.fetch_add(1, Ordering::Release);
        }
    }

    /// Prepares the pool for a fan-out of `requested` threads and
    /// returns the **effective** thread count: the pool grows lazily up
    /// to `available_parallelism() − 1` workers, and the returned count
    /// is clamped to `workers + 1` (caller included) so a host without
    /// spare cores runs sequentially instead of oversubscribing.
    /// Chunk partitions depend only on the result through
    /// [`chunk_ranges`], and ordered reduces make results independent of
    /// the partition — so the clamp never changes learner output.
    pub fn provision(&self, requested: usize) -> usize {
        if requested > 1 {
            let cap = std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .saturating_sub(1);
            let want = (requested - 1).min(cap);
            if want > self.workers() {
                self.ensure_workers(want);
            }
        }
        requested.clamp(1, self.workers() + 1)
    }

    /// Runs `jobs` across the pool and returns their results **in job
    /// order**. Job 0 runs inline on the caller; the rest go to the
    /// shared queue, where parked workers — and the caller itself, while
    /// it waits — drain them. With zero workers this is exactly an
    /// in-order sequential loop.
    ///
    /// # Panics
    ///
    /// Re-raises the first (lowest-index) job panic on the caller once
    /// every job has finished, so no queued job is left dangling.
    pub fn scatter<R, F>(&self, jobs: Vec<F>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let total = jobs.len();
        if total == 0 {
            return Vec::new();
        }
        let mut jobs = jobs.into_iter();
        let first = jobs.next().expect("scatter jobs are nonempty here");
        if total == 1 || self.workers() == 0 {
            return std::iter::once(first())
                .chain(jobs.map(|job| job()))
                .collect();
        }

        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
        {
            let mut queue = self
                .queue
                .jobs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (offset, job) in jobs.enumerate() {
                let tx = tx.clone();
                queue.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(job));
                    // The receiver outlives every queued job unless the
                    // caller is already unwinding; either way the job ran.
                    let _ = tx.send((offset + 1, result));
                }));
            }
        }
        self.queue.available.notify_all();
        drop(tx);

        let mut slots: Vec<Option<std::thread::Result<R>>> = (0..total).map(|_| None).collect();
        slots[0] = Some(catch_unwind(AssertUnwindSafe(first)));
        let mut received = 1;
        while received < total {
            // Help drain the queue instead of blocking: keeps progress
            // when jobs outnumber workers (or the pool shrank to zero).
            let helped = {
                let mut queue = self
                    .queue
                    .jobs
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                queue.pop_front()
            };
            if let Some(job) = helped {
                job();
                continue;
            }
            let (index, result) = rx
                .recv()
                .expect("every queued job reports exactly once before its sender drops");
            slots[index] = Some(result);
            received += 1;
        }

        // Drain the helped jobs' results (they reported through the same
        // channel) and unwrap in index order, re-raising the first panic.
        for (index, result) in rx.try_iter() {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("all jobs accounted for"))
            .map(|result| match result {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

/// The worker body: park on the condvar until a job arrives, run it,
/// repeat. Workers live for the process; panics never reach here (jobs
/// are wrapped in `catch_unwind` at dispatch).
fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = queue
                    .available
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job();
    }
}

/// Warms the global pool for a learn/serve session configured with
/// `threads`: spawns (hardware-capped) workers once, ahead of the first
/// fan-out, so no period pays the spawn latency.
pub fn warm_up(threads: usize) {
    if threads > 1 {
        WorkerPool::global().provision(threads);
    }
}

/// Splits `items` into at most `threads` contiguous chunks, sizes
/// differing by at most one item (earlier chunks get the extra). The
/// partition is a pure function of `(items, threads)` — never of timing —
/// so it is safe to key parallel work distribution on it.
#[must_use]
pub fn chunk_ranges(threads: usize, items: Range<usize>) -> Vec<Range<usize>> {
    let len = items.len();
    let threads = threads.max(1).min(len.max(1));
    let base = len / threads;
    let extra = len % threads;
    (0..threads)
        .scan(items.start, |start, i| {
            let size = base + usize::from(i < extra);
            let range = *start..*start + size;
            *start += size;
            Some(range)
        })
        .collect()
}

/// Runs `job(shared, range)` for each of the [`chunk_ranges`] of
/// `items` on the global pool and returns the results in chunk order.
/// Jobs on a persistent pool are `'static`, so each one holds a clone of
/// the `Arc`; once this returns, every clone is dropped again.
pub(crate) fn scatter_chunks<T, R>(
    threads: usize,
    items: Range<usize>,
    shared: &Arc<T>,
    job: fn(&T, Range<usize>) -> R,
) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
{
    let jobs: Vec<_> = chunk_ranges(threads, items)
        .into_iter()
        .map(|range| {
            let shared = Arc::clone(shared);
            move || job(&shared, range)
        })
        .collect();
    WorkerPool::global().scatter(jobs)
}

/// Resolves `--threads 0` auto-detection: one thread per
/// [`AUTO_THREAD_WORDS`] packed words of estimated workload, clamped to
/// the detected core count and never below 1. A 100-word trace on a
/// 64-core box gets 1 thread; a million-word workload gets every core.
#[must_use]
pub fn auto_threads(cores: usize, workload_words: usize) -> usize {
    let by_work = (workload_words / AUTO_THREAD_WORDS).max(1);
    cores.max(1).min(by_work)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_in_order_and_balanced() {
        for threads in 1..6 {
            for start in [0, 7] {
                for len in 0..20 {
                    let items = start..start + len;
                    let ranges = chunk_ranges(threads, items.clone());
                    let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
                    assert_eq!(flat, items.collect::<Vec<_>>(), "{threads}t/{start}+{len}n");
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "unbalanced: {sizes:?}");
                    // An offset range is the same partition, shifted.
                    let shifted: Vec<Range<usize>> = chunk_ranges(threads, 0..len)
                        .into_iter()
                        .map(|r| r.start + start..r.end + start)
                        .collect();
                    assert_eq!(ranges, shifted, "{threads}t/{start}+{len}n");
                }
            }
        }
        assert_eq!(chunk_ranges(3, 0..10).len(), 3);
        assert_eq!(chunk_ranges(8, 0..3).len(), 3);
        assert_eq!(chunk_ranges(4, 0..0).len(), 1);
        assert_eq!(chunk_ranges(4, 5..5), vec![5..5]);
    }

    #[test]
    fn scatter_with_no_workers_runs_inline_in_order() {
        let pool = WorkerPool::new();
        assert_eq!(pool.workers(), 0);
        let jobs: Vec<_> = (0..5).map(|i| move || i * 10).collect();
        assert_eq!(pool.scatter(jobs), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn scatter_returns_job_order_with_real_workers() {
        let pool = WorkerPool::new();
        pool.ensure_workers(3);
        assert_eq!(pool.workers(), 3);
        for _ in 0..50 {
            let jobs: Vec<_> = (0..16).map(|i| move || i).collect();
            assert_eq!(pool.scatter(jobs), (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scatter_reuses_the_same_warm_workers_across_calls() {
        let pool = WorkerPool::new();
        pool.ensure_workers(2);
        let before = pool.workers();
        for _ in 0..20 {
            let jobs: Vec<_> = (0..8).map(|i| move || i + 1).collect();
            let sum: usize = pool.scatter(jobs).into_iter().sum();
            assert_eq!(sum, 36);
        }
        assert_eq!(pool.workers(), before, "dispatch must not spawn");
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate_to_the_caller() {
        let pool = WorkerPool::new();
        pool.ensure_workers(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 7 {
                        panic!("worker boom");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let _ = pool.scatter(jobs);
    }

    #[test]
    fn pool_survives_a_panicked_dispatch() {
        let pool = Arc::new(WorkerPool::new());
        pool.ensure_workers(2);
        let inner = Arc::clone(&pool);
        let panicked = std::thread::spawn(move || {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
                .map(|i| {
                    Box::new(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                        i
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            inner.scatter(jobs)
        })
        .join();
        assert!(panicked.is_err());
        // The same workers still serve jobs afterwards.
        let jobs: Vec<_> = (0..8).map(|i| move || i * 2).collect();
        assert_eq!(
            pool.scatter(jobs),
            (0..8).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn provision_clamps_to_workers_plus_caller() {
        let pool = WorkerPool::new();
        // With forced workers the clamp honors them regardless of cores.
        pool.ensure_workers(3);
        assert!(pool.provision(8) <= pool.workers() + 1);
        assert_eq!(pool.provision(1), 1);
        assert_eq!(pool.provision(0), 1);
    }

    #[test]
    fn auto_threads_scales_with_workload_words() {
        // Tiny workloads never over-subscribe, whatever the core count.
        assert_eq!(auto_threads(64, 0), 1);
        assert_eq!(auto_threads(64, AUTO_THREAD_WORDS - 1), 1);
        // One more thread per AUTO_THREAD_WORDS of work…
        assert_eq!(auto_threads(64, AUTO_THREAD_WORDS), 1);
        assert_eq!(auto_threads(64, 2 * AUTO_THREAD_WORDS), 2);
        assert_eq!(auto_threads(64, 5 * AUTO_THREAD_WORDS), 5);
        // …clamped by the hardware.
        assert_eq!(auto_threads(4, 100 * AUTO_THREAD_WORDS), 4);
        // Degenerate core detection still yields a usable count.
        assert_eq!(auto_threads(0, 100 * AUTO_THREAD_WORDS), 1);
    }
}
