//! A binary fork-join work-stealing scheduler and parallel primitives.
//!
//! This crate is the parallelism substrate of the CPAM/PaC-tree
//! reproduction, playing the role that [ParlayLib] plays for the original
//! C++ implementation: it provides nested fork-join parallelism
//! ([`join`]) on a global work-stealing thread pool, plus a toolkit of
//! parallel slice primitives (map, reduce, scan, filter, sort, merge) used
//! by the tree algorithms and by the array-based sequence baseline
//! (the stand-in for Intel ParallelSTL in the paper's Figure 2).
//!
//! # Quick start
//!
//! ```
//! let xs: Vec<u64> = (0..100_000).collect();
//! let total = parlay::run(|| parlay::reduce(&xs, 0u64, |x| *x, |a, b| a + b));
//! assert_eq!(total, 100_000 * 99_999 / 2);
//! ```
//!
//! [`join`] may be called from anywhere: on a pool worker it forks in
//! place; on any other thread it routes the pair through the pool first.
//! [`run`] moves a closure onto the pool explicitly, which avoids that
//! per-call routing overhead in hot loops.
//!
//! # What a fork costs off the pool
//!
//! On a worker a `join` is a deque push and pop, a few atomic operations.
//! Off the pool, a [`run`] (and so a `join`) is two thread hand-offs: the
//! closure is injected, a parked worker is woken to take it, and the
//! caller blocks on a latch until that worker wakes it back — tens of
//! microseconds on a busy box, whatever the closure does. On a one-worker
//! pool both run inline, since the worker could do nothing the caller
//! cannot. The scheduler cannot know what a closure will cost, so a caller
//! off the pool that knows its work decides: below [`FORK_FLOOR`] it runs
//! the work on its own thread instead of calling `run`.
//!
//! [ParlayLib]: https://github.com/cmuparlay/parlaylib

mod deque;
mod job;
mod registry;

pub mod ops;
pub mod slice;
pub mod sort;

pub use ops::{blocked, filter, for_each_index, map, reduce, scan_inplace, sum, tabulate, SendPtr};
pub use registry::{
    num_threads, register_stats_with, scheduler_stats, set_num_threads, SchedulerStats,
};
pub use sort::{merge_by, par_sort, par_sort_by};

use job::{ExternalJob, StackJob};
use registry::WorkerThread;

/// Granularity below which recursive primitives run sequentially.
pub const DEFAULT_GRAIN: usize = 2048;

/// Least work worth a fork, in entries of tree work (what a batch update
/// can touch: one leaf per key, plus the key). Below it the wake-up of a
/// parked worker costs more than the half of the work it would take. Set
/// from the measured T = 1 / T = 2 crossover of a batch update on the
/// 2-core reference box (DESIGN.md §12).
///
/// Two kinds of caller check it: a fork site inside the pool (`cpam`'s
/// batch update passes it to [`cutoff`] as its floor) and a caller off
/// the pool that would otherwise enter it with [`run`] (a store commit's
/// shard fan-out runs on the committing thread below it).
pub const FORK_FLOOR: usize = 1 << 15;

/// The fork cutoff of a divide-and-conquer operation whose root problem
/// is `n` units of work: a subproblem forks only while it is larger than
/// this. Never below `floor`, under which a fork costs more than the half
/// of the work it would hand off; above it, `n / (8 · threads)`, about
/// `8T` leaf tasks per operation — enough slack for stealing to balance
/// load without flooding the deques with tiny jobs. On a one-worker pool
/// it is `usize::MAX`: nothing ever forks.
///
/// Compute it once, at the entry point, and pass it down the recursion
/// to [`join_if`], so the cutoff is a property of the whole operation
/// rather than of each subtree.
///
/// ```
/// let cut = parlay::cutoff(1_000, 4096);
/// assert!(cut >= 4096);
/// ```
pub fn cutoff(n: usize, floor: usize) -> usize {
    let threads = num_threads();
    if threads <= 1 {
        return usize::MAX;
    }
    floor.max(n / (8 * threads))
}

/// [`join`] if `fork`, else `(a(), b())` on this thread: PAM's
/// `par_do_if`, the one fork-or-inline branch every recursion shares.
///
/// ```
/// let n = 100;
/// let (a, b) = parlay::join_if(n > parlay::cutoff(n, 4096), || 1, || 2);
/// assert_eq!((a, b), (1, 2));
/// ```
#[inline]
pub fn join_if<A, B, RA, RB>(fork: bool, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if fork {
        join(a, b)
    } else {
        (a(), b())
    }
}

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// This is the binary-forking primitive of the paper's cost model: `a`
/// runs on the current thread while `b` is exposed for stealing; if no
/// other worker is idle, `b` is popped back and run inline, so the
/// sequential overhead is a few atomic operations.
///
/// If called from a thread outside the pool, the pair is first moved onto
/// the pool with [`run`] (blocking the calling thread until both
/// complete); on a one-worker pool it runs inline instead.
///
/// # Panics
///
/// If either closure panics, the panic is propagated to the caller after
/// both closures have stopped running.
///
/// # Examples
///
/// ```
/// fn fib(n: u64) -> u64 {
///     if n < 20 {
///         (1..=n).fold((0, 1), |(a, b), _| (b, a + b)).0
///     } else {
///         let (x, y) = parlay::join(|| fib(n - 1), || fib(n - 2));
///         x + y
///     }
/// }
/// assert_eq!(fib(24), 46_368);
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let worker = WorkerThread::current();
    if worker.is_null() {
        if registry::num_threads() <= 1 {
            // Single-threaded pool: nothing to gain from routing.
            return (a(), b());
        }
        return run(move || join(a, b));
    }
    // SAFETY: `worker` is the current thread's own WorkerThread, valid for
    // the duration of this call.
    let worker = unsafe { &*worker };

    if worker.is_solo() {
        // No thieves exist, so `b` could never run anywhere but here.
        // Skip the StackJob push/pop and catch_unwind entirely; panic
        // semantics match the outside-pool single-thread path (a panic in
        // `a` skips `b`).
        return (a(), b());
    }

    let job_b = StackJob::new(b);
    // SAFETY: `job_b` lives on this stack frame and we do not leave the
    // frame until `job_b.done()` is observed true.
    unsafe { worker.push(job_b.as_job_ref()) };

    // Run `a` while `b` is up for grabs. If `a` panics we still must wait
    // for `b` to finish (a thief may hold a pointer into our stack).
    let result_a = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(a)) {
        Ok(value) => value,
        Err(payload) => {
            worker.wait_until(|| job_b.done());
            std::panic::resume_unwind(payload);
        }
    };

    worker.wait_until(|| job_b.done());
    let result_b = job_b.into_result().into_return_value();
    (result_a, result_b)
}

/// Executes `f` on the thread pool and blocks until it completes.
///
/// Use this to enter the pool once at the top of a parallel computation;
/// nested [`join`] calls inside `f` then fork without any routing
/// overhead. Calling `run` from inside the pool simply invokes `f`, and so
/// does calling it on a one-worker pool, where nested `join`s run inline
/// anyway (as [`join`] off the pool already does there).
///
/// # Panics
///
/// Propagates any panic raised by `f`.
///
/// # Examples
///
/// ```
/// let v: Vec<u32> = (0..1000).collect();
/// let doubled = parlay::run(|| parlay::map(&v, |x| x * 2));
/// assert_eq!(doubled[999], 1998);
/// ```
pub fn run<F, R>(f: F) -> R
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    if !WorkerThread::current().is_null() || registry::num_threads() <= 1 {
        return f();
    }
    let registry = registry::global();
    let job = ExternalJob::new(f);
    // SAFETY: we block on the latch below, so `job` outlives its execution.
    unsafe { registry.inject(job.as_job_ref()) };
    job.wait();
    job.into_result().into_return_value()
}

/// True if the current thread is a pool worker.
pub fn in_worker() -> bool {
    !WorkerThread::current().is_null()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fib(n: u64) -> u64 {
        if n < 10 {
            let (mut a, mut b) = (0u64, 1u64);
            for _ in 0..n {
                let t = a + b;
                a = b;
                b = t;
            }
            a
        } else {
            let (x, y) = join(|| fib(n - 1), || fib(n - 2));
            x + y
        }
    }

    #[test]
    fn join_computes_nested_recursion() {
        assert_eq!(run(|| fib(28)), 317_811);
    }

    #[test]
    fn join_outside_pool_routes_through_pool() {
        let (a, b) = join(|| 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn join_returns_both_closure_results() {
        let (a, b) = run(|| join(|| "left".to_string(), || vec![1, 2, 3]));
        assert_eq!(a, "left");
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    fn run_nested_inside_pool_is_inline() {
        let r = run(|| run(|| 7));
        assert_eq!(r, 7);
    }

    #[test]
    fn panic_in_left_closure_propagates() {
        let result = std::panic::catch_unwind(|| run(|| join(|| panic!("left boom"), || 42)));
        assert!(result.is_err());
    }

    #[test]
    fn panic_in_right_closure_propagates() {
        let result = std::panic::catch_unwind(|| run(|| join(|| 42, || panic!("right boom"))));
        assert!(result.is_err());
    }

    #[test]
    fn many_concurrent_external_runs() {
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let n = run(|| fib(15));
                        assert_eq!(n, 610);
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn cutoff_scales_with_problem_size() {
        let t = num_threads();
        if t <= 1 {
            assert_eq!(cutoff(1_000_000, 1024), usize::MAX);
            assert_eq!(cutoff(1_000_000, 4096), usize::MAX);
        } else {
            // Small problems keep the floor.
            assert_eq!(cutoff(1000, 1024), 1024);
            assert_eq!(cutoff(1000, 4096), 4096);
            // Large problems scale as n / 8T.
            let n = 80_000_000;
            assert_eq!(cutoff(n, 1024), n / (8 * t));
            assert_eq!(cutoff(n, 4096), n / (8 * t));
        }
    }

    #[test]
    fn batch_cutoff_follows_the_batch_not_the_tree() {
        let t = num_threads();
        if t <= 1 {
            assert_eq!(cutoff(1 << 30, FORK_FLOOR), usize::MAX);
            return;
        }
        // A commit-sized batch (64 keys at B = 128) is under the floor
        // whatever tree it lands in; bulk work scales as work / 8T.
        assert_eq!(cutoff(64 * 256 + 64, FORK_FLOOR), FORK_FLOOR);
        let work = 80_000_000;
        assert_eq!(cutoff(work, FORK_FLOOR), work / (8 * t));
    }

    #[test]
    fn block_size_floor_dominates_for_big_blocks() {
        // The set operations' floor is max(4b, 1024): 1024 at b = 32,
        // 4b at b = 512.
        let floor = |b: usize| (4 * b).max(1024);
        if num_threads() > 1 {
            assert_eq!(cutoff(1000, floor(32)), 1024);
            assert_eq!(cutoff(1000, floor(512)), 2048);
        }
    }

    #[test]
    fn deeply_nested_joins() {
        fn depth(d: usize) -> usize {
            if d == 0 {
                0
            } else {
                let (a, b) = join(|| depth(d - 1), || depth(d - 1));
                1 + a.max(b)
            }
        }
        assert_eq!(run(|| depth(12)), 12);
    }
}
