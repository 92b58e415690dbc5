//! The scheduler's one queue type: each worker's deque and the injector.
//!
//! A [`Deque`] is a locked `VecDeque`. Its owner pushes and pops at the
//! back (LIFO); a thief takes from the front (FIFO) with `try_lock`, so a
//! steal that meets a held lock reports [`Steal::Retry`] instead of
//! blocking, as a lost CAS race does in a lock-free Chase–Lev deque.
//! Replacing this body with such a deque (ROADMAP item 4) keeps the four
//! operations and their contracts.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// Most jobs one steal takes: the one it returns plus up to 31 it moves.
const MAX_BATCH: usize = 32;

/// Outcome of a steal attempt.
pub(crate) enum Steal<T> {
    /// The source was empty.
    Empty,
    /// A job was stolen.
    Success(T),
    /// The source's lock was held by another thread. Callers bound their
    /// retries: an unbounded retry loop can livelock under contention.
    Retry,
}

/// A work deque, padded to a cache line so that neighbouring deques in
/// the registry's slice never share one.
#[repr(align(64))]
pub(crate) struct Deque<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> Deque<T> {
    pub(crate) fn new() -> Self {
        Deque {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes a job at the back. On a worker's deque only its owner
    /// pushes; any thread pushes onto the injector.
    pub(crate) fn push(&self, job: T) {
        self.lock().push_back(job);
    }

    /// Pops the most recently pushed job (the owner's end).
    pub(crate) fn pop(&self) -> Option<T> {
        self.lock().pop_back()
    }

    /// Whether the deque is currently empty. Any thread may ask.
    pub(crate) fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Steals the front job and moves up to half of the rest, at most
    /// `MAX_BATCH - 1`, into `dest` in queue order.
    ///
    /// This holds `self`'s lock while it blocks on `dest`'s, which cannot
    /// deadlock: a worker steals only into its own deque, right after its
    /// own `pop` found it empty, and only a deque's owner adds to it. So
    /// `dest` stays empty for the whole steal, and a thief that holds
    /// `dest`'s lock finds nothing there and lets go without asking for a
    /// second one.
    pub(crate) fn steal_into(&self, dest: &Deque<T>) -> Steal<T> {
        debug_assert!(
            dest.is_empty(),
            "a thief steals only into its own empty deque"
        );
        let mut src = match self.queue.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return Steal::Retry,
        };
        let Some(first) = src.pop_front() else {
            return Steal::Empty;
        };
        let extra = src.len().div_ceil(2).min(MAX_BATCH - 1);
        if extra > 0 {
            dest.lock().extend(src.drain(..extra));
        }
        Steal::Success(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
    use std::sync::Barrier;

    /// Pops `deque` dry, newest first.
    fn drain(deque: &Deque<u64>) -> Vec<u64> {
        std::iter::from_fn(|| deque.pop()).collect()
    }

    #[test]
    fn owner_pops_lifo_thief_steals_fifo() {
        let victim = Deque::new();
        let thief = Deque::new();
        for i in 1..=3 {
            victim.push(i);
        }
        assert_eq!(victim.pop(), Some(3));
        // Takes 1 and moves ceil(1/2) = 1 job (2) along with it.
        assert!(matches!(victim.steal_into(&thief), Steal::Success(1)));
        assert_eq!(drain(&thief), vec![2]);
        assert!(matches!(victim.steal_into(&thief), Steal::Empty));
        assert_eq!(victim.pop(), None);
    }

    #[test]
    fn injector_is_fifo_across_steals() {
        let injector = Deque::new();
        let thief = Deque::new();
        for i in 0..3 {
            injector.push(i);
        }
        assert!(matches!(injector.steal_into(&thief), Steal::Success(0)));
        assert_eq!(drain(&thief), vec![1]);
        assert!(matches!(injector.steal_into(&thief), Steal::Success(2)));
        assert!(thief.is_empty());
        assert!(matches!(injector.steal_into(&thief), Steal::Empty));
    }

    #[test]
    fn steal_moves_half_and_returns_the_first() {
        let victim = Deque::new();
        let thief = Deque::new();
        for i in 0..10 {
            victim.push(i);
        }
        // Takes 0 and moves ceil(9/2) = 5 jobs (1..=5) to the thief.
        assert!(matches!(victim.steal_into(&thief), Steal::Success(0)));
        assert_eq!(drain(&thief), vec![5, 4, 3, 2, 1]);
        // The victim still holds 6..=9, its own end untouched.
        assert_eq!(victim.pop(), Some(9));
    }

    #[test]
    fn steal_caps_at_max_batch() {
        let victim = Deque::new();
        let thief = Deque::new();
        for i in 0..200 {
            victim.push(i);
        }
        assert!(matches!(victim.steal_into(&thief), Steal::Success(0)));
        assert_eq!(drain(&thief).len(), MAX_BATCH - 1);
    }

    #[test]
    fn injector_batch_steal() {
        let injector = Deque::new();
        let thief = Deque::new();
        for i in 0..6 {
            injector.push(i);
        }
        // Takes 0 and moves ceil(5/2) = 3 jobs in queue order, so the
        // thief pops them newest first.
        assert!(matches!(injector.steal_into(&thief), Steal::Success(0)));
        assert_eq!(drain(&thief), vec![3, 2, 1]);
        assert!(matches!(injector.steal_into(&thief), Steal::Success(4)));
    }

    /// Runs a thief, once every thread is at `start`, until `victim` is
    /// empty for good: pops its own deque, else steals into it, and stops
    /// at the first `Empty` seen after `closed` was set. Passes every job
    /// it runs to `ran`.
    fn thief_loop(victim: &Deque<u64>, start: &Barrier, closed: &AtomicBool, ran: impl Fn(u64)) {
        start.wait();
        let own = Deque::new();
        loop {
            if let Some(job) = own.pop() {
                ran(job);
                continue;
            }
            let closed = closed.load(Ordering::Acquire);
            match victim.steal_into(&own) {
                Steal::Success(job) => ran(job),
                Steal::Empty if closed => return,
                Steal::Empty | Steal::Retry => std::thread::yield_now(),
            }
        }
    }

    #[test]
    fn concurrent_pushes_and_steals_on_the_injector_see_each_job_once() {
        let injector = Deque::new();
        let (start, closed) = (Barrier::new(4), AtomicBool::new(false));
        let (total, count) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            let pushers: Vec<_> = (0..2u64)
                .map(|p| {
                    let (injector, start) = (&injector, &start);
                    scope.spawn(move || {
                        start.wait();
                        (p * 5_000..(p + 1) * 5_000).for_each(|i| injector.push(i))
                    })
                })
                .collect();
            for _ in 0..2 {
                scope.spawn(|| {
                    thief_loop(&injector, &start, &closed, |v| {
                        total.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    })
                });
            }
            pushers.into_iter().for_each(|p| p.join().unwrap());
            closed.store(true, Ordering::Release);
        });
        assert_eq!(count.into_inner(), 10_000);
        assert_eq!(total.into_inner(), 10_000 * 9_999 / 2);
    }

    #[test]
    fn concurrent_batch_steals_see_each_job_once() {
        let victim = Deque::new();
        for i in 0..10_000u64 {
            victim.push(i);
        }
        let (start, closed) = (Barrier::new(4), AtomicBool::new(true));
        let (total, count) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    thief_loop(&victim, &start, &closed, |v| {
                        total.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    })
                });
            }
        });
        assert_eq!(count.into_inner(), 10_000);
        assert_eq!(total.into_inner(), 10_000 * 9_999 / 2);
    }

    /// The scheduler's real pattern: the owner keeps pushing and popping
    /// its own end while 3 thieves batch-steal into their own deques.
    /// Every job runs exactly once.
    #[test]
    fn owner_and_thieves_racing_run_each_job_exactly_once() {
        const JOBS: u64 = 20_000;
        let victim = Deque::new();
        let runs: Vec<AtomicU8> = (0..JOBS).map(|_| AtomicU8::new(0)).collect();
        let run = |job: u64| {
            runs[job as usize].fetch_add(1, Ordering::Relaxed);
        };
        let (start, closed) = (Barrier::new(4), AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| thief_loop(&victim, &start, &closed, run));
            }
            start.wait();
            // Two pushes per pop, then the owner drains what is left.
            for job in 0..JOBS {
                victim.push(job);
                if job % 2 == 1 {
                    if let Some(popped) = victim.pop() {
                        run(popped);
                    }
                }
            }
            drain(&victim).into_iter().for_each(run);
            closed.store(true, Ordering::Release);
        });
        for (job, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "job {job}");
        }
    }
}
