//! One fork rule: every fork site in cpam decides by `parlay::cutoff`
//! over its operation's root size, so a whole-tree walk under the walk
//! floor (4 096 entries) runs on its caller's thread — no injection into
//! the pool, whichever walk it is — and a bulk build still forks.
//!
//! Lives in its own integration-test file so the process gets a
//! dedicated pool: `set_num_threads(2)` runs before anything else touches
//! the scheduler (thread count is fixed at first use), so the pool can
//! fork on every thread-count leg and nothing here is ever skipped. The
//! scheduler counters are process-wide, so the tests serialize on one
//! mutex.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use cpam::PacSeq;
use parlay::SchedulerStats;

static SCHEDULER: Mutex<()> = Mutex::new(());

/// Pins the pool to two workers and takes the counters to this test.
fn forking_pool() -> MutexGuard<'static, ()> {
    parlay::set_num_threads(2);
    assert_eq!(parlay::num_threads(), 2);
    SCHEDULER.lock().unwrap_or_else(|e| e.into_inner())
}

/// The counters once the pool has gone quiet: a worker that finished a
/// job may still be signalling a sleeper just after its caller returned,
/// and that must not land in the next window.
fn quiet_stats() -> SchedulerStats {
    let key = |s: &SchedulerStats| (s.injected, s.wakeups, s.exec_local + s.exec_stolen);
    let mut last = parlay::scheduler_stats();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = parlay::scheduler_stats();
        if key(&now) == key(&last) {
            return now;
        }
        last = now;
    }
}

/// What the scheduler did while `f` ran.
fn window(f: impl FnOnce()) -> SchedulerStats {
    let before = quiet_stats();
    f();
    parlay::scheduler_stats().delta(&before)
}

#[test]
fn walks_under_the_walk_floor_stay_off_the_pool() {
    let _pool = forking_pool();
    let xs: Vec<u64> = (0..3_000).collect();
    let seq = PacSeq::<u64>::from_slice_with(16, &xs);
    let reversed: Vec<u64> = xs.iter().rev().copied().collect();
    let stays_off_the_pool = |name: &str, walk: &dyn Fn()| {
        let spent = window(walk);
        assert_eq!(
            spent.injected, 0,
            "a 3 000-entry {name} was handed to the pool"
        );
        assert_eq!(
            spent.exec_local + spent.exec_stolen,
            0,
            "{name} ran a pool job"
        );
    };
    stays_off_the_pool("reverse", &|| assert_eq!(seq.reverse().to_vec(), reversed));
    stays_off_the_pool("map", &|| assert_eq!(seq.map(|x| x + 1).len(), 3_000));
    stays_off_the_pool("map_reduce", &|| {
        assert_eq!(seq.map_reduce(|x| *x, |a, b| a + b, 0), 2_999 * 1_500)
    });
    stays_off_the_pool("to_vec", &|| assert_eq!(seq.to_vec(), xs));
}

#[test]
fn a_bulk_build_still_forks() {
    let _pool = forking_pool();
    let xs: Vec<u64> = (0..1_000_000).collect();
    let mut seq = None;
    let spent = window(|| seq = Some(PacSeq::<u64>::from_slice_with(16, &xs)));
    assert!(
        spent.injected >= 1,
        "a 10^6-entry build never entered the pool"
    );
    assert_eq!(seq.unwrap().len(), 1_000_000);
}
