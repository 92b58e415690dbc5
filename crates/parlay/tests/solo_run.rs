//! `run` on a one-worker pool runs inline, as `join` off the pool already
//! does there: the single worker could do nothing the caller cannot, so
//! injecting the closure and blocking on a latch would be two thread
//! hand-offs for nothing.
//!
//! Lives in its own integration-test file so the process gets a
//! dedicated pool: `set_num_threads(1)` must run before anything else
//! touches the scheduler (thread count is fixed at first use). Every test
//! here sets it first, so whichever starts the pool starts it solo.

fn solo_pool() {
    parlay::set_num_threads(1);
    assert_eq!(parlay::num_threads(), 1);
}

fn nested(depth: usize) -> usize {
    if depth == 0 {
        1
    } else {
        let (a, b) = parlay::join(|| nested(depth - 1), || nested(depth - 1));
        a + b
    }
}

#[test]
fn run_and_nested_joins_never_enter_the_pool() {
    solo_pool();
    let before = parlay::scheduler_stats();
    assert_eq!(parlay::run(|| nested(10)), 1 << 10);
    let (a, b) = parlay::join(|| parlay::run(|| 6 * 7), || nested(4));
    assert_eq!((a, b), (42, 16));
    let xs: Vec<u64> = (0..100_000).collect();
    let total = parlay::run(|| parlay::reduce(&xs, 0u64, |x| *x, |a, b| a + b));
    assert_eq!(total, 100_000 * 99_999 / 2);
    let spent = parlay::scheduler_stats().delta(&before);
    assert_eq!(spent.injected, 0, "a solo run was handed to the pool");
    assert_eq!(spent.wakeups, 0);
    assert_eq!(spent.exec_local + spent.exec_stolen, 0, "the worker executed a job");
}

#[test]
fn run_runs_on_the_calling_thread() {
    solo_pool();
    let caller = std::thread::current().id();
    assert_eq!(parlay::run(|| std::thread::current().id()), caller);
    assert!(!parlay::run(parlay::in_worker));
}

#[test]
fn a_panic_inside_a_solo_run_propagates() {
    solo_pool();
    let result = std::panic::catch_unwind(|| parlay::run(|| -> u32 { panic!("solo boom") }));
    let payload = result.expect_err("the panic was swallowed");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"solo boom"));
    let in_join = std::panic::catch_unwind(|| {
        parlay::run(|| parlay::join(|| 1, || -> u32 { panic!("right boom") }))
    });
    assert!(in_join.is_err());
    // The pool is still usable afterwards.
    assert_eq!(parlay::run(|| nested(8)), 256);
}
