//! Scheduler introspection: the counters must move when the scheduler
//! works, be readable as a windowed delta, and surface through an `obs`
//! registry scrape.
//!
//! Own file (own process) so the pool here is started by these tests and
//! its counters are not polluted by other suites' thread-count choices.
//! Every test pins the pool to two workers before touching it: on a
//! one-worker pool `run` executes inline and these counters rightly stay
//! flat (`solo_run.rs` checks that side).

use std::sync::atomic::{AtomicU64, Ordering};

fn forking_pool() {
    parlay::set_num_threads(2);
}

fn busy_tree(depth: usize) -> u64 {
    if depth == 0 {
        std::hint::black_box(1)
    } else {
        let (a, b) = parlay::join(|| busy_tree(depth - 1), || busy_tree(depth - 1));
        a + b
    }
}

/// Counters observed over a window of known work: snapshot, run a burst
/// of external runs with nested joins, snapshot again, assert on the
/// delta (the idiom `cpam::stats` established with `OpCounts::delta`).
#[test]
fn window_delta_attributes_scheduler_activity() {
    forking_pool();
    let before = parlay::scheduler_stats();
    let total: u64 = (0..20).map(|_| parlay::run(|| busy_tree(10))).sum();
    assert_eq!(total, 20 * (1 << 10));
    let spent = parlay::scheduler_stats().delta(&before);

    // Each parlay::run goes through the injector exactly once.
    assert!(
        spent.injected >= 20,
        "expected >= 20 injections in window, got {}",
        spent.injected
    );
    // Every injected job is executed by some worker as stolen work.
    assert!(
        spent.exec_stolen >= 20,
        "expected >= 20 stolen executions, got {}",
        spent.exec_stolen
    );
    assert!(spent.steals >= 20, "steals: {}", spent.steals);
    assert_eq!(spent.per_worker.len(), parlay::num_threads());
    // The per-worker breakdown must add up to the totals.
    let (local_sum, stolen_sum) = spent
        .per_worker
        .iter()
        .fold((0, 0), |(l, s), (wl, ws)| (l + wl, s + ws));
    assert_eq!(local_sum, spent.exec_local);
    assert_eq!(stolen_sum, spent.exec_stolen);
}

/// The obs bridge: after `register_stats_with`, a scrape shows the
/// scheduler counters in Prometheus exposition format, and counter
/// values move across a window of work.
#[test]
fn obs_scrape_shows_scheduler_counters() {
    forking_pool();
    let registry = obs::Registry::new();
    parlay::register_stats_with(&registry);

    let before = registry
        .counter_value("parlay_injected_total")
        .expect("parlay_injected_total registered");
    parlay::run(|| busy_tree(8));
    let after = registry
        .counter_value("parlay_injected_total")
        .expect("parlay_injected_total registered");
    assert!(after > before, "injected: {before} -> {after}");

    let text = registry.render_text();
    for name in [
        "parlay_injected_total",
        "parlay_wakeups_total",
        "parlay_steals_total",
        "parlay_exec_local_total",
        "parlay_exec_stolen_total",
        "parlay_steal_retries_abandoned_total",
        "parlay_parks_total",
    ] {
        assert!(text.contains(name), "render_text missing {name}:\n{text}");
    }
}

/// Registration is idempotent and safe to repeat (first registration
/// wins, matching `obs::Registry::register_callback`).
#[test]
fn obs_registration_is_idempotent() {
    forking_pool();
    let registry = obs::Registry::new();
    parlay::register_stats_with(&registry);
    parlay::register_stats_with(&registry);
    let text = registry.render_text();
    let sample_lines = text
        .lines()
        .filter(|l| l.starts_with("parlay_steals_total "))
        .count();
    assert_eq!(sample_lines, 1, "duplicate registration:\n{text}");
}

/// The stats snapshot itself is consistent: monotone under work.
#[test]
fn stats_are_monotone() {
    forking_pool();
    let a = parlay::scheduler_stats();
    let done = AtomicU64::new(0);
    parlay::run(|| {
        let (x, y) = parlay::join(|| busy_tree(6), || busy_tree(6));
        done.store(x + y, Ordering::Relaxed);
    });
    let b = parlay::scheduler_stats();
    assert!(b.injected >= a.injected);
    assert!(b.exec_local + b.exec_stolen >= a.exec_local + a.exec_stolen);
    assert_eq!(done.load(Ordering::Relaxed), 2 * (1 << 6));
}
