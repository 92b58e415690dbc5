//! A small commit stays on its thread: its shard applies and the drop of
//! the version it evicts run on the committing thread, with no injection
//! into the `parlay` pool, no wake-up and no pool job. A bulk commit
//! still fans out on the pool.
//!
//! Lives in its own integration-test file so the process gets a
//! dedicated pool: `set_num_threads(2)` runs before anything else touches
//! the scheduler (thread count is fixed at first use), so the pool can
//! fork on every thread-count leg and nothing here is ever skipped. The
//! scheduler counters are process-wide, so the tests serialize on one
//! mutex.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use parlay::SchedulerStats;
use store::{Op, PacStore, Router, ShardedStore, StoreOptions};

mod world;
use world::scratch;

static SCHEDULER: Mutex<()> = Mutex::new(());

/// Pins the pool to two workers and takes the counters to this test.
fn forking_pool() -> MutexGuard<'static, ()> {
    parlay::set_num_threads(2);
    assert_eq!(parlay::num_threads(), 2);
    SCHEDULER.lock().unwrap_or_else(|e| e.into_inner())
}

/// The options the store benchmarks run with; the read policy is left to
/// `PAC_POOL_PAGES`, which changes when leaves are read, not who applies.
fn opts() -> StoreOptions {
    StoreOptions {
        block_size: 128,
        history_limit: 8,
        strict_log: false,
        fsync_commits: false,
        ..StoreOptions::default()
    }
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

/// Deterministic keys in `[0, span)`: xorshift64*.
fn keys(seed: u64, span: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % span
    }
}

/// `commits` batches of `ops` operations (nine puts to one delete) over
/// `[0, span)`, committed one by one and mirrored into `oracle`.
fn small_commits(
    commit: impl Fn(Vec<Op<u64, u64>>),
    oracle: &mut BTreeMap<u64, u64>,
    commits: usize,
    ops: usize,
    span: u64,
) {
    let mut next = keys(7, span);
    for c in 0..commits as u64 {
        let batch: Vec<Op<u64, u64>> = (0..ops as u64)
            .map(|i| {
                let k = next();
                if i % 10 == 9 {
                    oracle.remove(&k);
                    Op::Delete(k)
                } else {
                    oracle.insert(k, c * 1_000 + i);
                    Op::Put(k, c * 1_000 + i)
                }
            })
            .collect();
        commit(batch);
    }
}

/// A 100 k-op commit, mirrored into `oracle`: its work is far above the
/// fork floor, so it must still enter the pool and fork there.
fn bulk_commit(commit: impl Fn(Vec<Op<u64, u64>>), oracle: &mut BTreeMap<u64, u64>, span: u64) {
    let mut next = keys(3, span);
    let batch: Vec<Op<u64, u64>> = (0..100_000)
        .map(|_| {
            let k = next();
            oracle.insert(k, k);
            Op::Put(k, k)
        })
        .collect();
    let spent = window(|| commit(batch));
    assert!(spent.injected >= 1, "a 100k-op commit never entered the pool: {spent:?}");
    assert!(spent.exec_local + spent.exec_stolen >= 1, "a 100k-op commit ran no pool job: {spent:?}");
}

fn assert_no_handoff(what: &str, spent: &SchedulerStats) {
    assert_eq!(spent.injected, 0, "{what}: injected into the pool: {spent:?}");
    assert_eq!(spent.wakeups, 0, "{what}: woke a worker: {spent:?}");
    assert_eq!(spent.exec_local + spent.exec_stolen, 0, "{what}: ran pool jobs: {spent:?}");
}

#[test]
fn sixty_four_op_commits_on_four_durable_shards_stay_on_their_thread() {
    let _serialize = forking_pool();
    const SPAN: u64 = 1 << 24;
    let dir = scratch("sharded");
    let store: ShardedStore<u64, u64> =
        ShardedStore::open_or_create(&dir, Router::uniform_span(4, SPAN), opts()).unwrap();
    let commit = |ops| {
        store.commit(ops).unwrap();
    };
    let mut oracle = BTreeMap::new();
    bulk_commit(commit, &mut oracle, SPAN);

    // More commits than the history keeps, so most of them evict a
    // version superseded by a spread-out batch.
    let spent = window(|| small_commits(commit, &mut oracle, 200, 64, SPAN));
    assert_no_handoff("200 commits of 64 ops", &spent);

    let want: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(store.range_entries(&0, &u64::MAX), want);
    drop(store);
}

#[test]
fn sixteen_op_commits_on_a_pacstore_stay_on_their_thread() {
    let _serialize = forking_pool();
    const SPAN: u64 = 1 << 22;
    let dir = scratch("pacstore");
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, opts()).unwrap();
    let commit = |ops| {
        store.commit(ops).unwrap();
    };
    let mut oracle = BTreeMap::new();
    bulk_commit(commit, &mut oracle, SPAN);

    let spent = window(|| small_commits(commit, &mut oracle, 200, 16, SPAN));
    assert_no_handoff("200 commits of 16 ops", &spent);

    let want: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(store.range_entries(&0, &u64::MAX), want);
    drop(store);
}
