//! Integration tests for the write-path instrumentation: every stage of
//! a commit/checkpoint/GC cycle shows up in the process-wide `obs`
//! registry with the documented series names.
//!
//! The registry is process-global and other tests in this binary (and
//! both store kinds) record into the same series, so every assertion is
//! window-based — take a snapshot before the exercised calls, subtract
//! after — and uses `>=` where concurrent tests could also contribute.
//! The exact per-group log counts hold every durable store in this
//! binary off for their window ([`durable_gate`]).

use std::sync::{Mutex, MutexGuard};

use obs::HistogramSnapshot;
use store::{Op, PacStore, RetentionPolicy, Router, ShardedStore, StoreOptions};

mod world;
use world::scratch;

/// Only durable stores append to a log. Every test here that opens one
/// holds this gate, so a test counting log samples sees only its own.
static DURABLE: Mutex<()> = Mutex::new(());

fn durable_gate() -> MutexGuard<'static, ()> {
    DURABLE.lock().unwrap_or_else(|e| e.into_inner())
}

fn window(name: &str, before: &HistogramSnapshot) -> HistogramSnapshot {
    obs::global()
        .histogram_snapshot(name)
        .map(|now| now.delta(before))
        .unwrap_or_default()
}

fn hist_before(name: &str) -> HistogramSnapshot {
    obs::global().histogram_snapshot(name).unwrap_or_default()
}

fn counter(name: &str) -> u64 {
    obs::global().counter_value(name).unwrap_or(0)
}

#[test]
fn pacstore_write_path_records_every_stage() {
    let _g = durable_gate();
    let dir = scratch("pacstore");
    let opts = StoreOptions { fsync_commits: true, history_limit: 4, ..StoreOptions::default() };

    let commit_before = hist_before("pacstore_commit_ns");
    let wait_before = hist_before("pacstore_commit_ticket_wait_ns");
    let apply_before = hist_before("pacstore_commit_apply_ns");
    let wal_before = hist_before("pacstore_wal_append_ns");
    let fsync_before = hist_before("pacstore_wal_fsync_ns");
    let point_before = hist_before("pacstore_point_read_ns");
    let range_before = hist_before("pacstore_range_read_ns");
    let save_before = hist_before("pacstore_save_ns");
    let gc_before = hist_before("pacstore_gc_ns");
    let compact_before = hist_before("pacstore_compact_ns");
    let snaps_before = counter("pacstore_snapshots_total");
    let pins_before = counter("pacstore_version_pins_total");
    let unpins_before = counter("pacstore_version_unpins_total");
    let dropped_before = counter("pacstore_gc_versions_dropped_total");

    let store: PacStore<u64, u64> = PacStore::open_with(&dir, opts).unwrap();
    const COMMITS: u64 = 5;
    for i in 0..COMMITS {
        store.commit(vec![Op::Put(i, i), Op::Put(i + 100, i)]).unwrap();
    }
    assert_eq!(store.get(&3), Some(3));
    assert_eq!(store.range_entries(&0, &4).len(), 5);
    let snap = store.snapshot();
    assert_eq!(snap.get(&2), Some(2));
    store.pin_version(2).unwrap();
    store.unpin_version(2).unwrap();
    store.gc(RetentionPolicy { keep_last: 1 });
    store.save().unwrap();
    store.commit(vec![Op::Put(999, 1)]).unwrap();
    store.compact().unwrap();

    // Histograms: each stage saw at least the calls made here.
    let commits = window("pacstore_commit_ns", &commit_before).count();
    assert!(commits > COMMITS, "commit window {commits}");
    assert!(window("pacstore_commit_ticket_wait_ns", &wait_before).count() > COMMITS);
    assert!(window("pacstore_commit_apply_ns", &apply_before).count() > COMMITS);
    assert!(window("pacstore_wal_append_ns", &wal_before).count() > COMMITS);
    assert!(window("pacstore_wal_fsync_ns", &fsync_before).count() > COMMITS);
    assert!(window("pacstore_point_read_ns", &point_before).count() >= 1);
    assert!(window("pacstore_range_read_ns", &range_before).count() >= 1);
    assert!(window("pacstore_save_ns", &save_before).count() >= 1);
    assert!(window("pacstore_gc_ns", &gc_before).count() >= 1);
    assert!(window("pacstore_compact_ns", &compact_before).count() >= 1);

    // A latency distribution is ordered and bounded by its extremes.
    let w = window("pacstore_commit_ns", &commit_before);
    assert!(w.min_value() <= w.p50() && w.p50() <= w.p99() && w.p99() <= w.max_value());

    // Counters.
    assert!(counter("pacstore_snapshots_total") > snaps_before);
    assert!(counter("pacstore_version_pins_total") > pins_before);
    assert!(counter("pacstore_version_unpins_total") > unpins_before);
    assert!(counter("pacstore_gc_versions_dropped_total") > dropped_before);

    drop(store);
}

#[test]
fn snapshot_at_counts_into_snapshots_total_for_both_handles() {
    // `PacStore::snapshot_at` used to skip the counter its sharded twin
    // bumped; with one engine a time-travel pin counts whichever handle
    // takes it. Other tests in this binary also pin snapshots, so the
    // assertions are lower bounds on a window.
    let pac: PacStore<u64, u64> = PacStore::in_memory();
    pac.commit(vec![Op::Put(1, 1)]).unwrap();
    let sharded: ShardedStore<u64, u64> =
        ShardedStore::in_memory(Router::uniform_span(2, 1_000)).unwrap();
    sharded.commit(vec![Op::Put(1, 1), Op::Put(900, 9)]).unwrap();

    let before = counter("pacstore_snapshots_total");
    for _ in 0..3 {
        assert_eq!(pac.snapshot_at(1).unwrap().get(&1), Some(1));
    }
    let after_pac = counter("pacstore_snapshots_total");
    assert!(after_pac >= before + 3, "PacStore::snapshot_at uncounted: {before} -> {after_pac}");
    for _ in 0..3 {
        assert_eq!(sharded.snapshot_at(1).unwrap().get(&900), Some(9));
    }
    let after_sharded = counter("pacstore_snapshots_total");
    assert!(
        after_sharded >= after_pac + 3,
        "ShardedStore::snapshot_at uncounted: {after_pac} -> {after_sharded}"
    );
}

#[test]
fn sharded_store_times_compaction_phases() {
    let _g = durable_gate();
    let dir = scratch("sharded");

    let pages_before = hist_before("pacstore_compact_pages_ns");
    let truncate_before = hist_before("pacstore_compact_truncate_ns");
    let pages_written_before = counter("pacstore_pages_written_total");

    let store: ShardedStore<u64, u64> = ShardedStore::open_or_create(
        &dir,
        Router::uniform_span(2, 1_000),
        StoreOptions::default(),
    )
    .unwrap();
    store.commit(vec![Op::Put(1, 1), Op::Put(900, 9)]).unwrap();
    store.save().unwrap();
    store.commit(vec![Op::Put(2, 2), Op::Put(901, 10)]).unwrap();
    store.compact().unwrap();

    // Both compaction phases were timed, and pages actually hit disk.
    assert!(window("pacstore_compact_pages_ns", &pages_before).count() >= 1);
    assert!(window("pacstore_compact_truncate_ns", &truncate_before).count() >= 1);
    assert!(counter("pacstore_pages_written_total") > pages_written_before);

    drop(store);
}

#[test]
fn one_log_append_and_one_fsync_per_commit_group() {
    // Three shards, groups touching one, two and all three of them, and
    // an empty one: each is one write to the one log, and under
    // `fsync_commits` one `sync_data`.
    let _g = durable_gate();
    let dir = scratch("one-append");
    let opts = StoreOptions { fsync_commits: true, ..StoreOptions::default() };
    let store: ShardedStore<u64, u64> =
        ShardedStore::open_or_create(&dir, Router::uniform_span(3, 3_000), opts).unwrap();
    let groups: [Vec<Op<u64, u64>>; 4] = [
        vec![Op::Put(1, 1)],
        vec![Op::Put(2, 2), Op::Put(2_002, 2)],
        vec![Op::Put(3, 3), Op::Put(1_003, 3), Op::Put(2_003, 3)],
        Vec::new(),
    ];
    let append_before = hist_before("pacstore_wal_append_ns");
    let fsync_before = hist_before("pacstore_wal_fsync_ns");
    for ops in groups.iter().cloned() {
        store.commit(ops).unwrap();
    }
    assert_eq!(window("pacstore_wal_append_ns", &append_before).count(), groups.len() as u64);
    assert_eq!(window("pacstore_wal_fsync_ns", &fsync_before).count(), groups.len() as u64);
    drop(store);
}

#[test]
fn pool_stats_publish_gauges_and_counter_deltas() {
    let _g = durable_gate();
    let dir = scratch("pool");
    let opts = StoreOptions { pool_pages: Some(4), ..StoreOptions::default() };

    let misses_before = counter("pacstore_pool_misses_total");

    {
        let store: PacStore<u64, u64> = PacStore::open_with(&dir, opts.clone()).unwrap();
        store.commit((0..20_000u64).map(|k| Op::Put(k, k)).collect()).unwrap();
        store.save().unwrap();
    }
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, opts).unwrap();
    assert_eq!(store.get(&7), Some(7)); // pages in one leaf (a pool miss)
    let s = store.pool_stats().unwrap(); // publishes into the registry

    // Gauges mirror the snapshot just taken.
    let gauge = |name: &str| obs::global().gauge_value(name).unwrap_or(i64::MIN);
    assert_eq!(gauge("pacstore_pool_capacity_pages"), 4);
    assert_eq!(gauge("pacstore_pool_resident_pages"), s.resident_pages as i64);
    assert_eq!(gauge("pacstore_pool_resident_bytes"), s.resident_bytes as i64);
    assert_eq!(obs::global().gauge_value("pacstore_pool_pinned_pages"), None, "gauge is gone");

    // Counters advanced by at least this store's activity; a second
    // publish with no intervening pool traffic adds nothing (deltas,
    // not re-counted snapshots).
    assert!(counter("pacstore_pool_misses_total") > misses_before);
    let hits_mid = counter("pacstore_pool_hits_total");
    let misses_mid = counter("pacstore_pool_misses_total");
    assert_eq!(store.pool_stats().unwrap(), s);
    assert_eq!(counter("pacstore_pool_hits_total"), hits_mid);
    assert_eq!(counter("pacstore_pool_misses_total"), misses_mid);

    // Both scrape formats carry the pool series.
    let text = obs::global().render_text();
    for series in [
        "# TYPE pacstore_pool_resident_bytes gauge",
        "# TYPE pacstore_pool_resident_pages gauge",
        "pacstore_pool_hits_total",
        "pacstore_pool_misses_total",
        "pacstore_pool_evictions_total",
    ] {
        assert!(text.contains(series), "render_text missing {series}:\n{text}");
    }
    let json = obs::global().snapshot_json();
    for key in ["\"pacstore_pool_resident_bytes\"", "\"pacstore_pool_misses_total\""] {
        assert!(json.contains(key), "snapshot_json missing {key}");
    }

    drop(store);
}

#[test]
fn render_text_exposes_the_write_path_schema() {
    // Make sure at least one store existed in this process.
    let store: PacStore<u64, u64> = PacStore::in_memory();
    store.commit(vec![Op::Put(1, 1)]).unwrap();

    let text = obs::global().render_text();
    for series in [
        "pacstore_commit_ns",
        "pacstore_commit_ticket_wait_ns",
        "pacstore_commit_apply_ns",
        "pacstore_wal_append_ns",
        "pacstore_snapshots_total",
        "pacstore_incr_chain_depth{shard=\"000\"}",
        "pacstore_incr_chain_bytes{shard=\"000\"}",
        "cpam_node_allocs_total",
    ] {
        assert!(text.contains(series), "render_text missing {series}:\n{text}");
    }
    // Quantile labels render inside the name's label set.
    assert!(text.contains("quantile=\"0.99\""));

    let json = obs::global().snapshot_json();
    for key in ["\"counters\"", "\"gauges\"", "\"histograms\"", "pacstore_commit_ns"] {
        assert!(json.contains(key), "snapshot_json missing {key}");
    }
}
