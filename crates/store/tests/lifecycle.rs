//! Lifecycle tests: the leak/reclaim gate (GC must hand memory back),
//! incremental checkpoint chains across reopen, and the missing-history
//! regression — a store whose log references versions the checkpoint
//! pages no longer reach must fail typed, never silently replay from an
//! older state.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

use store::{
    shard_dir_name, Op, PacStore, RetentionPolicy, Router, ShardedStore, StoreError,
    StoreOptions, LOG_FILE, SNAPSHOT_FILE,
};

mod world;
use world::{dir_tree, scratch, shard0};

/// The [`cpam::stats`] counters are process-global: the leak gate
/// measures allocation deltas, which any test building a tree at the
/// same time would skew. Every test in this binary therefore holds this
/// gate for its whole body.
static STATS_GATE: Mutex<()> = Mutex::new(());

fn stats_gate() -> std::sync::MutexGuard<'static, ()> {
    STATS_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn live_nodes() -> u64 {
    cpam::stats::read().live_nodes()
}

/// The shard counts the handle-agnostic cases run at: what a
/// [`PacStore`] is, and a genuinely sharded store.
const SHARD_COUNTS: [usize; 2] = [1, 3];

// ---------------------------------------------------------------------
// Leak / reclaim gate
// ---------------------------------------------------------------------

#[test]
fn gc_returns_node_footprint_to_a_fresh_store_within_tolerance() {
    let _g = stats_gate();
    for shards in SHARD_COUNTS {
        let base = live_nodes();
        {
            let opts = StoreOptions { history_limit: 100, ..StoreOptions::default() };
            let open = || -> ShardedStore<u64, u64> {
                ShardedStore::in_memory_with(Router::uniform_span(shards, 400), opts.clone())
                    .unwrap()
            };
            let store = open();
            // 50 full-overwrite versions: each rebuilds most leaf blocks,
            // so retained history pins ~50 trees' worth of unshared nodes
            // in every shard.
            for round in 0..50u64 {
                store
                    .commit((0..400u64).map(|k| Op::Put(k, round)).collect())
                    .unwrap();
            }
            let bloated = live_nodes() - base;

            let stats = store.gc(RetentionPolicy::keep_last(1));
            assert_eq!(stats.versions_dropped, 50, "v0..v49 dropped, v50 kept");
            assert_eq!(stats.versions_retained, 1);
            assert!(stats.nodes_reclaimed > 0, "GC reclaimed nothing");

            // The footprint after GC must be within tolerance of a fresh
            // store holding the identical final contents — history cannot
            // keep pinning dropped versions' subtrees.
            let after_gc = live_nodes() - base;
            assert!(after_gc < bloated, "GC did not shrink the footprint");
            let fresh = open();
            fresh
                .commit((0..400u64).map(|k| Op::Put(k, 49)).collect())
                .unwrap();
            let fresh_net = live_nodes() - base - after_gc;
            assert!(
                after_gc <= fresh_net * 2 + 16 && fresh_net <= after_gc * 2 + 16,
                "{shards} shards: post-GC footprint {after_gc} vs fresh footprint {fresh_net}: leak"
            );
        }
        // Dropping every handle returns the counters to the baseline: no
        // node outlives its last reference.
        assert_eq!(live_nodes(), base, "{shards} shards: nodes leaked past the last handle");
    }
}

// ---------------------------------------------------------------------
// Incremental checkpoint chains
// ---------------------------------------------------------------------

/// The page files of one shard directory: the full page's bytes and
/// its links' bytes in version order.
fn chain_files(sdir: &std::path::Path) -> (u64, Vec<u64>) {
    let len = |path: PathBuf| std::fs::metadata(path).unwrap().len();
    let mut links: Vec<(String, u64)> = std::fs::read_dir(sdir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("incr-"))
        .map(|e| (e.file_name().to_string_lossy().into_owned(), len(e.path())))
        .collect();
    // Link names carry a zero-padded version: name order is version order.
    links.sort();
    (len(sdir.join(SNAPSHOT_FILE)), links.into_iter().map(|(_, n)| n).collect())
}

/// Whether `compact` extends the chain `chain_files` found: while its
/// links weigh less than its full page and number fewer than 16.
fn extends((full, links): &(u64, Vec<u64>)) -> bool {
    links.iter().sum::<u64>() < *full && links.len() < 16
}

/// What a [`store::metrics`] gauge of shard `shard` reads.
fn shard_gauge(name: &str, shard: usize) -> i64 {
    let label = format!("{shard:03}");
    obs::global()
        .gauge_value(&obs::labeled(name, &[("shard", &label)]))
        .unwrap_or(i64::MIN)
}

/// Checks that `compact` took the step the byte rule asks for on one
/// shard (`before` and `after` are its [`chain_files`]), and that its
/// gauges publish the chain on disk.
fn check_step(shard: usize, before: &(u64, Vec<u64>), after: &(u64, Vec<u64>)) {
    if extends(before) {
        assert_eq!(after.0, before.0, "shard {shard}: the full page was rewritten early");
        assert_eq!(after.1[..before.1.len()], before.1[..], "shard {shard}");
        assert_eq!(after.1.len(), before.1.len() + 1, "shard {shard}: no link was added");
    } else {
        assert!(after.1.is_empty(), "shard {shard}: {before:?} was extended to {after:?}");
    }
    check_gauges(shard, after);
}

fn check_gauges(shard: usize, (_, links): &(u64, Vec<u64>)) {
    assert_eq!(shard_gauge("pacstore_incr_chain_depth", shard), links.len() as i64);
    assert_eq!(shard_gauge("pacstore_incr_chain_bytes", shard), links.iter().sum::<u64>() as i64);
}

#[test]
fn incremental_chain_reopens_and_rolls_over_to_full_pages() {
    let _g = stats_gate();
    let dir = scratch("chain-rollover");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit((0..2_000u64).map(|k| Op::Put(k, 0)).collect()).unwrap();
        assert_eq!(store.save().unwrap(), 1);
        assert_eq!(store.latest_checkpoint(), Some(1));
        // 17 compact cycles over a 2 000-key page of about 6 KB. Each
        // writes two leaves and their paths, a link of 1.1–2.3 KB, so
        // every four to five links outweigh the full page and the next
        // cycle writes a full one.
        for i in 0..17u64 {
            store.commit(vec![Op::Put(i, i + 100), Op::Put(5_000 + i, i)]).unwrap();
            let before = chain_files(&shard0(&dir));
            assert_eq!(store.compact().unwrap(), i + 2);
            assert_eq!(store.latest_checkpoint(), Some(i + 2));
            check_step(0, &before, &chain_files(&shard0(&dir)));
        }
        let stats = store.lifecycle_stats();
        assert_eq!(stats.compactions, 17);
        assert_eq!(stats.incremental_saves, 14);
        assert_eq!(stats.full_saves, 4, "initial save + three byte-rule rollovers");
        assert!(stats.wal_bytes_truncated > 0);
    }
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    assert_eq!(store.current_version(), 18);
    assert_eq!(store.len(), 2_000 + 17);
    for i in 0..17u64 {
        assert_eq!(store.get(&i), Some(i + 100));
        assert_eq!(store.get(&(5_000 + i)), Some(i));
    }
    // The reopened store counts the link it found and continues the
    // chain where it left off.
    let before = chain_files(&shard0(&dir));
    assert_eq!(before.1.len(), 1);
    check_gauges(0, &before);
    store.commit(vec![Op::Put(1, 1)]).unwrap();
    store.compact().unwrap();
    assert_eq!(store.latest_checkpoint(), Some(19));
    check_step(0, &before, &chain_files(&shard0(&dir)));
    drop(store);
}

#[test]
fn tiny_links_roll_over_at_the_chain_cap() {
    let _g = stats_gate();
    let dir = scratch("chain-cap");
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    store.commit((0..50_000u64).map(|k| Op::Put(k, k)).collect()).unwrap();
    store.save().unwrap();
    // One-key links against a 50 000-key page: 16 of them weigh far less
    // than it, so the count cap ends the chain.
    for i in 0..18u64 {
        store.commit(vec![Op::Put(i * 1_000, 0)]).unwrap();
        store.compact().unwrap();
        let (full, links) = chain_files(&shard0(&dir));
        assert_eq!(links.len() as u64, if i < 16 { i + 1 } else { i - 16 }, "cycle {i}");
        assert!(links.iter().sum::<u64>() * 4 < full, "cycle {i}: links are not tiny");
    }
    let stats = store.lifecycle_stats();
    assert_eq!((stats.incremental_saves, stats.full_saves), (17, 2));
    drop(store);
}

#[test]
fn uniform_churn_keeps_each_shard_under_two_full_pages_and_a_link() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let _g = stats_gate();
    const KEYS: u64 = 20_000;
    for shards in SHARD_COUNTS {
        for pool_pages in [None, Some(8)] {
            let dir = scratch(&format!("churn-{shards}-{pool_pages:?}"));
            let opts = StoreOptions { pool_pages, ..StoreOptions::default() };
            let open = || -> ShardedStore<u64, u64> {
                ShardedStore::open_or_create(&dir, Router::uniform_span(shards, KEYS), opts.clone())
                    .unwrap()
            };
            let mut rng = StdRng::seed_from_u64(47 + shards as u64);
            let mut oracle = BTreeMap::new();
            let mut store = open();
            let ops: Vec<_> = (0..KEYS).map(|k| Op::Put(k, 0)).collect();
            oracle.extend((0..KEYS).map(|k| (k, 0)));
            store.commit(ops).unwrap();
            store.save().unwrap();
            let (mut links, mut fulls) = (0, 0);
            for round in 1..=10u64 {
                // A uniform batch of puts and deletes: about one key in
                // ten, so nearly every leaf of every shard changes.
                let ops: Vec<_> = (0..KEYS / 10)
                    .map(|_| {
                        let k = rng.gen_range(0..KEYS);
                        if rng.gen_bool(0.2) {
                            oracle.remove(&k);
                            Op::Delete(k)
                        } else {
                            oracle.insert(k, round);
                            Op::Put(k, round)
                        }
                    })
                    .collect();
                store.commit(ops).unwrap();
                let sdirs: Vec<_> = (0..shards).map(|i| dir.join(shard_dir_name(i))).collect();
                let before: Vec<_> = sdirs.iter().map(|d| chain_files(d)).collect();
                store.compact().unwrap();
                for (i, sdir) in sdirs.iter().enumerate() {
                    let after = chain_files(sdir);
                    check_step(i, &before[i], &after);
                    // The directory holds under two full pages plus the
                    // newest link: the links before it weigh less than
                    // the full page.
                    let (full, chain) = &after;
                    let older: u64 = chain.iter().rev().skip(1).sum();
                    assert!(older < *full, "shard {i}, round {round}: {after:?}");
                    if after.1.is_empty() { fulls += 1 } else { links += 1 }
                }
                // Reopen: the same contents, and the chains counted from
                // the files the load applied.
                drop(store);
                store = open();
                let got: Vec<(u64, u64)> = store.range_entries(&0, &u64::MAX);
                assert!(got.into_iter().eq(oracle.clone()), "{shards} shards, round {round}");
                for (i, sdir) in sdirs.iter().enumerate() {
                    check_gauges(i, &chain_files(sdir));
                }
            }
            // Both steps of the rule were taken.
            assert!(links > 0 && fulls > 0, "{links} links, {fulls} full pages");
            drop(store);
        }
    }
}

#[test]
fn incremental_pages_are_much_smaller_than_full_pages() {
    let _g = stats_gate();
    let dir = scratch("incr-size");
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    store.commit((0..50_000u64).map(|k| Op::Put(k, k)).collect()).unwrap();
    store.save().unwrap();
    // A 10-key delta against a 50k-key base.
    store.commit((0..10u64).map(|k| Op::Put(k, 1)).collect()).unwrap();
    store.save_incremental(1).unwrap();
    let stats = store.lifecycle_stats();
    assert!(
        stats.incremental_page_bytes * 10 < stats.full_page_bytes,
        "incremental page ({} B) not ≪ full page ({} B)",
        stats.incremental_page_bytes,
        stats.full_page_bytes
    );
    // Diffing against anything but the latest checkpoint is typed.
    assert!(matches!(
        store.save_incremental(1),
        Err(StoreError::CheckpointMismatch { requested: 1, actual: Some(2) })
    ));
    drop(store);
}

// ---------------------------------------------------------------------
// Missing-history regression (typed VersionGap, never silent replay)
// ---------------------------------------------------------------------

#[test]
fn deleted_snapshot_page_is_a_version_gap_not_a_silent_replay() {
    let _g = stats_gate();
    let dir = scratch("gap-deleted-snapshot");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        for i in 0..3u64 {
            store.commit(vec![Op::Put(i, i)]).unwrap();
        }
        store.save().unwrap();
        // These live only in the log, as versions 4 and 5, after the
        // checkpoint's head.
        store.commit(vec![Op::Put(10, 10)]).unwrap();
        store.commit(vec![Op::Put(11, 11)]).unwrap();
    }
    std::fs::remove_file(shard0(&dir).join(SNAPSHOT_FILE)).unwrap();
    // Replaying v4 onto an empty tree would silently resurrect a store
    // missing v1..v3; the gap must be typed instead. (The head record at
    // v3 is the first thing the pages fail to reach.)
    let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(
        matches!(err, StoreError::VersionGap { checkpoint: 0, first: 3 }),
        "unexpected error: {err}"
    );
    // With the head cut off too, the log's first record is the gap.
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let mut frames = store::wal::Frames::new(&log);
    frames.next().expect("the head record");
    std::fs::write(dir.join(LOG_FILE), &log[frames.pos..]).unwrap();
    let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(
        matches!(err, StoreError::VersionGap { checkpoint: 0, first: 4 }),
        "unexpected error: {err}"
    );
}

#[test]
fn broken_incremental_chain_is_typed() {
    let _g = stats_gate();
    let dir = scratch("gap-broken-chain");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit(vec![Op::Put(1, 1)]).unwrap();
        store.save().unwrap();
        store.commit(vec![Op::Put(2, 2)]).unwrap();
        store.save_incremental(1).unwrap();
        store.commit(vec![Op::Put(3, 3)]).unwrap();
        store.save_incremental(2).unwrap();
    }
    // Deleting the middle link (incr @ v2) breaks v3's base reference.
    let incr2 = shard0(&dir).join(store::incr_file_name(2));
    let incr2_bytes = std::fs::read(&incr2).unwrap();
    std::fs::remove_file(&incr2).unwrap();
    assert!(matches!(
        PacStore::<u64, u64>::open(&dir).unwrap_err(),
        StoreError::Corrupt(_)
    ));
    std::fs::write(&incr2, &incr2_bytes).unwrap();
    // Deleting the base page strands the incrementals entirely.
    std::fs::remove_file(shard0(&dir).join(SNAPSHOT_FILE)).unwrap();
    assert!(matches!(
        PacStore::<u64, u64>::open(&dir).unwrap_err(),
        StoreError::Corrupt(_)
    ));
}

#[test]
fn sharded_missing_page_chain_is_a_version_gap() {
    let _g = stats_gate();
    let dir = scratch("gap-sharded");
    let router = Router::uniform_span(3, 3_000);
    let all_shards =
        |v: u64| vec![Op::Put(1, v), Op::Put(1_001, v), Op::Put(2_001, v)];
    let head_len = {
        let store: ShardedStore<u64, u64> =
            ShardedStore::open_or_create(&dir, router.clone(), StoreOptions::default())
                .unwrap();
        store.commit(all_shards(0)).unwrap();
        store.save().unwrap();
        store.commit(all_shards(1)).unwrap();
        store.compact().unwrap(); // incremental page per shard
        let head_len = std::fs::metadata(dir.join(LOG_FILE)).unwrap().len();
        store.commit(all_shards(2)).unwrap(); // lives only in the log
        head_len
    };
    let sdir = dir.join(shard_dir_name(1));
    let incr_path = sdir.join(store::incr_file_name(2));
    assert!(incr_path.exists(), "compact should have written an incremental page");
    let incr_bytes = std::fs::read(&incr_path).unwrap();

    // Case 1: shard 1's chain reaches only v1, but the log's head and
    // its last group both reference later local versions.
    std::fs::remove_file(&incr_path).unwrap();
    let err = ShardedStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(
        matches!(err, StoreError::VersionGap { checkpoint: 1, .. }),
        "unexpected error: {err}"
    );

    // Case 2: no trailing records — the checkpoint head itself proves
    // shard 1 lost history.
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    std::fs::write(dir.join(LOG_FILE), &log[..head_len as usize]).unwrap();
    let err = ShardedStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(
        matches!(err, StoreError::VersionGap { checkpoint: 1, first: 2 }),
        "unexpected error: {err}"
    );

    // Restoring the page heals case 2 (the log-only commit is gone, as
    // its group was cut above, but nothing is misread).
    std::fs::write(&incr_path, &incr_bytes).unwrap();
    let store: ShardedStore<u64, u64> = ShardedStore::open(&dir).unwrap();
    assert_eq!(store.get(&1), Some(1));
    assert_eq!(store.get(&1_001), Some(1));
    drop(store);
}

#[test]
fn the_manifest_and_per_shard_log_layout_fails_open_untouched() {
    // Before a store kept one log it had a manifest at the root and a
    // log in every shard directory. This build reads neither, so opening
    // such a directory as if its history were in the one log would
    // serve the pages alone and drop every commit since the checkpoint.
    // Plant the old layout's files in a real store and check that either
    // handle refuses it without writing a byte.
    // The whole old layout, and each of its two files alone.
    let _g = stats_gate();
    for planted in [&["manifest.pac", "shard-000/wal.pac"][..], &["manifest.pac"], &["shard-000/wal.pac"]]
    {
        let dir = scratch("gap-legacy-layout");
        {
            let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
            store.commit(vec![Op::Put(1, 1)]).unwrap();
            store.save().unwrap();
            store.commit(vec![Op::Put(2, 2)]).unwrap();
        }
        let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        std::fs::remove_file(dir.join(LOG_FILE)).unwrap();
        for file in planted {
            std::fs::write(dir.join(file), &log).unwrap();
        }
        let before = dir_tree(&dir);
        let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::LegacyLayout(_)), "{planted:?}: unexpected error {err}");
        assert!(err.to_string().contains(planted[0]), "{planted:?}: {err}");
        let err = ShardedStore::<u64, u64>::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::LegacyLayout(_)), "{planted:?}: unexpected error {err}");
        assert!(before == dir_tree(&dir), "{planted:?}: the refused open wrote to the directory");
    }
}

// ---------------------------------------------------------------------
// Pins and GC across the durable lifecycle
// ---------------------------------------------------------------------

#[test]
fn pinned_snapshots_stay_readable_through_gc_and_compaction() {
    let _g = stats_gate();
    let dir = scratch("pin-through-compact");
    let store: PacStore<u64, u64> = PacStore::open_with(
        &dir,
        StoreOptions { history_limit: 50, ..StoreOptions::default() },
    )
    .unwrap();
    for i in 1..=10u64 {
        store.commit(vec![Op::Put(i, i * 10)]).unwrap();
    }
    store.pin_version(4).unwrap();
    store.compact().unwrap();
    let stats = store.gc(RetentionPolicy::keep_last(2));
    assert!(stats.versions_dropped > 0);
    // The pinned version still serves reads; unpinned history is gone.
    let pinned = store.snapshot_at(4).unwrap();
    assert_eq!(pinned.get(&4), Some(40));
    assert_eq!(pinned.get(&5), None);
    assert!(matches!(
        store.snapshot_at(3),
        Err(StoreError::VersionNotFound(3))
    ));
    assert_eq!(store.pinned_versions(), vec![4]);
    // Release the pin; the next GC drops it.
    store.unpin_version(4).unwrap();
    store.gc(RetentionPolicy::keep_last(2));
    assert!(matches!(
        store.snapshot_at(4),
        Err(StoreError::VersionNotFound(4))
    ));
    drop(store);
}

// ---------------------------------------------------------------------
// Pins survive a reopen
// ---------------------------------------------------------------------
//
// Regression: the replay loop in `open` used to evict history with a
// bare `history.pop_front()` loop that ignored the pin registry — and
// pins were never persisted at all — so any pin silently vanished
// across a restart. Both paths now go through
// `lifecycle::evict_history` with the pin table loaded from
// `pins.pac` before replay.

#[test]
fn pin_survives_reopen() {
    let _g = stats_gate();
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("pin-reopen-{shards}"));
        let opts = StoreOptions { history_limit: 3, ..StoreOptions::default() };
        let router = Router::uniform_span(shards, 2_000);
        {
            let store: ShardedStore<u64, u64> =
                ShardedStore::open_or_create(&dir, router, opts.clone()).unwrap();
            store.commit(vec![Op::Put(1, 10), Op::Put(1_001, 10)]).unwrap();
            store.pin_version(1).unwrap();
            assert!(dir.join("pins.pac").exists(), "pin was not persisted");
            // Push v1 far outside the retention window.
            for i in 2..=10u64 {
                store.commit(vec![Op::Put(i, i), Op::Put(1_000 + i, i)]).unwrap();
            }
            assert_eq!(store.snapshot_at(1).unwrap().get(&1), Some(10));
        }
        {
            let store: ShardedStore<u64, u64> =
                ShardedStore::open_with(&dir, opts.clone()).unwrap();
            assert_eq!(store.pinned_versions(), vec![1], "pin lost across reopen");
            let snap = store.snapshot_at(1).unwrap();
            assert_eq!(snap.get(&1), Some(10));
            assert_eq!(snap.get(&1_001), Some(10));
            assert_eq!(snap.get(&2), None);
            // Unpinned history outside the window did get evicted.
            assert!(matches!(store.snapshot_at(5), Err(StoreError::VersionNotFound(5))));
            store.unpin_version(1).unwrap();
        }
        // The release is durable too.
        let store: ShardedStore<u64, u64> = ShardedStore::open_with(&dir, opts).unwrap();
        assert!(store.pinned_versions().is_empty());
        drop(store);
    }
}

#[test]
fn clobbered_pin_table_fails_open_typed() {
    let _g = stats_gate();
    let dir = scratch("pin-clobbered");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit(vec![Op::Put(1, 1)]).unwrap();
        store.pin_version(1).unwrap();
    }
    std::fs::write(dir.join("pins.pac"), b"not a pin table").unwrap();
    assert!(matches!(
        PacStore::<u64, u64>::open(&dir).unwrap_err(),
        StoreError::BadMagic
    ));
}

// ---------------------------------------------------------------------
// Superseded versions are dropped outside the state lock
// ---------------------------------------------------------------------

/// A value whose `Drop` reads the store it lives in (while `ARMED`):
/// legal wherever the store holds no lock a reader needs.
#[derive(Clone)]
struct ReadsOnDrop(u64);

static DROP_STORE: std::sync::OnceLock<PacStore<u64, ReadsOnDrop>> = std::sync::OnceLock::new();
static ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static READS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Drop for ReadsOnDrop {
    fn drop(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        if let (true, Some(store)) = (ARMED.load(Relaxed), DROP_STORE.get()) {
            // Takes the state lock, like every `get` and `snapshot`.
            std::hint::black_box(store.current_version());
            READS.fetch_add(1, Relaxed);
        }
    }
}

impl codecs::ByteEncode for ReadsOnDrop {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
    }
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        u64::try_read(buf, pos).map(ReadsOnDrop)
    }
}

#[test]
fn evicted_versions_are_dropped_outside_the_state_lock() {
    use std::sync::atomic::Ordering::Relaxed;
    let _g = stats_gate();
    // Two retained versions: the third commit evicts the first, which
    // nothing else holds any more (the committing thread's own working
    // clone is of the second), so its unshared leaf is freed — values
    // and all — by the eviction itself.
    let opts = StoreOptions { history_limit: 2, ..StoreOptions::default() };
    let store = DROP_STORE.get_or_init(|| PacStore::in_memory_with(opts));
    store.commit((0..5_000u64).map(|k| Op::Put(k, ReadsOnDrop(k))).collect()).unwrap();
    store.put(2_500, ReadsOnDrop(0)).unwrap();

    // Under a watchdog: dropping the evicted version while holding the
    // state lock is a self-deadlock of the committing thread.
    let (done, watchdog) = std::sync::mpsc::channel();
    let committer = std::thread::spawn(move || {
        ARMED.store(true, Relaxed);
        let v = store.put(4_000, ReadsOnDrop(1));
        ARMED.store(false, Relaxed);
        let _ = done.send(v);
    });
    let committed = watchdog
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("commit deadlocked: a superseded version was dropped under the state lock");
    committer.join().expect("committing thread panicked");
    assert_eq!(committed.unwrap(), 3);
    assert!(READS.load(Relaxed) > 0, "no evicted value was dropped by the commit");
    assert_eq!(store.versions(), vec![2, 3]);
    assert_eq!(store.get(&4_000).map(|v| v.0), Some(1));
}
