//! Durability tests: save/open round trips, log replay, and the
//! corruption-detection satellite — a truncated or bit-flipped snapshot
//! must produce a typed error, never a panic or silent bad data.
//!
//! There is one store engine, so a case that does not care about the
//! handle runs once per shard count in [`SHARD_COUNTS`] — the one-shard
//! count is what a [`PacStore`] is — and the `PacStore` cases that poke
//! files by name look inside `shard-000/`.
//!
//! The second half is the crash-injection suite for the two-phase
//! commit: the manifest and each shard WAL are truncated at *every byte
//! boundary* of a prepared global commit, and after reopening the
//! commit must be all-or-nothing — visible in every shard or in none —
//! with torn tails cleanly truncated.

use std::path::{Path, PathBuf};

use store::{
    incr_file_name, shard_dir_name, Op, PacStore, Router, ShardedStore, StoreError, StoreOptions,
    LOG_FILE, MANIFEST_FILE, PARTITION_FILE, SNAPSHOT_FILE,
};

/// A fresh, empty scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pacstore-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Options pinning the *eager* read policy, immune to the
/// `PAC_POOL_PAGES` environment override — for tests that damage a leaf
/// record of [`SNAPSHOT_FILE`] and expect the error at `open`, where a
/// lazy open would meet it at the record's first load.
fn eager() -> StoreOptions {
    StoreOptions { pool_pages: None, ..StoreOptions::default() }
}

/// The shard counts the handle-agnostic cases run at: the `PacStore`
/// case and a genuinely sharded one.
const SHARD_COUNTS: [usize; 2] = [1, 3];

/// Opens (or creates) a store of `shards` shards over keys `0..3_000`.
fn sharded_open(dir: &Path, shards: usize) -> ShardedStore<u64, u64> {
    ShardedStore::open_or_create(dir, Router::uniform_span(shards, 3_000), StoreOptions::default())
        .expect("open sharded")
}

/// The only shard's directory of a `PacStore` at `dir`.
fn shard0(dir: &Path) -> PathBuf {
    dir.join(shard_dir_name(0))
}

#[test]
fn save_and_reopen_serves_same_data() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("save-reopen-{shards}"));
        {
            let store = sharded_open(&dir, shards);
            store
                .commit((0..3_000u64).map(|k| Op::Put(k, k * 7)).collect())
                .unwrap();
            store.commit(vec![Op::Delete(17), Op::Put(9_999, 1)]).unwrap();
            assert_eq!(store.save().unwrap(), 2);
            // Post-save commits live only in the shard WALs + manifest.
            store.commit(vec![Op::Put(5, 500), Op::Put(2_500, 1)]).unwrap();
        }
        // Every shard subdirectory holds its own snapshot page.
        for i in 0..shards {
            assert!(dir.join(shard_dir_name(i)).join(SNAPSHOT_FILE).exists(), "shard {i}");
        }
        let store = sharded_open(&dir, shards);
        assert_eq!(store.current_version(), 3);
        assert_eq!(store.len(), 3_000);
        assert_eq!(store.get(&17), None);
        assert_eq!(store.get(&9_999), Some(1));
        assert_eq!(store.get(&5), Some(500));
        assert_eq!(store.get(&2_500), Some(1));
        assert_eq!(store.get(&1_000), Some(7_000));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn log_replay_recovers_unsaved_commits() {
    let dir = scratch("log-replay");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit((0..100u64).map(|k| Op::Put(k, k)).collect()).unwrap();
        store.save().unwrap();
        // These two commits live only in the log.
        store.commit(vec![Op::Put(200, 200), Op::Delete(0)]).unwrap();
        store.commit(vec![Op::Put(201, 201)]).unwrap();
        // No save: drop the handle with the log dirty.
    }
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    assert_eq!(store.current_version(), 3);
    assert_eq!(store.get(&200), Some(200));
    assert_eq!(store.get(&201), Some(201));
    assert_eq!(store.get(&0), None);
    assert_eq!(store.get(&99), Some(99));
    // Replayed versions are reachable for time travel.
    assert_eq!(store.versions(), vec![1, 2, 3]);
    assert_eq!(store.snapshot_at(2).unwrap().get(&201), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let dir = scratch("truncate-snap");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit((0..2_000u64).map(|k| Op::Put(k, k)).collect()).unwrap();
        store.save().unwrap();
    }
    let path = shard0(&dir).join(SNAPSHOT_FILE);
    let full = std::fs::read(&path).unwrap();
    // Truncate at a spread of byte positions, including header-only.
    // The leaf records must tile the file exactly, so a cut is caught
    // at `open` under either read policy.
    for cut in [0, 1, 7, 8, 9, 12, 16, 20, full.len() / 2, full.len() - 5, full.len() - 1] {
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch { .. } | StoreError::Truncated(_) | StoreError::BadMagic
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_snapshot_is_a_checksum_error() {
    let dir = scratch("bitflip-snap");
    {
        let store: PacStore<u64, u64> = PacStore::open_with(&dir, eager()).unwrap();
        store.commit((0..2_000u64).map(|k| Op::Put(k, k)).collect()).unwrap();
        store.save().unwrap();
    }
    let path = shard0(&dir).join(SNAPSHOT_FILE);
    let full = std::fs::read(&path).unwrap();
    // In the metadata (codec id, schema) and in the first, a middle and
    // the last leaf record.
    for byte in [16, 20, full.len() / 2, full.len() - 2] {
        let mut flipped = full.clone();
        flipped[byte] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = PacStore::<u64, u64>::open_with(&dir, eager()).unwrap_err();
        assert!(
            matches!(err, StoreError::ChecksumMismatch { .. }),
            "flip at {byte}: unexpected error {err}"
        );
    }
    // Flipping the magic itself reports BadMagic (checked first).
    let mut flipped = full.clone();
    flipped[0] ^= 0xff;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        PacStore::<u64, u64>::open_with(&dir, eager()).unwrap_err(),
        StoreError::BadMagic
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_log_tail_is_truncated_by_default_and_fatal_in_strict_mode() {
    let dir = scratch("torn-log");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit(vec![Op::Put(1, 1)]).unwrap();
        store.commit(vec![Op::Put(2, 2)]).unwrap();
    }
    // Simulate a torn write: garbage appended after the last record.
    let log_path = shard0(&dir).join(LOG_FILE);
    let mut bytes = std::fs::read(&log_path).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0x55; 13]);
    std::fs::write(&log_path, &bytes).unwrap();

    // Strict mode refuses.
    let strict = StoreOptions {
        strict_log: true,
        ..StoreOptions::default()
    };
    assert!(matches!(
        PacStore::<u64, u64>::open_with(&dir, strict).unwrap_err(),
        StoreError::Corrupt(_)
    ));

    // Default mode recovers the valid prefix and truncates the tail.
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    assert_eq!(store.current_version(), 2);
    assert_eq!(store.get(&1), Some(1));
    assert_eq!(store.get(&2), Some(2));
    drop(store);
    assert_eq!(std::fs::read(&log_path).unwrap().len(), clean_len);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_handle_on_same_directory_is_locked_out() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("dir-lock-{shards}"));
        let store = sharded_open(&dir, shards);
        store.commit(vec![Op::Put(1, 1)]).unwrap();
        // A second live handle would interleave versions in the shared
        // logs — whichever handle type asks.
        assert!(matches!(ShardedStore::<u64, u64>::open(&dir), Err(StoreError::Locked)));
        assert!(matches!(PacStore::<u64, u64>::open(&dir), Err(StoreError::Locked)));
        // Cloned handles share the lock; dropping the last one releases it.
        let clone = store.clone();
        drop(store);
        assert!(matches!(ShardedStore::<u64, u64>::open(&dir), Err(StoreError::Locked)));
        drop(clone);
        let reopened: ShardedStore<u64, u64> = ShardedStore::open(&dir).unwrap();
        assert_eq!(reopened.get(&1), Some(1));
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn reopening_with_different_types_is_a_typed_error() {
    // Saved snapshot: schema check in the page header.
    let dir = scratch("schema-snap");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit(vec![Op::Put(1, 300)]).unwrap();
        store.save().unwrap();
    }
    assert!(matches!(
        PacStore::<u64, String>::open(&dir).unwrap_err(),
        StoreError::SchemaMismatch { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();

    // Log-only store: schema check in each WAL record.
    let dir = scratch("schema-log");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit(vec![Op::Put(1, 300)]).unwrap();
    }
    assert!(matches!(
        PacStore::<u64, String>::open(&dir).unwrap_err(),
        StoreError::SchemaMismatch { .. }
    ));
    // The right types still open it fine.
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    assert_eq!(store.get(&1), Some(300));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn save_resets_log_and_later_commits_append_cleanly() {
    let dir = scratch("save-resets-log");
    let log_path = shard0(&dir).join(LOG_FILE);
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        for i in 0..10u64 {
            store.commit(vec![Op::Put(i, i)]).unwrap();
        }
        store.save().unwrap();
        assert_eq!(std::fs::metadata(&log_path).unwrap().len(), 0);
        store.commit(vec![Op::Put(100, 100)]).unwrap();
        assert!(std::fs::metadata(&log_path).unwrap().len() > 0);
    }
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    assert_eq!(store.current_version(), 11);
    assert_eq!(store.len(), 11);
    assert_eq!(store.get(&100), Some(100));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resurrected_incrementals_after_a_full_save_are_ignored_and_recleaned() {
    // A full save removes the incremental chain it supersedes and
    // fsyncs the directory, but an unclean shutdown elsewhere in the
    // stack can still resurrect the files (e.g. a snapshot of the
    // directory taken between remove and fsync). Inject exactly that
    // crash: copy the chain back after the save and assert recovery
    // (a) serves the post-save state, never the stale chain, and
    // (b) the next save cleans the resurrected files up again.
    let dir = scratch("resurrected-incrs");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit((0..1_000u64).map(|k| Op::Put(k, 1)).collect()).unwrap();
        store.save().unwrap(); // full page @1
        store.commit(vec![Op::Put(5_000, 5)]).unwrap();
        store.compact().unwrap(); // incremental page @2
    }
    let incr = shard0(&dir).join(incr_file_name(2));
    assert!(incr.exists(), "fixture should have produced an incremental");
    let incr_bytes = std::fs::read(&incr).unwrap();
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit(vec![Op::Put(5_000, 7), Op::Delete(3)]).unwrap();
        store.save().unwrap(); // full page @3 supersedes the chain
        assert!(!incr.exists(), "save must remove the superseded chain");
    }
    std::fs::write(&incr, &incr_bytes).unwrap();
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        assert_eq!(store.current_version(), 3);
        assert_eq!(store.get(&5_000), Some(7), "stale incremental value served");
        assert_eq!(store.get(&3), None, "deleted key resurrected");
        store.commit(vec![Op::Put(6_000, 6)]).unwrap();
        store.save().unwrap();
        assert!(!incr.exists(), "next save must re-clean the stale chain");
    }
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    assert_eq!(store.get(&6_000), Some(6));
    assert_eq!(store.get(&5_000), Some(7));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn renamed_incremental_link_is_corrupt_not_applied_under_the_wrong_version() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("renamed-link-{shards}"));
        {
            let store = sharded_open(&dir, shards);
            let all_shards = |v: u64| vec![Op::Put(1, v), Op::Put(1_001, v), Op::Put(2_001, v)];
            store.commit(all_shards(1)).unwrap();
            store.save().unwrap(); // full page @1
            store.commit(all_shards(2)).unwrap();
            store.compact().unwrap(); // link @2, the last page of the chain
        }
        // The link keeps its bytes (and so its base, version 1) but
        // claims version 3 by name: the chain would reach a version
        // that was never checkpointed.
        let sdir = dir.join(shard_dir_name(shards - 1));
        std::fs::rename(sdir.join(incr_file_name(2)), sdir.join(incr_file_name(3))).unwrap();
        let err = ShardedStore::<u64, u64>::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{shards} shards: unexpected error {err}");
        assert!(err.to_string().contains(&incr_file_name(3)), "{err}");
        // Put back, the chain reads as before.
        std::fs::rename(sdir.join(incr_file_name(3)), sdir.join(incr_file_name(2))).unwrap();
        assert_eq!(sharded_open(&dir, shards).get(&2_001), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------
// Which handle opens which directory
// ---------------------------------------------------------------------

#[test]
fn sharded_open_requires_matching_partition_map() {
    let dir = scratch("shard-partition-check");
    {
        let store = sharded_open(&dir, 3);
        store.commit(vec![Op::Put(1, 1)]).unwrap();
    }
    // Plain open recovers the persisted routing.
    let store: ShardedStore<u64, u64> = ShardedStore::open(&dir).unwrap();
    assert_eq!(store.shard_count(), 3);
    assert_eq!(store.get(&1), Some(1));
    drop(store);
    // A different router is rejected, not silently adopted.
    assert!(matches!(
        ShardedStore::<u64, u64>::open_or_create(
            &dir,
            Router::uniform_span(5, 3_000),
            StoreOptions::default()
        ),
        Err(StoreError::PartitionMismatch(_))
    ));
    // Opening a directory with no partition map is typed too.
    let empty = scratch("shard-no-partition");
    assert!(matches!(
        ShardedStore::<u64, u64>::open(&empty),
        Err(StoreError::PartitionMismatch(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pacstore_open_on_a_multi_shard_directory_is_a_partition_mismatch() {
    let dir = scratch("pac-on-sharded");
    {
        let store = sharded_open(&dir, 3);
        store.commit(vec![Op::Put(1, 1), Op::Put(2_500, 2)]).unwrap();
    }
    // A PacStore is the one-shard store: pointing it at three shards
    // must not open shard 0 alone (and then commit every key into it).
    assert!(matches!(
        PacStore::<u64, u64>::open(&dir),
        Err(StoreError::PartitionMismatch(_))
    ));
    // The refusal wrote nothing: the sharded handle still sees it all.
    let store: ShardedStore<u64, u64> = ShardedStore::open(&dir).unwrap();
    assert_eq!(store.current_version(), 1);
    assert_eq!(store.get(&2_500), Some(2));
    drop(store);

    // The other way round is fine — a PacStore directory *is* a
    // one-shard sharded directory.
    let single = scratch("sharded-on-pac");
    {
        let store: PacStore<u64, u64> = PacStore::open(&single).unwrap();
        store.commit(vec![Op::Put(7, 7)]).unwrap();
    }
    let store: ShardedStore<u64, u64> = ShardedStore::open(&single).unwrap();
    assert_eq!(store.shard_count(), 1);
    assert_eq!(store.get(&7), Some(7));
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&single).unwrap();
}

#[test]
fn legacy_flat_layout_fails_open_typed_and_is_left_untouched() {
    // Before PacStore became the one-shard case of the sharded engine
    // it kept its pages and log at the directory root. Such a directory
    // has no partition map; opening it as a fresh store would serve an
    // empty map and the next save would strand the old data for good.
    // Build one by flattening a real store's shard directory.
    let dir = scratch("legacy-flat");
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        store.commit((0..100u64).map(|k| Op::Put(k, k)).collect()).unwrap();
        store.save().unwrap();
        store.commit(vec![Op::Put(100, 100)]).unwrap();
        store.compact().unwrap(); // an incremental page
        store.commit(vec![Op::Put(101, 101)]).unwrap(); // a log record
    }
    let flat = |name: &str| {
        std::fs::rename(shard0(&dir).join(name), dir.join(name)).unwrap();
    };
    flat(SNAPSHOT_FILE);
    flat(LOG_FILE);
    flat(&incr_file_name(2));
    std::fs::remove_dir_all(shard0(&dir)).unwrap();
    std::fs::remove_file(dir.join(PARTITION_FILE)).unwrap();
    std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

    // Each kind of root file alone is enough to refuse a directory.
    for survivor in [SNAPSHOT_FILE.to_string(), LOG_FILE.to_string(), incr_file_name(2)] {
        let lone = scratch(&format!("legacy-flat-{survivor}"));
        std::fs::create_dir_all(&lone).unwrap();
        std::fs::copy(dir.join(&survivor), lone.join(&survivor)).unwrap();
        let err = PacStore::<u64, u64>::open(&lone).unwrap_err();
        assert!(matches!(err, StoreError::LegacyLayout(_)), "{survivor}: unexpected error {err}");
        let err = ShardedStore::<u64, u64>::open_or_create(
            &lone,
            Router::uniform_span(3, 3_000),
            StoreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::LegacyLayout(_)), "{survivor}: unexpected error {err}");
        std::fs::remove_dir_all(&lone).unwrap();
    }
    // The message names what it found, and nothing was created.
    let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(err.to_string().contains(SNAPSHOT_FILE), "{err}");
    assert!(!dir.join(PARTITION_FILE).exists());
    assert!(!dir.join(MANIFEST_FILE).exists());
    assert!(!shard0(&dir).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store directory with one full page and one link, for the tests
/// that plant an earlier build's files in it. Returns shard 0's
/// directory.
fn old_format_fixture(dir: &Path) -> PathBuf {
    let store: PacStore<u64, u64> = PacStore::open(dir).unwrap();
    store.commit(vec![Op::Put(1, 1)]).unwrap();
    store.save().unwrap();
    store.commit(vec![Op::Put(2, 2)]).unwrap();
    store.compact().unwrap();
    shard0(dir)
}

/// The fixed-width prefix every earlier page format started with:
/// magic, codec id 0 (raw), four schema bytes, then varints.
fn old_header(magic: &[u8; 8]) -> Vec<u8> {
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(b"\x00\xde\xad\xbe\xef\x80\x01\x01\x01\x00");
    bytes
}

#[test]
fn old_full_snapshot_magic_fails_open_typed() {
    let dir = scratch("old-magic-snp");
    let sdir = old_format_fixture(&dir);
    std::fs::write(sdir.join(SNAPSHOT_FILE), old_header(b"PACSNP02")).unwrap();
    let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(matches!(err, StoreError::BadMagic), "unexpected error {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn old_incremental_magic_fails_open_typed() {
    let dir = scratch("old-magic-inc");
    let sdir = old_format_fixture(&dir);
    std::fs::write(sdir.join(incr_file_name(2)), old_header(b"PACINC01")).unwrap();
    let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(matches!(err, StoreError::BadMagic), "unexpected error {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn old_paged_snapshot_file_fails_open_typed_even_beside_new_pages() {
    // `snapshot.pgf` was what a pooled store wrote *instead of*
    // `snapshot.pac`. Alone in a shard directory it must not read as
    // "no pages yet" (an empty store); beside newer pages it is still
    // refused rather than guessed about.
    let dir = scratch("old-magic-pgf");
    let sdir = old_format_fixture(&dir);
    for beside_new_pages in [true, false] {
        if !beside_new_pages {
            std::fs::remove_file(sdir.join(SNAPSHOT_FILE)).unwrap();
            std::fs::remove_file(sdir.join(incr_file_name(2))).unwrap();
        }
        std::fs::write(sdir.join("snapshot.pgf"), old_header(b"PACPGF01")).unwrap();
        let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::LegacyLayout(_)), "unexpected error {err}");
        assert!(err.to_string().contains("snapshot.pgf"), "{err}");
    }
    // At the root of a directory with no partition map it marks a flat
    // legacy store like the other page names do.
    let flat = scratch("old-magic-pgf-flat");
    std::fs::create_dir_all(&flat).unwrap();
    std::fs::write(flat.join("snapshot.pgf"), old_header(b"PACPGF01")).unwrap();
    let err = PacStore::<u64, u64>::open(&flat).unwrap_err();
    assert!(matches!(err, StoreError::LegacyLayout(_)), "unexpected error {err}");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&flat).unwrap();
}

// ---------------------------------------------------------------------
// Crash injection: the cross-shard commit protocol
// ---------------------------------------------------------------------

/// All durable files of a sharded store directory, as bytes.
#[derive(Clone, PartialEq, Debug)]
struct FileImage {
    manifest: Vec<u8>,
    wals: Vec<Vec<u8>>,
}

fn capture(dir: &Path, shards: usize) -> FileImage {
    FileImage {
        manifest: std::fs::read(dir.join(MANIFEST_FILE)).unwrap_or_default(),
        wals: (0..shards)
            .map(|i| std::fs::read(dir.join(shard_dir_name(i)).join(LOG_FILE)).unwrap_or_default())
            .collect(),
    }
}

fn restore(dir: &Path, img: &FileImage) {
    std::fs::write(dir.join(MANIFEST_FILE), &img.manifest).unwrap();
    for (i, w) in img.wals.iter().enumerate() {
        std::fs::write(dir.join(shard_dir_name(i)).join(LOG_FILE), w).unwrap();
    }
}

/// The keys global commit 2 writes in the crash tests: one per shard of
/// the three-shard store (all in the only shard of the one-shard one).
const G2_KEYS: [u64; 3] = [10, 1_010, 2_010];

/// Builds a store with a baseline commit (g1) and a cross-shard commit
/// under test (g2), returning the file images before and after g2.
fn crash_fixture(dir: &Path, shards: usize) -> (FileImage, FileImage) {
    let store = sharded_open(dir, shards);
    store
        .commit(vec![Op::Put(0, 0), Op::Put(1_000, 0), Op::Put(2_000, 0)])
        .unwrap();
    let before = capture(dir, shards);
    store
        .commit(G2_KEYS.iter().map(|&k| Op::Put(k, 42)).collect())
        .unwrap();
    drop(store);
    let after = capture(dir, shards);
    (before, after)
}

/// Opens the store and asserts g2 is all-or-nothing; returns whether it
/// was visible. The baseline commit must always be intact.
fn check_atomic(dir: &Path, shards: usize, context: &str) -> bool {
    let store = sharded_open(dir, shards);
    for base in [0u64, 1_000, 2_000] {
        assert_eq!(store.get(&base), Some(0), "{context}: baseline key {base} lost");
    }
    let seen: Vec<bool> = G2_KEYS.iter().map(|k| store.get(k) == Some(42)).collect();
    assert!(
        seen.iter().all(|&s| s) || seen.iter().all(|&s| !s),
        "{context}: global commit partially visible: {seen:?}"
    );
    seen[0]
}

#[test]
fn torn_manifest_record_never_splits_a_prepared_commit() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("crash-manifest-{shards}"));
        let (before, after) = crash_fixture(&dir, shards);
        assert!(after.manifest.len() > before.manifest.len());

        // Truncate the manifest at every byte boundary of g2's record. The
        // shard WALs hold the full prepare set, so recovery must roll g2
        // forward in every shard (all) — never in some (torn manifest
        // tails are truncated, then healed from the prepared WALs).
        for cut in before.manifest.len()..=after.manifest.len() {
            restore(&dir, &after);
            std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(MANIFEST_FILE))
                .unwrap()
                .set_len(cut as u64)
                .unwrap();
            let visible = check_atomic(&dir, shards, &format!("manifest cut {cut}"));
            assert!(visible, "manifest cut {cut}: fully prepared commit must roll forward");
            // Recovery healed the manifest: a second reopen is clean and
            // idempotent.
            let healed = capture(&dir, shards);
            let visible = check_atomic(&dir, shards, &format!("manifest cut {cut} (reopen)"));
            assert!(visible);
            assert_eq!(healed, capture(&dir, shards), "manifest cut {cut}: reopen not idempotent");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn torn_shard_wal_drops_the_commit_from_every_shard() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("crash-wal-{shards}"));
        let (before, after) = crash_fixture(&dir, shards);

        // Crash during prepare: the manifest record was never written and
        // shard `s`'s prepare record is torn at every byte boundary. The
        // other shards hold complete prepare records — recovery must drop
        // them too (all-or-nothing), truncating each WAL back to g1.
        for s in 0..shards {
            assert!(after.wals[s].len() > before.wals[s].len(), "shard {s} gained a record");
            for cut in before.wals[s].len()..after.wals[s].len() {
                restore(&dir, &after);
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(dir.join(MANIFEST_FILE))
                    .unwrap()
                    .set_len(before.manifest.len() as u64)
                    .unwrap();
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(dir.join(shard_dir_name(s)).join(LOG_FILE))
                    .unwrap()
                    .set_len(cut as u64)
                    .unwrap();
                let visible = check_atomic(&dir, shards, &format!("shard {s} cut {cut}"));
                assert!(!visible, "shard {s} cut {cut}: partial prepare must be dropped");
                // Clean recovery: every WAL truncated back to the g1
                // boundary, and a reopen is idempotent.
                let recovered = capture(&dir, shards);
                for (i, w) in recovered.wals.iter().enumerate() {
                    assert_eq!(w.len(), before.wals[i].len(), "shard {s} cut {cut}: wal {i} tail");
                }
                assert!(!check_atomic(&dir, shards, &format!("shard {s} cut {cut} (reopen)")));
                assert_eq!(recovered, capture(&dir, shards), "shard {s} cut {cut}: reopen not idempotent");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn torn_manifest_and_torn_wal_drop_the_commit_everywhere() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("crash-both-{shards}"));
        let (before, after) = crash_fixture(&dir, shards);

        // Crash mid-prepare with a torn manifest as well: sample a few cuts
        // of each (the full cross product is quadratic).
        let torn = shards - 1; // the last shard's WAL is the torn one
        let wal_cuts: Vec<usize> =
            (before.wals[torn].len()..after.wals[torn].len()).step_by(3).collect();
        let man_cuts: Vec<usize> = (before.manifest.len()..after.manifest.len()).step_by(3).collect();
        for &wc in &wal_cuts {
            for &mc in &man_cuts {
                restore(&dir, &after);
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(dir.join(MANIFEST_FILE))
                    .unwrap()
                    .set_len(mc as u64)
                    .unwrap();
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(dir.join(shard_dir_name(torn)).join(LOG_FILE))
                    .unwrap()
                    .set_len(wc as u64)
                    .unwrap();
                let visible = check_atomic(&dir, shards, &format!("wal cut {wc} manifest cut {mc}"));
                assert!(!visible, "wal cut {wc} manifest cut {mc}: must drop");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn strict_mode_refuses_torn_sharded_state() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("crash-strict-{shards}"));
        let (before, after) = crash_fixture(&dir, shards);

        // Torn shard WAL tail (partial prepare): strict open refuses.
        restore(&dir, &after);
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(MANIFEST_FILE))
            .unwrap()
            .set_len(before.manifest.len() as u64)
            .unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(shard_dir_name(0)).join(LOG_FILE))
            .unwrap()
            .set_len((after.wals[0].len() - 1) as u64)
            .unwrap();
        let strict = StoreOptions { strict_log: true, ..StoreOptions::default() };
        assert!(matches!(
            ShardedStore::<u64, u64>::open_with(&dir, strict.clone()),
            Err(StoreError::Corrupt(_))
        ));

        // Torn manifest tail: strict open refuses too.
        restore(&dir, &after);
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(MANIFEST_FILE))
            .unwrap()
            .set_len((after.manifest.len() - 1) as u64)
            .unwrap();
        assert!(matches!(
            ShardedStore::<u64, u64>::open_with(&dir, strict),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------
// Crash injection: the compaction cycle (checkpoint-then-truncate)
// ---------------------------------------------------------------------

/// The keys the post-compaction commit writes: one per shard of the
/// three-shard store.
const POST_COMPACT_KEYS: [u64; 3] = [20, 1_020, 2_020];

/// Builds a store that has been through a full lifecycle — a saved full
/// page, a commit, a `compact()` (incremental pages + checkpoint
/// manifest + truncated WALs), and one more cross-shard commit.
/// Returns the file images right after the compact and after the final
/// commit.
fn compact_fixture(dir: &Path, shards: usize) -> (FileImage, FileImage) {
    let store = sharded_open(dir, shards);
    store
        .commit(vec![Op::Put(0, 0), Op::Put(1_000, 0), Op::Put(2_000, 0)])
        .unwrap();
    store.save().unwrap();
    store
        .commit(vec![Op::Put(1, 7), Op::Put(1_001, 7), Op::Put(2_001, 7)])
        .unwrap();
    assert_eq!(store.compact().unwrap(), 2);
    // The compact went incremental (a checkpoint pin existed) and
    // truncated every WAL.
    let stats = store.lifecycle_stats();
    assert_eq!(stats.compactions, 1);
    assert_eq!(stats.incremental_saves, shards as u64);
    let at_compact = capture(dir, shards);
    for (i, w) in at_compact.wals.iter().enumerate() {
        assert!(w.is_empty(), "shard {i}: WAL not truncated by compact");
    }
    assert!(!at_compact.manifest.is_empty(), "checkpoint record missing");
    store
        .commit(POST_COMPACT_KEYS.iter().map(|&k| Op::Put(k, 42)).collect())
        .unwrap();
    drop(store);
    (at_compact, capture(dir, shards))
}

/// Opens the store, asserts every pre-compaction key is intact and the
/// post-compaction commit is all-or-nothing; returns its visibility.
fn check_compact_atomic(dir: &Path, shards: usize, context: &str) -> bool {
    let store = sharded_open(dir, shards);
    for base in [0u64, 1_000, 2_000] {
        assert_eq!(store.get(&base), Some(0), "{context}: checkpointed key {base} lost");
    }
    for inc in [1u64, 1_001, 2_001] {
        assert_eq!(store.get(&inc), Some(7), "{context}: incremental key {inc} lost");
    }
    let seen: Vec<bool> =
        POST_COMPACT_KEYS.iter().map(|k| store.get(k) == Some(42)).collect();
    assert!(
        seen.iter().all(|&s| s) || seen.iter().all(|&s| !s),
        "{context}: post-compaction commit partially visible: {seen:?}"
    );
    seen[0]
}

#[test]
fn compaction_survives_manifest_truncation_at_every_byte() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("compact-crash-manifest-{shards}"));
        let (_, after) = compact_fixture(&dir, shards);

        // Truncate the manifest at every byte boundary — through the
        // post-compaction record, the checkpoint record, down to nothing.
        // The pages cover the checkpoint and the WALs hold the full prepare
        // set for the last commit, so recovery must always land on the
        // latest version, healing the manifest as needed.
        for cut in 0..=after.manifest.len() {
            restore(&dir, &after);
            std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(MANIFEST_FILE))
                .unwrap()
                .set_len(cut as u64)
                .unwrap();
            let visible = check_compact_atomic(&dir, shards, &format!("manifest cut {cut}"));
            assert!(visible, "manifest cut {cut}: prepared commit must roll forward");
            let healed = capture(&dir, shards);
            assert!(check_compact_atomic(&dir, shards, &format!("manifest cut {cut} (reopen)")));
            assert_eq!(healed, capture(&dir, shards), "manifest cut {cut}: reopen not idempotent");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn compaction_survives_shard_wal_truncation_at_every_byte() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("compact-crash-wal-{shards}"));
        let (at_compact, after) = compact_fixture(&dir, shards);

        // Crash during the post-compaction prepare: the manifest never got
        // the record and shard `s`'s WAL is torn at every byte boundary.
        // Recovery must drop the commit from every shard and land exactly
        // on the checkpointed version.
        for s in 0..shards {
            for cut in 0..after.wals[s].len() {
                restore(&dir, &after);
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(dir.join(MANIFEST_FILE))
                    .unwrap()
                    .set_len(at_compact.manifest.len() as u64)
                    .unwrap();
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(dir.join(shard_dir_name(s)).join(LOG_FILE))
                    .unwrap()
                    .set_len(cut as u64)
                    .unwrap();
                let visible = check_compact_atomic(&dir, shards, &format!("shard {s} cut {cut}"));
                assert!(!visible, "shard {s} cut {cut}: partial prepare must be dropped");
                let recovered = capture(&dir, shards);
                assert!(!check_compact_atomic(&dir, shards, &format!("shard {s} cut {cut} (reopen)")));
                assert_eq!(recovered, capture(&dir, shards), "shard {s} cut {cut}: reopen not idempotent");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn truncated_checkpoint_pages_are_typed_errors() {
    for shards in SHARD_COUNTS {
        // The page files are written atomically (temp + fsync + rename), so
        // a crash never tears them — but disk corruption can. Every byte
        // truncation of an incremental page and a spread of cuts of the
        // full page must surface as a typed error, never a panic or a
        // silently shortened history.
        let dir = scratch(&format!("compact-torn-pages-{shards}"));
        compact_fixture(&dir, shards);

        let sdir = dir.join(shard_dir_name(0));
        let incr_path = {
            let mut found: Vec<PathBuf> = std::fs::read_dir(&sdir)
                .unwrap()
                .filter_map(|e| {
                    let p = e.unwrap().path();
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name.starts_with("incr-") && name.ends_with(".pac")).then_some(p)
                })
                .collect();
            assert_eq!(found.len(), 1, "expected exactly one incremental page");
            found.pop().unwrap()
        };
        let incr_full = std::fs::read(&incr_path).unwrap();
        for cut in 0..incr_full.len() {
            std::fs::write(&incr_path, &incr_full[..cut]).unwrap();
            let err = ShardedStore::<u64, u64>::open(&dir).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::ChecksumMismatch { .. }
                        | StoreError::Truncated(_)
                        | StoreError::BadMagic
                        | StoreError::Corrupt(_)
                ),
                "incr cut {cut}: unexpected error {err}"
            );
        }
        std::fs::write(&incr_path, &incr_full).unwrap();

        let snap_path = sdir.join(SNAPSHOT_FILE);
        let snap_full = std::fs::read(&snap_path).unwrap();
        for cut in [0, 1, 8, 9, 13, snap_full.len() / 2, snap_full.len() - 1] {
            std::fs::write(&snap_path, &snap_full[..cut]).unwrap();
            let err = ShardedStore::<u64, u64>::open(&dir).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::ChecksumMismatch { .. }
                        | StoreError::Truncated(_)
                        | StoreError::BadMagic
                        | StoreError::Corrupt(_)
                ),
                "snapshot cut {cut}: unexpected error {err}"
            );
        }
        std::fs::write(&snap_path, &snap_full).unwrap();

        // Restored intact, everything reads back.
        assert!(check_compact_atomic(&dir, shards, "restored"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn crash_between_page_writes_and_wal_truncation_during_compact_is_safe() {
    for shards in SHARD_COUNTS {
        // compact() writes the incremental pages first, truncates the WALs
        // second, and swaps the manifest last. Simulate a crash after the
        // pages landed but before any truncation: covered WAL records and
        // manifest records coexist with pages that already reach them.
        let dir = scratch(&format!("compact-crash-window-{shards}"));
        {
            let store = sharded_open(&dir, shards);
            store
                .commit(vec![Op::Put(0, 0), Op::Put(1_000, 0), Op::Put(2_000, 0)])
                .unwrap();
            store.save().unwrap();
            store
                .commit(vec![Op::Put(1, 7), Op::Put(1_001, 7), Op::Put(2_001, 7)])
                .unwrap();
            let pre_compact = capture(&dir, shards);
            store.compact().unwrap();
            drop(store);
            // Put the logs back as if the truncation never happened; the
            // incremental pages stay.
            restore(&dir, &pre_compact);
        }
        for round in 0..2 {
            let store = sharded_open(&dir, shards);
            assert_eq!(store.current_version(), 2, "round {round}: global clock moved");
            for (k, v) in [(0u64, 0u64), (1_000, 0), (2_000, 0), (1, 7), (1_001, 7), (2_001, 7)] {
                assert_eq!(store.get(&k), Some(v), "round {round}: key {k}");
            }
            // The store keeps committing and compacting cleanly.
            if round == 1 {
                store.commit(vec![Op::Put(5, 5)]).unwrap();
                store.compact().unwrap();
            }
            drop(store);
        }
        let store = sharded_open(&dir, shards);
        assert_eq!(store.get(&5), Some(5));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn checkpoints_racing_commits_keep_every_acknowledged_commit() {
    // A checkpoint writes its pages with commits still flowing, then
    // trims the logs down to the records of the commits that landed
    // meanwhile. A writer commits for as long as back-to-back
    // checkpoints of all three kinds run beside it: whatever
    // interleaving happens, a reopen must see every acknowledged
    // commit — none trimmed away with the covered prefix, none replayed
    // twice.
    use std::sync::atomic::{AtomicBool, Ordering};
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("checkpoint-race-{shards}"));
        let commits = {
            let store = sharded_open(&dir, shards);
            // Enough data that a page write spans many small commits.
            store.commit((0..3_000u64).map(|k| Op::Put(k, 0)).collect()).unwrap();
            let checkpoints_done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let mut i = 0u64;
                    while !checkpoints_done.load(Ordering::SeqCst) {
                        i += 1;
                        let v = store.commit(vec![Op::Put(i % 3_000, i), Op::Put(10_000 + i, i)]);
                        assert_eq!(v.unwrap(), i + 1);
                    }
                    i
                });
                for round in 0..9 {
                    match round % 3 {
                        0 => store.save(),
                        1 => store.compact(),
                        _ => store.save_incremental(store.latest_checkpoint().unwrap()),
                    }
                    .unwrap();
                }
                checkpoints_done.store(true, Ordering::SeqCst);
                writer.join().unwrap()
            })
        };
        for reopen in 0..2 {
            let store = sharded_open(&dir, shards);
            assert_eq!(store.current_version(), commits + 1, "reopen {reopen}");
            for i in 1..=commits {
                assert_eq!(store.get(&(10_000 + i)), Some(i), "reopen {reopen}: commit {i} lost");
            }
            assert_eq!(store.len(), 3_000 + commits as usize, "reopen {reopen}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn empty_commits_survive_restart_without_regressing_the_global_clock() {
    for shards in SHARD_COUNTS {
        // An empty commit produces a manifest record with no participants
        // and no WAL records; recovery must still roll the global clock
        // forward, or the next commit would reuse an acknowledged id and a
        // later reopen would discard it as a duplicate.
        let dir = scratch(&format!("empty-commit-{shards}"));
        {
            let store = sharded_open(&dir, shards);
            assert_eq!(store.commit(vec![Op::Put(1, 1)]).unwrap(), 1);
            assert_eq!(store.commit(Vec::new()).unwrap(), 2);
        }
        {
            let store = sharded_open(&dir, shards);
            assert_eq!(store.current_version(), 2, "empty commit lost on reopen");
            // The next commit gets a fresh id and survives another restart.
            assert_eq!(store.commit(vec![Op::Put(2, 2)]).unwrap(), 3);
        }
        let store = sharded_open(&dir, shards);
        assert_eq!(store.current_version(), 3);
        assert_eq!(store.get(&1), Some(1));
        assert_eq!(store.get(&2), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn crash_between_checkpoint_and_wal_truncation_keeps_the_checkpoint() {
    for shards in SHARD_COUNTS {
        // A checkpoint writes the shard pages, truncates the WALs in
        // place, then swaps the manifest (atomic and fsynced). The
        // truncations are not synced, so a machine crash can persist the
        // new manifest without them: covered WAL records sit alongside
        // a participant-less checkpoint for the same global id —
        // recovery must treat both as applied, not tear the checkpoint
        // out of the manifest.
        let dir = scratch(&format!("save-crash-window-{shards}"));
        {
            let store = sharded_open(&dir, shards);
            store.commit(vec![Op::Put(1, 1)]).unwrap(); // shard 0 only
            store.commit(vec![Op::Put(2_500, 2)]).unwrap(); // shard 2 only
            let wals_before_save = capture(&dir, shards).wals;
            assert_eq!(store.save().unwrap(), 2);
            let manifest_after_save = capture(&dir, shards).manifest;
            drop(store);
            // Simulate the crash: WALs back to their pre-save contents,
            // checkpoint already on disk.
            restore(
                &dir,
                &FileImage { manifest: manifest_after_save, wals: wals_before_save },
            );
        }
        for round in 0..2 {
            let store = sharded_open(&dir, shards);
            assert_eq!(store.current_version(), 2, "round {round}: global clock regressed");
            assert_eq!(store.get(&1), Some(1), "round {round}");
            assert_eq!(store.get(&2_500), Some(2), "round {round}");
            drop(store);
            assert!(
                !capture(&dir, shards).manifest.is_empty(),
                "round {round}: checkpoint torn out of the manifest"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn stale_wal_records_below_a_checkpoint_are_not_mistaken_for_partial_prepares() {
    // g1 touches shards {0, 1}, g2 touches shard 2, then save(). A
    // crash mid-save can leave one shard's WAL un-truncated while the
    // others are already empty; the stale records sit *below* the
    // checkpoint. Recovery must not judge g1 "partially prepared"
    // (shard 0's record is gone) and cut the checkpoint out of the
    // manifest — the snapshot pages already hold everything.
    let dir = scratch("stale-below-checkpoint");
    let shards = 3; // the scenario needs commits with disjoint participant sets
    {
        let store = sharded_open(&dir, shards);
        store.commit(vec![Op::Put(1, 1), Op::Put(1_001, 1)]).unwrap(); // shards 0, 1
        store.commit(vec![Op::Put(2_001, 2)]).unwrap(); // shard 2
        let wals_before_save = capture(&dir, shards).wals;
        assert_eq!(store.save().unwrap(), 2);
        drop(store);
        // Crash simulation: shard 1's WAL truncation never happened.
        std::fs::write(dir.join(shard_dir_name(1)).join(LOG_FILE), &wals_before_save[1])
            .unwrap();
    }
    for round in 0..2 {
        let store = sharded_open(&dir, shards);
        assert_eq!(store.current_version(), 2, "round {round}: global clock regressed");
        assert_eq!(store.get(&1), Some(1), "round {round}");
        assert_eq!(store.get(&1_001), Some(1), "round {round}");
        assert_eq!(store.get(&2_001), Some(2), "round {round}");
        drop(store);
        assert!(
            !capture(&dir, shards).manifest.is_empty(),
            "round {round}: checkpoint cut out of the manifest"
        );
    }
    // The store keeps working and numbering correctly afterwards.
    let store = sharded_open(&dir, shards);
    assert_eq!(store.commit(vec![Op::Put(5, 5)]).unwrap(), 3);
    drop(store);
    let store = sharded_open(&dir, shards);
    assert_eq!(store.current_version(), 3);
    assert_eq!(store.get(&5), Some(5));
    std::fs::remove_dir_all(&dir).unwrap();
}
