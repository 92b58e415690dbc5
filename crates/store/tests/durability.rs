//! Durability tests: save/open round trips, log replay, and the
//! corruption-detection satellite — a truncated or bit-flipped snapshot
//! must produce a typed error, never a panic or silent bad data.
//!
//! There is one store engine, so a case that does not care about the
//! handle runs once per shard count in [`SHARD_COUNTS`] — the one-shard
//! count is what a [`PacStore`] is — and the `PacStore` cases that poke
//! files by name look inside `shard-000/`.
//!
//! The second half is the crash-injection suite for the one log: it is
//! cut at *every byte boundary* of a cross-shard commit group and of a
//! compaction cycle, and after reopening the group must be
//! all-or-nothing — visible in every shard or in none — with torn tails
//! cleanly truncated.

use std::path::{Path, PathBuf};

use store::{
    incr_file_name, shard_dir_name, Op, PacStore, Router, ShardedStore, StoreError, StoreOptions,
    LOG_FILE, PARTITION_FILE, SNAPSHOT_FILE,
};

mod world;
use world::{dir_tree, scratch, shard0};

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
            // Post-save commits live only in the log.
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
    let log_path = dir.join(LOG_FILE);
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
}

#[test]
fn save_resets_log_and_later_commits_append_cleanly() {
    let dir = scratch("save-resets-log");
    let log_path = dir.join(LOG_FILE);
    // After a save the log is its head alone: one op-less record for
    // the only shard, at the saved version.
    let schema = store::checksum::schema_id::<(u64, u64)>();
    let head = store::wal::encode_record::<u64, u64>(10, 10, &[0], schema, &[]);
    {
        let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
        for i in 0..10u64 {
            store.commit(vec![Op::Put(i, i)]).unwrap();
        }
        store.save().unwrap();
        assert_eq!(std::fs::read(&log_path).unwrap(), head);
        store.commit(vec![Op::Put(100, 100)]).unwrap();
        assert!(std::fs::metadata(&log_path).unwrap().len() > head.len() as u64);
    }
    let store: PacStore<u64, u64> = PacStore::open(&dir).unwrap();
    assert_eq!(store.current_version(), 11);
    assert_eq!(store.len(), 11);
    assert_eq!(store.get(&100), Some(100));
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
}

#[test]
fn legacy_flat_layout_fails_open_typed_and_is_left_untouched() {
    // Before PacStore became the one-shard case of the sharded engine
    // it kept its pages and log at the directory root. Such a directory
    // has no partition map; opening it as a fresh store would serve an
    // empty map and the next save would strand the old data for good.
    // Build one by flattening a real store's shard directory (its log
    // is at the root already).
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
    flat(&incr_file_name(2));
    std::fs::remove_dir_all(shard0(&dir)).unwrap();
    std::fs::remove_file(dir.join(PARTITION_FILE)).unwrap();

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
    }
    // The message names what it found, and nothing was created.
    let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(err.to_string().contains(SNAPSHOT_FILE), "{err}");
    assert!(!dir.join(PARTITION_FILE).exists());
    assert!(!shard0(&dir).exists());
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
}

#[test]
fn old_incremental_magic_fails_open_typed() {
    let dir = scratch("old-magic-inc");
    let sdir = old_format_fixture(&dir);
    std::fs::write(sdir.join(incr_file_name(2)), old_header(b"PACINC01")).unwrap();
    let err = PacStore::<u64, u64>::open(&dir).unwrap_err();
    assert!(matches!(err, StoreError::BadMagic), "unexpected error {err}");
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
}

// ---------------------------------------------------------------------
// The log's layout
// ---------------------------------------------------------------------

/// The log's records as `(version, global, participants, op count)`.
fn log_records(dir: &Path) -> Vec<(u64, u64, Vec<u32>, usize)> {
    let bytes = log_bytes(dir);
    let replay = store::wal::replay::<u64, u64>(&bytes, store::checksum::schema_id::<(u64, u64)>());
    assert!(!replay.torn);
    replay
        .records
        .into_iter()
        .map(|r| (r.version, r.global, r.participants, r.ops.len()))
        .collect()
}

#[test]
fn the_log_is_one_group_per_commit_after_a_head_per_checkpoint() {
    let dir = scratch("log-layout");
    let store = sharded_open(&dir, 3);
    store.commit(vec![Op::Put(2_500, 1), Op::Put(1, 1), Op::Put(2, 1)]).unwrap(); // shards 2, 0
    store.commit(Vec::new()).unwrap();
    assert_eq!(
        log_records(&dir),
        vec![
            // One record per participant, in shard order, each with the
            // group's id and participant list and its shard's version.
            (1, 1, vec![0, 2], 2),
            (1, 1, vec![0, 2], 1),
            // An empty commit: one op-less record, no participants.
            (0, 2, vec![], 0),
        ]
    );
    store.save().unwrap();
    store.commit(vec![Op::Put(1_500, 3)]).unwrap();
    drop(store);
    assert_eq!(
        log_records(&dir),
        vec![
            // The head: one op-less record per shard at the checkpointed
            // versions, tagged with the checkpoint's global id.
            (1, 2, vec![0, 1, 2], 0),
            (0, 2, vec![0, 1, 2], 0),
            (1, 2, vec![0, 1, 2], 0),
            (1, 3, vec![1], 1),
        ]
    );
}

// ---------------------------------------------------------------------
// Crash injection: the one log, cut at every byte
// ---------------------------------------------------------------------

fn log_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(LOG_FILE)).unwrap_or_default()
}

/// Cuts the log to `full[..cut]` for every `cut` from `from` to the end
/// of `full` — where a crash `cut` bytes into the log leaves it — and
/// reopens. `bounds` are the cuts on a group boundary. After each cut:
/// `strict_log` refuses exactly the cuts between bounds; a default open
/// keeps the log up to the last bound, passes `check` (which returns
/// whether the last group is visible) and sees the last group iff the
/// cut is the whole log; and a second reopen leaves the directory
/// byte-identical.
fn cut_matrix(
    dir: &Path,
    shards: usize,
    full: &[u8],
    from: usize,
    bounds: &[usize],
    check: impl Fn(&ShardedStore<u64, u64>, &str) -> bool,
) {
    let strict = StoreOptions { strict_log: true, ..StoreOptions::default() };
    for cut in from..=full.len() {
        let context = format!("{shards} shards, cut {cut} of {}", full.len());
        std::fs::write(dir.join(LOG_FILE), &full[..cut]).unwrap();
        let clean = bounds.contains(&cut);
        match ShardedStore::<u64, u64>::open_with(dir, strict.clone()) {
            Ok(_) => assert!(clean, "{context}: strict open accepted a torn log"),
            Err(StoreError::Corrupt(_)) => assert!(!clean, "{context}: strict open refused a clean log"),
            Err(e) => panic!("{context}: unexpected error {e}"),
        }
        let store = sharded_open(dir, shards);
        assert_eq!(check(&store, &context), cut == full.len(), "{context}");
        drop(store);
        let kept = bounds.iter().copied().filter(|&b| b <= cut).max().unwrap();
        assert_eq!(log_bytes(dir), full[..kept], "{context}: log not cut back to a group boundary");
        let recovered = dir_tree(dir);
        let store = sharded_open(dir, shards);
        assert_eq!(check(&store, &context), cut == full.len(), "{context} (reopen)");
        drop(store);
        assert!(recovered == dir_tree(dir), "{context}: a second reopen changed the directory");
    }
}

/// The keys global commit 2 writes in the crash tests: one per shard of
/// the three-shard store (all in the only shard of the one-shard one).
const G2_KEYS: [u64; 3] = [10, 1_010, 2_010];

/// Asserts the baseline commit is intact and `keys` were written
/// all-or-nothing; returns whether they were.
fn all_or_nothing(store: &ShardedStore<u64, u64>, keys: &[u64], context: &str) -> bool {
    for base in [0u64, 1_000, 2_000] {
        assert_eq!(store.get(&base), Some(0), "{context}: baseline key {base} lost");
    }
    let seen: Vec<bool> = keys.iter().map(|k| store.get(k) == Some(42)).collect();
    assert!(
        seen.iter().all(|&s| s) || seen.iter().all(|&s| !s),
        "{context}: commit group partially visible: {seen:?}"
    );
    seen[0]
}

#[test]
fn a_torn_log_never_splits_a_cross_shard_group() {
    for shards in SHARD_COUNTS {
        let dir = scratch(&format!("crash-group-{shards}"));
        let store = sharded_open(&dir, shards);
        store.commit(vec![Op::Put(0, 0), Op::Put(1_000, 0), Op::Put(2_000, 0)]).unwrap();
        let baseline = log_bytes(&dir).len();
        store.commit(G2_KEYS.iter().map(|&k| Op::Put(k, 42)).collect()).unwrap();
        drop(store);
        let full = log_bytes(&dir);
        cut_matrix(&dir, shards, &full, baseline, &[baseline, full.len()], |store, context| {
            all_or_nothing(store, &G2_KEYS, context)
        });
    }
}

#[test]
fn an_incomplete_group_before_a_later_group_is_corrupt_and_never_truncated() {
    // A crash can only leave an incomplete group at the end of the log:
    // a group is one append, rolled back when it fails. With a later
    // group behind it, the hole is damage, not a torn tail, and cutting
    // it out would drop an acknowledged commit.
    let dir = scratch("crash-hole");
    let store = sharded_open(&dir, 3);
    store.commit(vec![Op::Put(0, 0), Op::Put(1_000, 0), Op::Put(2_000, 0)]).unwrap();
    let g2_start = log_bytes(&dir).len();
    store.commit(G2_KEYS.iter().map(|&k| Op::Put(k, 42)).collect()).unwrap();
    store.commit(vec![Op::Put(5, 5)]).unwrap();
    drop(store);
    let full = log_bytes(&dir);
    let mut frames = store::wal::Frames::new(&full[g2_start..]);
    frames.next().expect("g2's first record");
    let second = g2_start + frames.pos;
    frames.next().expect("g2's second record");
    let holed = [&full[..second], &full[g2_start + frames.pos..]].concat();
    std::fs::write(dir.join(LOG_FILE), &holed).unwrap();
    for strict_log in [false, true] {
        let opts = StoreOptions { strict_log, ..StoreOptions::default() };
        let err = ShardedStore::<u64, u64>::open_with(&dir, opts).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "strict_log {strict_log}: {err}");
        assert_eq!(log_bytes(&dir), holed, "strict_log {strict_log}: log truncated");
    }
}

// ---------------------------------------------------------------------
// Crash injection: the compaction cycle (checkpoint-then-truncate)
// ---------------------------------------------------------------------

/// The keys the post-compaction commit writes: one per shard of the
/// three-shard store.
const POST_COMPACT_KEYS: [u64; 3] = [20, 1_020, 2_020];

/// Builds a store that has been through a full lifecycle — a saved full
/// page, a commit, a `compact()` (incremental pages and a log rewritten
/// to its head), and one more cross-shard commit. Returns the length of
/// the head.
fn compact_fixture(dir: &Path, shards: usize) -> usize {
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
    // rewrote the log to its head alone.
    let stats = store.lifecycle_stats();
    assert_eq!(stats.compactions, 1);
    assert_eq!(stats.incremental_saves, shards as u64);
    let head = log_records(dir);
    assert_eq!(head.len(), shards, "one head record per shard");
    assert!(head.iter().all(|&(_, g, _, ops)| g == 2 && ops == 0), "{head:?}");
    let head_len = log_bytes(dir).len();
    store
        .commit(POST_COMPACT_KEYS.iter().map(|&k| Op::Put(k, 42)).collect())
        .unwrap();
    drop(store);
    head_len
}

/// Asserts every pre-compaction key is intact and the post-compaction
/// commit is all-or-nothing; returns its visibility.
fn check_compact_atomic(store: &ShardedStore<u64, u64>, context: &str) -> bool {
    for inc in [1u64, 1_001, 2_001] {
        assert_eq!(store.get(&inc), Some(7), "{context}: incremental key {inc} lost");
    }
    all_or_nothing(store, &POST_COMPACT_KEYS, context)
}

#[test]
fn compaction_survives_log_truncation_at_every_byte() {
    for shards in SHARD_COUNTS {
        // Cut through the post-compaction group, the head, down to
        // nothing: the pages cover the checkpoint, so every cut lands on
        // it, plus the last group only when it is whole.
        let dir = scratch(&format!("compact-crash-log-{shards}"));
        let head_len = compact_fixture(&dir, shards);
        let full = log_bytes(&dir);
        cut_matrix(&dir, shards, &full, 0, &[0, head_len, full.len()], check_compact_atomic);
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
        assert!(check_compact_atomic(&sharded_open(&dir, shards), "restored"));
    }
}

#[test]
fn crash_between_page_writes_and_wal_truncation_during_compact_is_safe() {
    for shards in SHARD_COUNTS {
        // compact() writes the incremental pages first and rewrites the
        // log second. Simulate a crash after the pages landed but before
        // the rewrite: the old log's head and groups sit below pages that
        // already reach them.
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
            let pre_compact = log_bytes(&dir);
            store.compact().unwrap();
            drop(store);
            // Put the log back as if the rewrite never happened; the
            // incremental pages stay.
            std::fs::write(dir.join(LOG_FILE), pre_compact).unwrap();
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
    }
}

#[test]
fn checkpoints_racing_commits_keep_every_acknowledged_commit() {
    // A checkpoint writes its pages with commits still flowing, then
    // rewrites the log with the groups of the commits that landed
    // meanwhile. A writer commits for as long as back-to-back
    // checkpoints of all three kinds run beside it: whatever
    // interleaving happens, a reopen must see every acknowledged
    // commit — none dropped with the covered prefix, none replayed
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
    }
}

#[test]
fn empty_commits_survive_restart_without_regressing_the_global_clock() {
    for shards in SHARD_COUNTS {
        // An empty commit is one op-less record with no participants;
        // recovery must still roll the global clock forward, or the next
        // commit would reuse an acknowledged id.
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
    }
}

#[test]
fn groups_below_a_checkpoint_are_skipped_not_replayed() {
    // g1 touches shards {0, 1}, g2 touches shard 2, then save(). Put the
    // pre-save log back, as a crash before the rewrite leaves it: both
    // groups sit below the pages, with no head. Recovery must skip them
    // (not replay them twice, not call the pages a gap), land on g2 and
    // keep numbering from there.
    let dir = scratch("groups-below-checkpoint");
    let shards = 3; // the scenario needs commits with disjoint participant sets
    {
        let store = sharded_open(&dir, shards);
        store.commit(vec![Op::Put(1, 1), Op::Put(1_001, 1)]).unwrap(); // shards 0, 1
        store.commit(vec![Op::Put(2_001, 2)]).unwrap(); // shard 2
        let pre_save = log_bytes(&dir);
        assert_eq!(store.save().unwrap(), 2);
        drop(store);
        std::fs::write(dir.join(LOG_FILE), pre_save).unwrap();
    }
    for round in 0..2 {
        let store = sharded_open(&dir, shards);
        assert_eq!(store.current_version(), 2, "round {round}: global clock regressed");
        assert_eq!(store.get(&1), Some(1), "round {round}");
        assert_eq!(store.get(&1_001), Some(1), "round {round}");
        assert_eq!(store.get(&2_001), Some(2), "round {round}");
    }
    // The store keeps working and numbering correctly afterwards.
    let store = sharded_open(&dir, shards);
    assert_eq!(store.commit(vec![Op::Put(5, 5)]).unwrap(), 3);
    drop(store);
    let store = sharded_open(&dir, shards);
    assert_eq!(store.current_version(), 3);
    assert_eq!(store.get(&5), Some(5));
}
