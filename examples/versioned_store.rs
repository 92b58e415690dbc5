//! pacstore tour: commits become versions, reads time-travel, the
//! whole store survives a restart via snapshot + log replay, and the
//! same files open eagerly or lazily (`pool_pages` is a read policy).
//!
//! Run with: `cargo run --release --example versioned_store`

use store::{Op, PacStore, StoreOptions};

fn main() {
    let dir = std::env::temp_dir().join(format!("pacstore-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Commit: batches become immutable versions -------------------
    let db: PacStore<u64, u64> = PacStore::open(&dir).expect("open");
    let v1 = db
        .commit((0..1_000_000u64).map(|k| Op::Put(k, 0)).collect())
        .expect("bulk load");
    let v2 = db
        .commit(vec![Op::Put(42, 1), Op::Put(43, 1), Op::Delete(0)])
        .expect("update");
    println!("bulk load -> version {v1} ({} keys)", db.len());
    println!("update    -> version {v2}");

    // --- Time travel: any retained version is an O(1) snapshot -------
    let now = db.snapshot();
    let before = db.snapshot_at(v1).expect("history");
    println!(
        "key 42: was {:?} at v{}, is {:?} at v{}",
        before.get(&42),
        before.version(),
        now.get(&42),
        now.version()
    );
    // Pinned snapshots are immune to later writes.
    db.commit(vec![Op::Delete(42)]).expect("later write");
    assert_eq!(now.get(&42), Some(1));

    // --- Durability: save a snapshot page, commit more, restart ------
    let saved = db.save().expect("save");
    db.commit(vec![Op::Put(7_000_000, 7)]).expect("post-save commit");
    let expected_len = db.len();
    drop(db);

    let db: PacStore<u64, u64> = PacStore::open(&dir).expect("reopen");
    println!(
        "reopened: version {} (saved snapshot v{saved} + log replay), {} keys",
        db.current_version(),
        db.len()
    );
    assert_eq!(db.len(), expected_len);
    assert_eq!(db.get(&7_000_000), Some(7)); // replayed from the log
    assert_eq!(db.get(&42), None);

    // A PacStore is a one-shard store: its pages live in `shard-000/`.
    let shard_dir = db.dir().unwrap().join(store::shard_dir_name(0));
    let snap_bytes = std::fs::metadata(shard_dir.join(store::SNAPSHOT_FILE))
        .expect("snapshot file")
        .len();
    println!(
        "snapshot page: {:.1} MiB for {} u64->u64 entries ({:.1} bytes/entry)",
        snap_bytes as f64 / (1 << 20) as f64,
        db.len(),
        snap_bytes as f64 / db.len() as f64
    );

    // --- Read policy: the same files, opened lazily -----------------
    // `pool_pages` never changes what is written; it selects how pages
    // are read. With a budget, open reads structure only and leaves
    // stream through a capped pool on demand. The pool is the one
    // owner of residency, so the second read of a key is a pool hit.
    drop(db);
    let lazy = StoreOptions { pool_pages: Some(64), ..StoreOptions::default() };
    let db: PacStore<u64, u64> = PacStore::open_with(&dir, lazy).expect("lazy reopen");
    assert_eq!(db.get(&43), Some(1));
    assert_eq!(db.get(&43), Some(1));
    let pool = db.pool_stats().expect("a pooled store reports its pool");
    println!(
        "lazy reopen: log replay + two gets read {} leaf records of {} entries' worth \
         ({} resident bytes), {} pool hits",
        pool.misses,
        db.len(),
        pool.resident_bytes,
        pool.hits
    );
    assert!(pool.hits >= 1, "a re-read of a resident leaf is a pool hit");
    drop(db);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
