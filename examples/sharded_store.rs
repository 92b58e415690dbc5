//! Sharded pacstore tour: key-range partitioning, atomic cross-shard
//! commits, consistent version-vector snapshots, and restart recovery.
//!
//! Run with: `cargo run --release --example sharded_store`

use store::{Op, Router, ShardedStore, StoreOptions};

fn main() {
    let dir = std::env::temp_dir().join(format!("sharded-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Partition the keyspace into 4 ranges ------------------------
    // Shard 0 owns keys < 250k, shard 1 [250k, 500k), and so on; keys
    // >= 750k land in the last shard. The map is persisted, so a
    // reopen recovers the exact same routing.
    let router = Router::uniform_span(4, 1_000_000);
    let db: ShardedStore<u64, u64> =
        ShardedStore::open_or_create(&dir, router, StoreOptions::default()).expect("open");
    println!("{} shards over 1M keys", db.shard_count());

    // --- One commit, many shards, one atomic version -----------------
    // The batch is split by range and applied to the shards in
    // parallel; its records go to the store's one log in one append,
    // which makes it all-or-nothing.
    let v1 = db
        .commit((0..1_000_000u64).step_by(10).map(|k| Op::Put(k, 0)).collect())
        .expect("bulk load");
    println!(
        "bulk load -> global version {v1}, version vector {:?}, {} keys",
        db.version_vector(),
        db.len()
    );

    // --- Snapshots pin a consistent cross-shard version vector -------
    let snap = db.snapshot();
    db.commit(vec![Op::Put(10, 1), Op::Put(900_000, 1)]).expect("cross-shard update");
    assert_eq!(snap.get(&10), Some(0)); // the pinned vector is immune
    assert_eq!(snap.get(&900_000), Some(0));
    println!(
        "pinned snapshot v{} still consistent; live store at v{}",
        snap.version(),
        db.current_version()
    );

    // Ordered scans compose across shards (ranges are contiguous).
    let window = db.snapshot().range_entries(&249_990, &250_020);
    println!("range scan across a shard boundary: {window:?}");

    // --- Durability: parallel save, then restart ----------------------
    let saved = db.save().expect("save");
    db.commit(vec![Op::Put(123, 9), Op::Put(750_123, 9)]).expect("post-save commit");
    let expected_len = db.len();
    drop(db);

    let db: ShardedStore<u64, u64> = ShardedStore::open(&dir).expect("reopen");
    println!(
        "reopened: global v{} (checkpoint v{saved} + log replay), {} keys",
        db.current_version(),
        db.len()
    );
    assert_eq!(db.len(), expected_len);
    assert_eq!(db.get(&123), Some(9)); // replayed from shard 0's WAL
    assert_eq!(db.get(&750_123), Some(9)); // replayed from shard 3's WAL

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
