//! End-to-end tests of the lazy read policy and buffer-pool residency:
//! out-of-core opens (`StoreOptions::pool_pages`), incremental chains
//! and WAL replay on a lazy base, and the sharded store's per-shard
//! pools. (That the policy is not a format — byte-identical directories
//! under both — is stated in `differential.rs`.)

use store::{
    shard_dir_name, Op, PacStore, Router, ShardedStore, StoreOptions, LOG_FILE, SNAPSHOT_FILE,
};

use std::path::{Path, PathBuf};

/// A fresh, empty scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pacpaging-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The only shard's directory of a `PacStore` at `dir`: where its
/// pages and log live.
fn shard0(dir: &Path) -> PathBuf {
    dir.join(shard_dir_name(0))
}

fn pooled(pages: usize) -> StoreOptions {
    StoreOptions { pool_pages: Some(pages), ..StoreOptions::default() }
}

/// Explicitly eager options: immune to a `PAC_POOL_PAGES` override
/// through `StoreOptions::default()`.
fn unpooled() -> StoreOptions {
    StoreOptions { pool_pages: None, ..StoreOptions::default() }
}

const N: u64 = 50_000;

#[test]
fn lazy_open_reads_no_leaf_and_residency_is_bounded() {
    let dir = scratch("lazy-open");
    {
        let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(8)).unwrap();
        store.commit((0..N).map(|k| Op::Put(k, k * 3)).collect()).unwrap();
        store.save().unwrap();
    }
    assert!(shard0(&dir).join(SNAPSHOT_FILE).exists());

    let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(8)).unwrap();
    let s = store.pool_stats().expect("pooled store has stats");
    // Opening read structure only — not one leaf record.
    assert_eq!(s.misses, 0, "open touched {} pages", s.misses);
    assert_eq!(store.len(), N as usize);

    // A point query pages in O(1) leaves.
    assert_eq!(store.get(&30_000), Some(90_000));
    let s = store.pool_stats().unwrap();
    assert!(s.misses <= 2, "point query loaded {} pages", s.misses);

    // A full scan streams every page; the cache never exceeds budget.
    let snap = store.snapshot();
    assert_eq!(snap.map().iter().count(), N as usize);
    let s = store.pool_stats().unwrap();
    assert!(s.resident_pages <= 8, "resident {} pages", s.resident_pages);
    assert!(s.evictions > 0);
    // Budget bound in bytes: at most capacity × (largest block), and a
    // u64 pair block at default b=128 is ≤ 256 entries × 16 bytes plus
    // headers — use a generous 64 KiB/page ceiling.
    assert!(s.resident_bytes <= 8 * 64 * 1024, "resident {} bytes", s.resident_bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn incrementals_and_wal_replay_chain_onto_lazy_base() {
    let dir = scratch("lazy-chain");
    {
        let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(8)).unwrap();
        store.commit((0..20_000u64).map(|k| Op::Put(k, k)).collect()).unwrap();
        store.save().unwrap();
    }
    {
        // Reopen lazily, commit on top of the lazy base, checkpoint
        // incrementally (Arc-identity diff against the lazy tree), then
        // leave one commit in the WAL only.
        let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(8)).unwrap();
        store.commit(vec![Op::Put(50_000, 1), Op::Delete(7)]).unwrap();
        store.compact().unwrap();
        store.commit(vec![Op::Put(50_001, 2)]).unwrap();
        assert!(shard0(&dir).join(LOG_FILE).metadata().unwrap().len() > 0);
    }
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(8)).unwrap();
    assert_eq!(store.current_version(), 3);
    assert_eq!(store.len(), 20_001);
    assert_eq!(store.get(&50_000), Some(1));
    assert_eq!(store.get(&50_001), Some(2));
    assert_eq!(store.get(&7), None);
    assert_eq!(store.get(&19_999), Some(19_999));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_lazy_store_keeps_per_shard_pools() {
    let dir = scratch("sharded-lazy");
    let router = Router::uniform_span(4, N);
    {
        let store: ShardedStore<u64, u64> =
            ShardedStore::open_or_create(&dir, router.clone(), pooled(4)).unwrap();
        store.commit((0..N).map(|k| Op::Put(k, k + 1)).collect()).unwrap();
        store.save().unwrap();
    }
    let store: ShardedStore<u64, u64> =
        ShardedStore::open_or_create(&dir, router, pooled(4)).unwrap();
    let total = store.pool_stats().expect("pooled sharded store has stats");
    assert_eq!(total.misses, 0, "sharded open touched {} pages", total.misses);
    assert_eq!(total.capacity_pages, 16, "4 shards × 4 pages");
    assert_eq!(store.len(), N as usize);

    // Queries on different shards fill different pools.
    assert_eq!(store.get(&10), Some(11));
    assert_eq!(store.get(&(N - 10)), Some(N - 9));
    let per_shard = store.shard_pool_stats().unwrap();
    assert_eq!(per_shard.len(), 4);
    assert!(per_shard.iter().filter(|s| s.misses > 0).count() >= 2);

    // A full scan stays within every shard's budget.
    let snap = store.snapshot();
    assert_eq!(snap.to_vec().len(), N as usize);
    for (i, s) in store.shard_pool_stats().unwrap().iter().enumerate() {
        assert!(s.resident_pages <= 4, "shard {i} resident {} pages", s.resident_pages);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unpooled_stores_report_no_pool() {
    let dir = scratch("unpooled");
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, unpooled()).unwrap();
    assert!(store.pool_stats().is_none());
    drop(store);
    let mem: PacStore<u64, u64> = PacStore::in_memory_with(pooled(8));
    // An in-memory store has no pages to cache; pool_pages is inert.
    assert!(mem.pool_stats().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}
