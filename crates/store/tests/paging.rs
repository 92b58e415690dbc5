//! End-to-end tests of the lazy read policy and buffer-pool residency:
//! out-of-core opens (`StoreOptions::pool_pages`), incremental chains
//! and WAL replay on a lazy base, and the sharded store's per-shard
//! pools. (That the policy is not a format — byte-identical directories
//! under both — is stated in `differential.rs`.)

use store::{Op, PacStore, PoolStats, Router, ShardedStore, StoreOptions, LOG_FILE, SNAPSHOT_FILE};

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use codecs::DeltaCodec;

mod world;
use world::{scratch, shard0};

/// Every test here reads page files, and every record a read parses
/// counts in the process-wide `pacstore_records_parsed_total`. Each test
/// holds this gate, so a test counting parses sees only its own.
static PAGES: Mutex<()> = Mutex::new(());

fn page_gate() -> MutexGuard<'static, ()> {
    PAGES.lock().unwrap_or_else(|e| e.into_inner())
}

fn records_parsed() -> u64 {
    obs::global().counter_value("pacstore_records_parsed_total").unwrap_or(0)
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
    let _g = page_gate();
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
}

/// A store's point read and the stats of the one pool it goes through.
type Get<'a> = &'a dyn Fn(u64) -> Option<u64>;
type Stats<'a> = &'a dyn Fn() -> PoolStats;

/// One point read, which must cross exactly one leaf (none of the keys
/// used below is a pivot): what it added to the pool's `(hits, misses)`.
fn read(get: Get, stats: Stats, k: u64) -> (u64, u64) {
    let before = stats();
    assert_eq!(get(k), Some(k * 3));
    let after = stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert_eq!(hits + misses, 1, "get({k}) crossed {} leaves", hits + misses);
    (hits, misses)
}

const HIT: (u64, u64) = (1, 0);
const MISS: (u64, u64) = (0, 1);

/// Every access to a lazy leaf is a pool lookup: K re-reads of one key
/// are one miss, then exactly K hits.
fn rereads_are_hits(get: Get, stats: Stats) {
    assert_eq!(read(get, stats, 1_003), MISS);
    let before = stats();
    for _ in 0..100 {
        assert_eq!(get(1_003), Some(3_009));
    }
    let after = stats();
    assert_eq!((after.hits - before.hits, after.misses), (100, before.misses));
}

/// Second chance through the production read path, on a 4-page pool: a
/// leaf re-read between cold reads has its reference bit set, so the
/// sweep the fifth leaf forces passes it by (clearing the bit) and
/// evicts the oldest *untouched* leaf instead.
fn reread_leaf_survives_a_sweep(get: Get, stats: Stats) {
    assert_eq!(stats().capacity_pages, 4);
    let (hot, cold) = (1_003, [3_003, 5_003, 7_003, 9_003]);
    assert_eq!(read(get, stats, hot), MISS);
    assert_eq!(read(get, stats, cold[0]), MISS);
    assert_eq!(get(hot), Some(hot * 3)); // the re-read
    assert_eq!(read(get, stats, cold[1]), MISS);
    assert_eq!(read(get, stats, cold[2]), MISS);
    assert_eq!(stats().evictions, 0);
    assert_eq!(read(get, stats, cold[3]), MISS);
    assert_eq!((stats().evictions, stats().resident_pages), (1, 4));
    assert_eq!(read(get, stats, hot), HIT, "cold reads flushed the re-read leaf");
    assert_eq!(read(get, stats, cold[0]), MISS, "the untouched leaf should have gone");
}

/// Runs `check` on a freshly reopened 4-page `PacStore`, then on shard 0
/// of a three-shard `ShardedStore` (the keys used are below `N / 3`),
/// whose pool is its own: the other shards' pools must see nothing.
fn on_both_handles(name: &str, check: fn(Get, Stats)) {
    let load = || (0..N).map(|k| Op::Put(k, k * 3)).collect::<Vec<_>>();

    let dir = scratch(name);
    {
        let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(4)).unwrap();
        store.commit(load()).unwrap();
        store.save().unwrap();
    }
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(4)).unwrap();
    check(&|k| store.get(&k), &|| store.pool_stats().unwrap());
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();

    let router = Router::uniform_span(3, N);
    {
        let store: ShardedStore<u64, u64> =
            ShardedStore::open_or_create(&dir, router.clone(), pooled(4)).unwrap();
        store.commit(load()).unwrap();
        store.save().unwrap();
    }
    let store: ShardedStore<u64, u64> =
        ShardedStore::open_or_create(&dir, router, pooled(4)).unwrap();
    check(&|k| store.get(&k), &|| store.shard_pool_stats().unwrap()[0]);
    let others = &store.shard_pool_stats().unwrap()[1..];
    assert!(others.iter().all(|s| s.hits + s.misses == 0), "{others:?}");
    drop(store);
}

#[test]
fn k_rereads_of_one_key_are_k_pool_hits_and_no_miss() {
    let _g = page_gate();
    on_both_handles("reread-hits", rereads_are_hits);
}

#[test]
fn a_reread_leaf_survives_the_sweep_that_evicts_an_untouched_one() {
    let _g = page_gate();
    on_both_handles("second-chance", reread_leaf_survives_a_sweep);
}

#[test]
fn incrementals_and_wal_replay_chain_onto_lazy_base() {
    let _g = page_gate();
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
        assert!(dir.join(LOG_FILE).metadata().unwrap().len() > 0);
    }
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(8)).unwrap();
    assert_eq!(store.current_version(), 3);
    assert_eq!(store.len(), 20_001);
    assert_eq!(store.get(&50_000), Some(1));
    assert_eq!(store.get(&50_001), Some(2));
    assert_eq!(store.get(&7), None);
    assert_eq!(store.get(&19_999), Some(19_999));
}

#[test]
fn sharded_lazy_store_keeps_per_shard_pools() {
    let _g = page_gate();
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
}

#[test]
fn unpooled_stores_report_no_pool() {
    let _g = page_gate();
    let dir = scratch("unpooled");
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, unpooled()).unwrap();
    assert!(store.pool_stats().is_none());
    drop(store);
    let mem: PacStore<u64, u64> = PacStore::in_memory_with(pooled(8));
    // An in-memory store has no pages to cache; pool_pages is inert.
    assert!(mem.pool_stats().is_none());
}

/// A one-key commit rewrites one leaf: the incremental page after it
/// carries exactly one leaf record beside the copied path, and on a
/// lazily opened store the commit loaded that leaf and no other. The
/// checkpoint's walk reads no base leaf: after the put it adds no pool
/// access, and after deleting a key the base holds as a pivot it adds
/// at most one (the node beside the deleted key is placed by its own
/// key, and a lazy leaf's first key is a read).
fn one_key_commit_dirties_one_leaf(name: &str, opts: StoreOptions) {
    use cpam::structure::NodeRef;
    let dir = scratch(name);
    {
        let store: PacStore<u64, u64> = PacStore::open_with(&dir, opts.clone()).unwrap();
        store.commit((0..N).map(|k| Op::Put(k * 2, k)).collect()).unwrap();
        store.save().unwrap();
    }
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, opts.clone()).unwrap();
    let checkpoint = store.latest_checkpoint().unwrap();
    let base = store.snapshot();
    let accesses = |s: Option<PoolStats>| s.map(|s| s.hits + s.misses);
    let cold = accesses(store.pool_stats());

    store.put(60_001, 7).unwrap();
    assert_eq!(
        accesses(store.pool_stats()),
        cold.map(|n| n + 1),
        "the commit loaded more than the leaf it wrote"
    );

    // The walk the page writer does, against the pinned checkpoint.
    let (mut leaves, mut copied) = (0, 0);
    store.snapshot().map().visit_nodes(Some(base.map()), &mut |node| match node {
        NodeRef::Flat(_) => leaves += 1,
        NodeRef::Regular(_) => copied += 1,
        _ => {}
    });
    assert_eq!(leaves, 1, "a one-key commit dirtied {leaves} leaves");
    assert!((1..40).contains(&copied), "{copied} regular nodes beside one path");

    let before = accesses(store.pool_stats());
    store.save_incremental(checkpoint).unwrap();
    assert_eq!(accesses(store.pool_stats()), before, "the checkpoint after a put read a leaf");
    let page = store.lifecycle_stats().incremental_page_bytes;
    // One u64-pair leaf record is at most 2b × 16 B plus framing.
    assert!(page < 256 * 16 + 1024, "incremental page of {page} B holds more than one leaf");
    drop(base);

    // A pivot of the new checkpoint whose children are both leaves: its
    // deletion joins them, and the right one keeps its place beside the
    // deleted key.
    let (checkpoint, base) = (store.latest_checkpoint().unwrap(), store.snapshot());
    let mut walk = Vec::new();
    base.map().visit_nodes(None, &mut |node| {
        walk.push(match node {
            NodeRef::Regular(&(k, _)) => Some(k),
            _ => None,
        })
    });
    let pivot = (0..walk.len() - 2)
        .find_map(|i| walk[i].filter(|_| walk[i + 1].is_none() && walk[i + 2].is_none()))
        .expect("a pivot above two leaves");
    store.delete(pivot).unwrap();
    let before = accesses(store.pool_stats());
    store.save_incremental(checkpoint).unwrap();
    let after = accesses(store.pool_stats());
    assert!(
        after <= before.map(|n| n + 1),
        "deleting pivot {pivot}: the checkpoint made {before:?} → {after:?} pool accesses"
    );
    drop((base, store));

    let mut oracle: BTreeMap<u64, u64> = (0..N).map(|k| (k * 2, k)).collect();
    oracle.insert(60_001, 7);
    oracle.remove(&pivot);
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, opts).unwrap();
    assert_eq!(store.get(&60_001), Some(7));
    assert_eq!(store.get(&60_000), Some(30_000));
    assert_eq!(store.len(), N as usize);
    assert!(store.snapshot().to_vec().into_iter().eq(oracle), "the reopened chain differs");
}

/// A full checkpoint of a lazily opened shard reads every still-lazy
/// leaf once and admits none of them: a resident leaf is a hit, every
/// other one a miss, and the pool neither evicts nor grows, so the
/// pages queries made resident are still there after it.
#[test]
fn a_full_checkpoint_of_a_lazy_shard_admits_no_leaf() {
    let _g = page_gate();
    let dir = scratch("full-checkpoint-admits-nothing");
    {
        let store: PacStore<u64, u64> = PacStore::open_with(&dir, unpooled()).unwrap();
        store.commit((0..N).map(|k| Op::Put(k, k * 3)).collect()).unwrap();
        store.save().unwrap();
    }
    let store: PacStore<u64, u64> = PacStore::open_with(&dir, pooled(8)).unwrap();
    let lazy = store.snapshot().map().space_stats().lazy_nodes as u64;
    assert!(lazy > 100, "{lazy} lazy leaves");
    let hot = [1, N / 2 + 1, N - 1];
    for k in hot {
        assert_eq!(store.get(&k), Some(k * 3));
    }
    let before = store.pool_stats().unwrap();
    assert_eq!((before.misses, before.resident_pages), (3, 3), "three leaves made resident");

    store.save().unwrap();
    let after = store.pool_stats().unwrap();
    assert_eq!(after.evictions, before.evictions, "the checkpoint evicted a page");
    assert_eq!(after.resident_pages, before.resident_pages);
    assert_eq!(after.resident_bytes, before.resident_bytes);
    assert_eq!(after.misses - before.misses, lazy - 3, "one miss per leaf not resident");
    assert_eq!(after.hits - before.hits, 3, "one hit per resident leaf");
    for k in hot {
        assert_eq!(store.get(&k), Some(k * 3));
    }
    assert_eq!(store.pool_stats().unwrap().misses, after.misses, "a hot leaf was lost");
    drop(store);

    let store: PacStore<u64, u64> = PacStore::open_with(&dir, unpooled()).unwrap();
    assert!(store.snapshot().to_vec().into_iter().eq((0..N).map(|k| (k, k * 3))));
    drop(store);
}

#[test]
fn a_one_key_commit_writes_exactly_one_leaf_record() {
    let _g = page_gate();
    one_key_commit_dirties_one_leaf("one-leaf-pooled", pooled(8));
    one_key_commit_dirties_one_leaf("one-leaf-eager", unpooled());
}

/// Two full sweeps of a lazily opened delta store through a 2-page pool:
/// a scan, then a point read of every key and of every gap between. Each
/// sweep re-loads every record, and only the first load of a record
/// checks its CRC and parses it; an eager open of the same file parses
/// each record once too.
#[test]
fn a_lazy_record_is_parsed_once_however_often_it_is_reloaded() {
    let _g = page_gate();
    let dir = scratch("parse-once");
    let oracle: BTreeMap<u64, u64> = (0..N).map(|k| (k * 2, k ^ 0x5555)).collect();
    {
        let store: PacStore<u64, u64, DeltaCodec> = PacStore::open_with(&dir, unpooled()).unwrap();
        store.commit(oracle.iter().map(|(&k, &v)| Op::Put(k, v)).collect()).unwrap();
        store.save().unwrap();
    }

    let before = records_parsed();
    let store: PacStore<u64, u64, DeltaCodec> = PacStore::open_with(&dir, pooled(2)).unwrap();
    let records = store.snapshot().map().space_stats().lazy_nodes as u64;
    assert!(records > 100, "{records} leaf records");
    assert_eq!(records_parsed(), before, "a lazy open parsed a record");

    let snap = store.snapshot();
    assert!(snap.map().iter().eq(oracle.iter().map(|(&k, &v)| (k, v))));
    drop(snap);
    let scanned = store.pool_stats().unwrap();
    assert_eq!(scanned.misses, records, "the scan loaded each record once");
    assert_eq!(records_parsed() - before, records);

    for k in 0..2 * N {
        assert_eq!(store.get(&k), oracle.get(&k).copied(), "get({k})");
    }
    let read = store.pool_stats().unwrap();
    assert_eq!(read.misses - scanned.misses, records, "the reads re-loaded each record once");
    assert_eq!(records_parsed() - before, records, "a re-load parsed its record again");
    drop(store);

    let before = records_parsed();
    let store: PacStore<u64, u64, DeltaCodec> = PacStore::open_with(&dir, unpooled()).unwrap();
    assert_eq!(records_parsed() - before, records, "an eager open parses each record once");
    assert!(store.snapshot().map().iter().eq(oracle.iter().map(|(&k, &v)| (k, v))));
    drop(store);
}
