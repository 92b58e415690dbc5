//! Proves — with a counting global allocator, not a benchmark — that
//! pinning a store version allocates nothing: a snapshot is one `Arc`
//! clone of the version plus one of the router, at any shard count, and
//! dropping it frees nothing while the store still holds the version.
//!
//! This file must contain exactly one `#[test]`: the allocation counter
//! is per-process, so a concurrently running sibling test would make
//! the zero-delta assertion racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use store::{Op, PacStore, Router, ShardedStore};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: u64 = 4_000;

#[test]
fn snapshots_allocate_nothing() {
    let sharded: ShardedStore<u64, u64> =
        ShardedStore::in_memory(Router::uniform_span(4, KEYS)).unwrap();
    let single: PacStore<u64, u64> = PacStore::in_memory();
    for i in 0..300u64 {
        let ops: Vec<Op<u64, u64>> = (0..8)
            .map(|j| Op::Put((i * 8 + j) * 13 % KEYS, i))
            .collect();
        sharded.commit(ops.clone()).unwrap();
        single.commit(ops).unwrap();
    }
    assert_eq!(sharded.current_version(), 300);

    // One round: pin, read and drop each kind of snapshot.
    let round = |r: u64| -> u64 {
        let k = r * 13 % KEYS;
        let snap = sharded.snapshot();
        let mut sum = snap.version() + snap.get(&k).unwrap_or(0);
        drop(snap);
        let at = sharded.snapshot_at(sharded.current_version()).unwrap();
        sum += at.version();
        drop(at);
        let pinned = single.snapshot();
        sum += pinned.map().find(&k).unwrap_or(0);
        drop(pinned);
        sum
    };

    // Warm up any lazily initialized state (thread locals, counters).
    let mut sum = (0..100).map(round).sum::<u64>();

    let before = ALLOCS.load(Ordering::Relaxed);
    for r in 0..10_000u64 {
        sum = sum.wrapping_add(round(r));
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(sum > 0, "workload degenerated");
    assert_eq!(delta, 0, "10 000 snapshot rounds allocated {delta} times");
}
