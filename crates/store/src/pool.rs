//! A capped buffer pool of decoded leaf blocks — the residency policy
//! behind lazily opened stores.
//!
//! A [`BufferPool`] holds up to `capacity` *frames*, each caching one
//! decoded page (an `Arc<B>` plus its byte accounting), keyed by
//! [`PageKey`] so every page file of a shard's chain shares one budget.
//! Lookups pin the
//! frame with a [`PageGuard`]; eviction is **clock** (second chance):
//! every hit sets a referenced bit (admission does not, so one-touch
//! scans are evicted before re-used pages), the clock hand sweeps
//! frames clearing bits and evicts the first unreferenced, unpinned
//! frame it finds. Pinned frames are never evicted — when every frame is pinned
//! the pool *overflows* (admits beyond capacity) rather than deadlock;
//! capacity is a target, pins are correctness.
//!
//! "Eviction" only drops the pool's strong `Arc`: queries already
//! holding the block (and the cpam layer's per-leaf weak caches) keep
//! it alive until they finish, so eviction bounds *pool-owned* memory
//! without invalidating in-flight readers.
//!
//! Stats (hits/misses/evictions plus resident/pinned gauges) are
//! plain atomics so metric scrapes never contend with the page path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::StoreError;

/// What a frame caches: `(file id, leaf record index)`. File ids come
/// from [`BufferPool::new_file_id`], one per opened page file.
pub type PageKey = (u32, u32);

/// One cached page.
struct Frame<B> {
    page: PageKey,
    block: Arc<B>,
    /// Accounted heap bytes (payload + block header), fixed at admission.
    bytes: usize,
    /// Second-chance bit: set on every hit, cleared by the clock sweep.
    referenced: bool,
    /// Outstanding [`PageGuard`]s; non-zero frames are never evicted.
    pins: u32,
}

/// Table + frames behind one mutex: the page path takes it once per
/// lookup, metric reads never do.
struct PoolState<B> {
    /// Frame slots; `None` slots are listed in `free`.
    frames: Vec<Option<Frame<B>>>,
    /// page key -> slot index.
    table: HashMap<PageKey, usize>,
    /// Recycled empty slots.
    free: Vec<usize>,
    /// Clock hand: next slot the eviction sweep examines.
    hand: usize,
}

/// Point-in-time pool statistics. Counters are monotone; gauges are
/// instantaneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured frame budget.
    pub capacity_pages: usize,
    /// Frames currently holding a page (may exceed capacity while
    /// overflowed by pins).
    pub resident_pages: usize,
    /// Accounted bytes of resident pages.
    pub resident_bytes: usize,
    /// Frames with at least one outstanding guard.
    pub pinned_pages: usize,
    /// Lookups served from a resident frame.
    pub hits: u64,
    /// Lookups that had to fetch.
    pub misses: u64,
    /// Frames dropped by the clock sweep.
    pub evictions: u64,
}

/// A capped, pinning, clock-evicting cache of decoded pages. See the
/// module docs for the policy.
pub struct BufferPool<B> {
    capacity: usize,
    state: Mutex<PoolState<B>>,
    next_file: AtomicU32,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicUsize,
    resident_pages: AtomicUsize,
    pinned_pages: AtomicUsize,
}

impl<B> BufferPool<B> {
    /// Creates a pool targeting `capacity` resident pages (clamped to
    /// at least one frame).
    pub fn new(capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(BufferPool {
            capacity,
            state: Mutex::new(PoolState {
                frames: Vec::new(),
                table: HashMap::new(),
                free: Vec::new(),
                hand: 0,
            }),
            next_file: AtomicU32::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            resident_pages: AtomicUsize::new(0),
            pinned_pages: AtomicUsize::new(0),
        })
    }

    /// The configured frame budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A file id no other file paging through this pool has: the first
    /// half of that file's [`PageKey`]s.
    pub fn new_file_id(&self) -> u32 {
        self.next_file.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns `page` pinned, fetching (and possibly evicting) on miss.
    ///
    /// `fetch` produces the decoded block and its accounted byte size;
    /// it runs under the pool lock, so concurrent lookups of the same
    /// page fetch once. The guard keeps the frame pinned until dropped.
    ///
    /// # Errors
    ///
    /// Propagates `fetch`'s error; the pool is unchanged on failure.
    pub fn get(
        self: &Arc<Self>,
        page: PageKey,
        fetch: impl FnOnce() -> Result<(Arc<B>, usize), StoreError>,
    ) -> Result<PageGuard<B>, StoreError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&slot) = state.table.get(&page) {
            let frame = state.frames[slot].as_mut().expect("table points at empty slot");
            frame.referenced = true;
            if frame.pins == 0 {
                self.pinned_pages.fetch_add(1, Ordering::Relaxed);
            }
            frame.pins += 1;
            self.hits.fetch_add(1, Ordering::Relaxed);
            let block = Arc::clone(&frame.block);
            return Ok(PageGuard { pool: Arc::clone(self), slot, block });
        }

        // Miss: fetch under the lock (single-flight per page), then
        // find a slot — free list, growth up to capacity, clock sweep,
        // or overflow when everything is pinned.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (block, bytes) = fetch()?;
        let slot = match state.free.pop() {
            Some(slot) => slot,
            None if state.frames.len() < self.capacity => {
                state.frames.push(None);
                state.frames.len() - 1
            }
            None => match self.clock_evict(&mut state) {
                Some(slot) => slot,
                None => {
                    // Every frame pinned: overflow rather than fail.
                    state.frames.push(None);
                    state.frames.len() - 1
                }
            },
        };
        state.table.insert(page, slot);
        state.frames[slot] = Some(Frame {
            page,
            block: Arc::clone(&block),
            bytes,
            // Admitted *without* the reference bit: only a later hit
            // earns the second chance, so a one-touch scan cannot
            // flush pages that are actually being re-used.
            referenced: false,
            pins: 1,
        });
        self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.resident_pages.fetch_add(1, Ordering::Relaxed);
        self.pinned_pages.fetch_add(1, Ordering::Relaxed);
        Ok(PageGuard { pool: Arc::clone(self), slot, block })
    }

    /// Runs the clock hand until it frees a slot, or returns `None`
    /// after two full sweeps find only pinned frames.
    fn clock_evict(&self, state: &mut PoolState<B>) -> Option<usize> {
        let n = state.frames.len();
        debug_assert!(n > 0);
        // Two passes suffice: the first clears every referenced bit the
        // sweep crosses, so the second can only be stopped by pins.
        for _ in 0..2 * n {
            let slot = state.hand;
            state.hand = (state.hand + 1) % n;
            let Some(frame) = state.frames[slot].as_mut() else { continue };
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            let frame = state.frames[slot].take().expect("checked above");
            state.table.remove(&frame.page);
            self.resident_bytes.fetch_sub(frame.bytes, Ordering::Relaxed);
            self.resident_pages.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return Some(slot);
        }
        None
    }

    fn unpin(&self, slot: usize) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let frame = state.frames[slot].as_mut().expect("unpin of evicted frame");
        debug_assert!(frame.pins > 0);
        frame.pins -= 1;
        if frame.pins == 0 {
            self.pinned_pages.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// True if `page` is currently resident (regardless of pins).
    pub fn contains(&self, page: PageKey) -> bool {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.table.contains_key(&page)
    }

    /// Snapshot of the pool's counters and gauges.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity_pages: self.capacity,
            resident_pages: self.resident_pages.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            pinned_pages: self.pinned_pages.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl<B> std::fmt::Debug for BufferPool<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool").field("stats", &self.stats()).finish()
    }
}

/// A pinned page: dereferences to the block, unpins its frame on drop.
/// The frame cannot be evicted while any guard on it lives.
#[derive(Debug)]
pub struct PageGuard<B> {
    pool: Arc<BufferPool<B>>,
    slot: usize,
    block: Arc<B>,
}

impl<B> PageGuard<B> {
    /// A shared handle to the block that outlives the pin. The pool may
    /// evict the frame after the guard drops; the returned `Arc` keeps
    /// the block itself alive regardless.
    pub fn share(&self) -> Arc<B> {
        Arc::clone(&self.block)
    }
}

impl<B> std::ops::Deref for PageGuard<B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.block
    }
}

impl<B> Drop for PageGuard<B> {
    fn drop(&mut self) {
        self.pool.unpin(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(v: u32) -> impl FnOnce() -> Result<(Arc<Vec<u32>>, usize), StoreError> {
        move || Ok((Arc::new(vec![v; 4]), 16))
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let pool = BufferPool::new(4);
        {
            let g = pool.get((0, 7), fetch(7)).unwrap();
            assert_eq!(*g, vec![7; 4]);
        }
        let g = pool.get((0, 7), || panic!("resident page refetched")).unwrap();
        assert_eq!(*g, vec![7; 4]);
        drop(g);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.resident_bytes, 16);
        assert_eq!(s.pinned_pages, 0);
    }

    #[test]
    fn capacity_bounds_residency() {
        let pool = BufferPool::new(3);
        for p in 0..10 {
            drop(pool.get((0, p), fetch(p)).unwrap());
        }
        let s = pool.stats();
        assert_eq!(s.resident_pages, 3);
        assert_eq!(s.resident_bytes, 48);
        assert_eq!(s.misses, 10);
        assert_eq!(s.evictions, 7);
    }

    #[test]
    fn second_chance_protects_hot_page() {
        let pool = BufferPool::new(2);
        drop(pool.get((0, 0), fetch(0)).unwrap());
        drop(pool.get((0, 1), fetch(1)).unwrap());
        // Re-reference page 0, then force an eviction: the sweep gives
        // 0 its second chance and takes 1.
        drop(pool.get((0, 0), || panic!("page 0 evicted")).unwrap());
        drop(pool.get((0, 2), fetch(2)).unwrap());
        assert!(pool.contains((0, 0)), "hot page lost its second chance");
        assert!(!pool.contains((0, 1)));
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let pool = BufferPool::new(2);
        let hold = pool.get((0, 0), fetch(0)).unwrap();
        for p in 1..6 {
            drop(pool.get((0, p), fetch(p)).unwrap());
        }
        assert!(pool.contains((0, 0)), "pinned page evicted");
        assert_eq!(*hold, vec![0; 4]);
        drop(hold);
        // Unpinned now; further pressure may take it.
        for p in 6..12 {
            drop(pool.get((0, p), fetch(p)).unwrap());
        }
        assert!(!pool.contains((0, 0)));
        assert!(pool.stats().resident_pages <= 2);
    }

    #[test]
    fn all_pinned_overflows_instead_of_deadlocking() {
        let pool = BufferPool::new(2);
        let a = pool.get((0, 0), fetch(0)).unwrap();
        let b = pool.get((0, 1), fetch(1)).unwrap();
        let c = pool.get((0, 2), fetch(2)).unwrap();
        let s = pool.stats();
        assert_eq!(s.resident_pages, 3, "overflow frame admitted");
        assert_eq!(s.pinned_pages, 3);
        drop((a, b, c));
        assert_eq!(pool.stats().pinned_pages, 0);
        // The overflow frame is reclaimable once unpinned.
        for p in 3..8 {
            drop(pool.get((0, p), fetch(p)).unwrap());
        }
        assert!(pool.stats().resident_pages <= 3);
    }

    #[test]
    fn fetch_error_leaves_pool_unchanged() {
        let pool = BufferPool::<Vec<u32>>::new(2);
        let err = pool.get((0, 9), || Err(StoreError::Truncated("page"))).unwrap_err();
        assert!(matches!(err, StoreError::Truncated("page")));
        let s = pool.stats();
        assert_eq!(s.resident_pages, 0);
        assert_eq!(s.misses, 1);
        assert!(!pool.contains((0, 9)));
    }

    #[test]
    fn files_do_not_collide_on_record_indices() {
        let pool = BufferPool::new(4);
        let (a, b) = (pool.new_file_id(), pool.new_file_id());
        assert_ne!(a, b);
        drop(pool.get((a, 0), fetch(1)).unwrap());
        // Same record index, other file: a miss, not file a's block.
        assert_eq!(*pool.get((b, 0), fetch(2)).unwrap(), vec![2; 4]);
        assert_eq!(*pool.get((a, 0), || panic!("resident page refetched")).unwrap(), vec![1; 4]);
    }

    #[test]
    fn share_outlives_eviction() {
        let pool = BufferPool::new(1);
        let shared = pool.get((0, 0), fetch(0)).unwrap().share();
        drop(pool.get((0, 1), fetch(1)).unwrap());
        assert!(!pool.contains((0, 0)));
        assert_eq!(*shared, vec![0; 4], "evicted block stays alive via Arc");
    }
}
