//! A capped buffer pool of decoded leaf blocks — the one owner of leaf
//! residency behind lazily opened stores.
//!
//! A [`BufferPool`] holds up to `capacity` *frames*, each caching one
//! decoded page (an `Arc<B>` plus its byte accounting), keyed by
//! [`PageKey`] so every page file of a shard's chain shares one budget.
//! A lazy leaf keeps no handle of its own: *every* access to it is a
//! [`BufferPool::get`], so `hits`, `misses` and the reference bits
//! describe what the queries actually did, and `capacity` is a hard
//! bound on what the pool holds. A walk that reads every leaf once (a
//! checkpoint writing a lazily opened tree in full) goes through
//! [`BufferPool::get_once`] instead: it counts its hits and misses but
//! admits nothing, so it cannot flush the pages queries re-use.
//!
//! Eviction is **clock** (second chance): every hit sets a referenced
//! bit (admission does not, so one-touch scans are evicted before
//! re-used pages); the clock hand sweeps frames clearing bits and evicts
//! the first unreferenced frame it finds — at most two revolutions.
//!
//! The returned `Arc` is the pin. "Eviction" only drops the pool's
//! strong `Arc`: a query still holding the block keeps it alive until
//! it finishes, so eviction bounds *pool-owned* memory without
//! invalidating in-flight readers, and there is no unpin step — a
//! lookup takes the pool lock exactly once.
//!
//! Stats (hits/misses/evictions plus resident gauges) are plain atomics
//! so metric scrapes never contend with the page path.

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
}

/// Table + frames behind one mutex: the page path takes it once per
/// lookup, metric reads never do.
struct PoolState<B> {
    /// Occupied frames; grows to `capacity`, then slots are recycled.
    frames: Vec<Frame<B>>,
    /// page key -> slot index.
    table: HashMap<PageKey, usize>,
    /// Clock hand: next slot the eviction sweep examines.
    hand: usize,
}

/// Point-in-time pool statistics. Counters are monotone; gauges are
/// instantaneous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured frame budget.
    pub capacity_pages: usize,
    /// Frames currently holding a page; never above `capacity_pages`.
    pub resident_pages: usize,
    /// Accounted bytes of resident pages.
    pub resident_bytes: usize,
    /// Lookups served from a resident frame.
    pub hits: u64,
    /// Lookups that had to fetch.
    pub misses: u64,
    /// Frames dropped by the clock sweep.
    pub evictions: u64,
}

/// A capped, clock-evicting cache of decoded pages. See the module
/// docs for the policy.
pub struct BufferPool<B> {
    capacity: usize,
    state: Mutex<PoolState<B>>,
    next_file: AtomicU32,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicUsize,
    resident_pages: AtomicUsize,
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
                hand: 0,
            }),
            next_file: AtomicU32::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            resident_pages: AtomicUsize::new(0),
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

    /// Returns `page`'s block, fetching (and possibly evicting) on miss.
    ///
    /// `fetch` produces the decoded block and its accounted byte size;
    /// it runs under the pool lock, so concurrent lookups of the same
    /// page fetch once. Holding the returned `Arc` is what keeps the
    /// block alive; the frame itself may be evicted at any later lookup.
    ///
    /// # Errors
    ///
    /// Propagates `fetch`'s error; the pool is unchanged on failure.
    pub fn get(
        &self,
        page: PageKey,
        fetch: impl FnOnce() -> Result<(Arc<B>, usize), StoreError>,
    ) -> Result<Arc<B>, StoreError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&slot) = state.table.get(&page) {
            let frame = &mut state.frames[slot];
            frame.referenced = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&frame.block));
        }

        // Miss: fetch under the lock (single-flight per page), then
        // take a new frame while under capacity, else the clock's victim.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (block, bytes) = fetch()?;
        let frame = Frame {
            page,
            block: Arc::clone(&block),
            bytes,
            // Admitted *without* the reference bit: only a later hit
            // earns the second chance, so a one-touch scan cannot
            // flush pages that are actually being re-used.
            referenced: false,
        };
        let slot = if state.frames.len() < self.capacity {
            state.frames.push(frame);
            self.resident_pages.fetch_add(1, Ordering::Relaxed);
            state.frames.len() - 1
        } else {
            let slot = Self::clock_victim(&mut state);
            let evicted = std::mem::replace(&mut state.frames[slot], frame);
            state.table.remove(&evicted.page);
            self.resident_bytes
                .fetch_sub(evicted.bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            slot
        };
        state.table.insert(page, slot);
        self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(block)
    }

    /// Returns `page`'s block for a caller that reads it once: from its
    /// frame if it is resident (a hit), else fetched for the caller alone
    /// (a miss). Nothing is admitted, evicted or marked referenced, so a
    /// walk over every page — a checkpoint writing a lazily opened tree
    /// in full — leaves residency and the clock as it found them.
    /// `fetch` runs outside the pool lock.
    ///
    /// # Errors
    ///
    /// Propagates `fetch`'s error; the pool is unchanged on failure.
    pub fn get_once(
        &self,
        page: PageKey,
        fetch: impl FnOnce() -> Result<(Arc<B>, usize), StoreError>,
    ) -> Result<Arc<B>, StoreError> {
        let resident = {
            let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state
                .table
                .get(&page)
                .map(|&slot| Arc::clone(&state.frames[slot].block))
        };
        if let Some(block) = resident {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(block);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        fetch().map(|(block, _)| block)
    }

    /// Runs the clock hand to the first unreferenced frame, clearing the
    /// bits it crosses — so it stops within two revolutions.
    fn clock_victim(state: &mut PoolState<B>) -> usize {
        loop {
            let slot = state.hand;
            state.hand = (state.hand + 1) % state.frames.len();
            let frame = &mut state.frames[slot];
            if !frame.referenced {
                return slot;
            }
            frame.referenced = false;
        }
    }

    /// True if `page` is currently resident.
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
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl<B> std::fmt::Debug for BufferPool<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("stats", &self.stats())
            .finish()
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
        assert_eq!(*pool.get((0, 7), fetch(7)).unwrap(), vec![7; 4]);
        let again = pool
            .get((0, 7), || panic!("resident page refetched"))
            .unwrap();
        assert_eq!(*again, vec![7; 4]);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.resident_bytes, 16);
    }

    #[test]
    fn capacity_bounds_residency_whatever_callers_hold() {
        let pool = BufferPool::new(3);
        // Holding every returned handle pins the blocks, not the frames:
        // the pool itself never goes over budget.
        let held: Vec<_> = (0..10)
            .map(|p| pool.get((0, p), fetch(p)).unwrap())
            .collect();
        let s = pool.stats();
        assert_eq!(s.resident_pages, 3);
        assert_eq!(s.resident_bytes, 48);
        assert_eq!(s.misses, 10);
        assert_eq!(s.evictions, 7);
        assert!(held.iter().zip(0..).all(|(b, p)| **b == vec![p; 4]));
    }

    #[test]
    fn second_chance_protects_hot_page() {
        let pool = BufferPool::new(2);
        pool.get((0, 0), fetch(0)).unwrap();
        pool.get((0, 1), fetch(1)).unwrap();
        // Re-reference page 0, then force an eviction: the sweep gives
        // 0 its second chance and takes 1.
        pool.get((0, 0), || panic!("page 0 evicted")).unwrap();
        pool.get((0, 2), fetch(2)).unwrap();
        assert!(pool.contains((0, 0)), "hot page lost its second chance");
        assert!(!pool.contains((0, 1)));
        // The chance is spent: one more cold page takes 0.
        pool.get((0, 3), fetch(3)).unwrap();
        assert!(!pool.contains((0, 0)));
    }

    #[test]
    fn fetch_error_leaves_pool_unchanged() {
        let pool = BufferPool::<Vec<u32>>::new(2);
        let err = pool
            .get((0, 9), || Err(StoreError::Truncated("page")))
            .unwrap_err();
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
        pool.get((a, 0), fetch(1)).unwrap();
        // Same record index, other file: a miss, not file a's block.
        assert_eq!(*pool.get((b, 0), fetch(2)).unwrap(), vec![2; 4]);
        assert_eq!(
            *pool
                .get((a, 0), || panic!("resident page refetched"))
                .unwrap(),
            vec![1; 4]
        );
    }

    #[test]
    fn get_once_serves_resident_frames_and_admits_nothing() {
        let pool = BufferPool::new(2);
        pool.get((0, 0), fetch(0)).unwrap();
        pool.get((0, 1), fetch(1)).unwrap();
        let before = pool.stats();
        assert_eq!(
            *pool
                .get_once((0, 1), || panic!("resident page refetched"))
                .unwrap(),
            vec![1; 4]
        );
        for p in 2..10 {
            assert_eq!(*pool.get_once((0, p), fetch(p)).unwrap(), vec![p; 4]);
        }
        let s = pool.stats();
        assert_eq!((s.hits - before.hits, s.misses - before.misses), (1, 8));
        assert_eq!(
            (s.evictions, s.resident_pages, s.resident_bytes),
            (0, 2, 32)
        );
        assert!(pool.contains((0, 0)) && pool.contains((0, 1)) && !pool.contains((0, 2)));
        // The hit set no reference bit: the clock still takes page 0 first.
        pool.get((0, 10), fetch(10)).unwrap();
        assert!(!pool.contains((0, 0)) && pool.contains((0, 1)));
        assert!(matches!(
            pool.get_once((0, 11), || Err(StoreError::Truncated("page"))),
            Err(StoreError::Truncated("page"))
        ));
    }

    #[test]
    fn share_outlives_eviction() {
        let pool = BufferPool::new(1);
        let shared = pool.get((0, 0), fetch(0)).unwrap();
        pool.get((0, 1), fetch(1)).unwrap();
        assert!(!pool.contains((0, 0)));
        assert_eq!(*shared, vec![0; 4], "evicted block stays alive via Arc");
    }
}
