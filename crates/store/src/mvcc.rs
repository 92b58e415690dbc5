//! The store's vocabulary — [`Op`], [`StoreOptions`], the key/value
//! bounds, the file-name constants, [`apply_ops`] — and the
//! single-shard handle [`PacStore`] with its [`Snapshot`] view.
//!
//! The MVCC machinery itself (group commit, write-ahead logging,
//! recovery, checkpoints, pins and GC) lives once, in the engine behind
//! [`ShardedStore`]; a `PacStore` is that engine with one shard:
//!
//! * **Writers** submit batches of [`Op`]s to [`PacStore::commit`];
//!   batches queued concurrently ride one tree update — puts and
//!   deletes down the tree together, in one pass ([`apply_ops`]) — and
//!   one log write (see [`ShardedStore::commit`]).
//! * **Readers** never block on writers: pinning a version is one `Arc`
//!   clone of the store's version object under a briefly-held lock. A
//!   pinned [`Snapshot`] stays alive and consistent no matter how many
//!   versions are committed — or evicted from history — after it.
//! * **Versions** are retained in a bounded history for time-travel
//!   reads ([`PacStore::snapshot_at`]); structural sharing between
//!   consecutive versions makes this cheap (`O(log n)` fresh nodes per
//!   version, the paper's path-copying bound).
//!
//! `PacStore` is a [`Deref`] handle on its engine: the methods that
//! return its own types (constructors, [`Snapshot`]s) and the point
//! calls benchmarks name by path are its own, and everything else
//! (`put`, `save`, `pin_version`, `gc`, ...) is [`ShardedStore`]'s,
//! reached through `Deref`.

use std::ops::Deref;
use std::path::Path;

use codecs::{BlockIo, ByteEncode, Codec, RawCodec};
use cpam::{Element, NoAug, PacMap, ScalarKey, DEFAULT_B};

use crate::error::StoreError;
use crate::router::Router;
use crate::shard::{ShardedSnapshot, ShardedStore};

/// Key bound for [`PacStore`]: ordered (a PaC-tree key) and
/// byte-encodable (for the log and snapshot formats).
pub trait StoreKey: ScalarKey + ByteEncode {}
impl<T: ScalarKey + ByteEncode> StoreKey for T {}

/// Value bound for [`PacStore`]: storable and byte-encodable.
pub trait StoreValue: Element + ByteEncode {}
impl<T: Element + ByteEncode> StoreValue for T {}

/// One write operation in a commit batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op<K, V> {
    /// Insert or overwrite `key -> value`.
    Put(K, V),
    /// Remove `key` (a no-op if absent).
    Delete(K),
}

/// Tag byte of an encoded [`Op::Put`].
pub(crate) const OP_PUT: u8 = 0;
/// Tag byte of an encoded [`Op::Delete`].
pub(crate) const OP_DELETE: u8 = 1;

/// The op grammar of the log and the wire: a tag byte (`0` put, `1`
/// delete), the key, then the value of a put; any other tag is
/// malformed.
impl<K: ByteEncode, V: ByteEncode> ByteEncode for Op<K, V> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Op::Put(k, v) => {
                out.push(OP_PUT);
                k.write(out);
                v.write(out);
            }
            Op::Delete(k) => {
                out.push(OP_DELETE);
                k.write(out);
            }
        }
    }
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            OP_PUT => Some(Op::Put(K::try_read(buf, pos)?, V::try_read(buf, pos)?)),
            OP_DELETE => K::try_read(buf, pos).map(Op::Delete),
            _ => None,
        }
    }
}

/// Tunables for a [`PacStore`] or [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Leaf block size of the state tree (paper default 128). Ignored
    /// when opening an existing snapshot, which records its own.
    pub block_size: usize,
    /// How many versions the history keeps for `snapshot_at`, pinned
    /// ones included: a commit evicts the oldest unpinned versions
    /// until at most this many remain, so each pinned version takes one
    /// of the slots (at 2, with version 1 pinned, only version 1 and the
    /// current one survive). Pinned versions are never evicted, so pins
    /// alone can hold the history above the limit. [`gc`]'s
    /// [`RetentionPolicy::keep_last`] counts differently: it keeps pins
    /// on top of its window.
    ///
    /// [`gc`]: crate::ShardedStore::gc
    /// [`RetentionPolicy::keep_last`]: crate::RetentionPolicy::keep_last
    pub history_limit: usize,
    /// If true, a torn or corrupt log tail, or an incomplete last
    /// commit group, fails `open` instead of being truncated away.
    pub strict_log: bool,
    /// If true, every commit group is `fsync`ed (`sync_data`) to disk
    /// before it is acknowledged — surviving power loss, at a large
    /// per-group latency cost. When false (default), log records are
    /// flushed to the OS only: they survive a process crash but not a
    /// machine crash.
    pub fsync_commits: bool,
    /// The *read policy* for a shard's page files — never what a
    /// checkpoint writes, which is the same bytes either way. `Some(n)`:
    /// opens are lazy — `O(structure)` I/O up front for the full
    /// snapshot and every incremental link, leaf records streamed
    /// through the shard's `n`-page [`crate::BufferPool`] on first
    /// access, resident cache bytes bounded by the budget (out-of-core
    /// operation). `None` (default): opens are eager — every leaf
    /// record read, CRC-verified and adopted resident.
    ///
    /// `Default::default()` seeds this from the `PAC_POOL_PAGES`
    /// environment variable when set to a positive integer — CI runs
    /// the store suite under `PAC_POOL_PAGES` 8 and 64 to put
    /// forced-eviction paging behind every test that doesn't pin a
    /// policy explicitly.
    pub pool_pages: Option<usize>,
}

/// `PAC_POOL_PAGES` as a pool budget: a positive integer selects lazy
/// reads through that many pages; unset/invalid/zero means `None`.
fn pool_pages_from_env() -> Option<usize> {
    std::env::var("PAC_POOL_PAGES")
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            block_size: DEFAULT_B,
            history_limit: 64,
            strict_log: false,
            fsync_commits: false,
            pool_pages: pool_pages_from_env(),
        }
    }
}

/// File name of the full snapshot page inside a shard directory.
pub const SNAPSHOT_FILE: &str = "snapshot.pac";
/// Incremental chains this long are collapsed into a full page by
/// [`ShardedStore::compact`] even when their links are tiny: each link
/// costs a read pass at `open`. (Heavy links end a chain sooner: once
/// they weigh as much as the full page.)
pub(crate) const MAX_INCR_CHAIN: usize = 16;
/// File name of the store's one append-only batch log, at the root of
/// its directory.
pub const LOG_FILE: &str = "wal.pac";
/// File name of the advisory lock inside a store directory: held for a
/// handle's lifetime so two handles (or processes) can never interleave
/// versions in one log.
pub const LOCK_FILE: &str = "lock.pac";

/// An immutable view of one store version, pinned for as long as it
/// lives. Obtained from [`PacStore::snapshot`] / [`PacStore::snapshot_at`].
///
/// A one-shard [`ShardedSnapshot`] with the shard's map in view:
/// [`Snapshot::map`] is the [`PacMap`], and `Deref` gives the rest
/// (`version`, `get`, `len`, ...).
pub struct Snapshot<K, V, C = RawCodec>(ShardedSnapshot<K, V, C>)
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>;

impl<K, V, C> Clone for Snapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn clone(&self) -> Self {
        Snapshot(self.0.clone())
    }
}

impl<K, V, C> Snapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    /// The underlying map, for the full query interface (ranges,
    /// map-reduce, iteration, ...).
    pub fn map(&self) -> &PacMap<K, V, NoAug, C> {
        self.0.shard_map(0)
    }
}

impl<K, V, C> Deref for Snapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    type Target = ShardedSnapshot<K, V, C>;

    fn deref(&self) -> &ShardedSnapshot<K, V, C> {
        &self.0
    }
}

impl<K, V, C> std::fmt::Debug for Snapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Snapshot").field(&self.0).finish()
    }
}

/// The single-shard store: a versioned, persistent key-value store
/// whose state is one [`PacMap`].
///
/// A `PacStore` is a handle on a [`ShardedStore`] built with
/// [`Router::single`] — it has no locks, files or queues of its own. It
/// derefs to the engine, and a durable `PacStore` directory *is* a
/// one-shard [`ShardedStore`] directory (either handle opens it). What
/// the handle adds is the single-map view: a [`Snapshot`] exposes the
/// shard's [`PacMap`] directly.
///
/// Handles are cheap to clone and share one store; all methods take
/// `&self`. See the [crate docs](crate) for an end-to-end example.
pub struct PacStore<K, V, C = RawCodec>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    engine: ShardedStore<K, V, C>,
}

impl<K, V, C> Clone for PacStore<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn clone(&self) -> Self {
        PacStore {
            engine: self.engine.clone(),
        }
    }
}

impl<K, V, C> std::fmt::Debug for PacStore<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PacStore").field(&self.engine).finish()
    }
}

impl<K, V, C> Deref for PacStore<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    type Target = ShardedStore<K, V, C>;

    fn deref(&self) -> &ShardedStore<K, V, C> {
        &self.engine
    }
}

/// Applies a batch to a map as one [`PacMap::multi_update_owned`]: the
/// last op per key wins (ops are in submission order), and puts and
/// deletes go down each touched path together. Used identically by
/// commit and by log replay, for every shard, so a replayed store
/// converges to the same state.
///
/// Consumes the working map: the group leader hands over its private
/// clone, so the update frees or reuses whatever spine nodes the leader
/// exclusively owns (cpam's refcount-1 fast path). No snapshot can pin
/// the working tree mid-commit: readers only ever pin published
/// versions under the state lock.
pub(crate) fn apply_ops<K, V, C>(
    map: PacMap<K, V, NoAug, C>,
    ops: impl IntoIterator<Item = Op<K, V>>,
) -> PacMap<K, V, NoAug, C>
where
    K: ScalarKey,
    V: Element,
    C: Codec<(K, V)>,
{
    map.multi_update_owned(
        ops.into_iter()
            .map(|op| match op {
                Op::Put(k, v) => (k, Some(v)),
                Op::Delete(k) => (k, None),
            })
            .collect(),
    )
}

impl<K, V, C> PacStore<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    /// An empty, ephemeral store (no directory: `save` is an error).
    pub fn in_memory() -> Self {
        Self::in_memory_with(StoreOptions::default())
    }

    /// [`PacStore::in_memory`] with explicit options.
    pub fn in_memory_with(opts: StoreOptions) -> Self {
        PacStore {
            engine: ShardedStore::ephemeral(Router::single(), opts),
        }
    }

    /// Opens (or creates) a durable store in `dir`; see
    /// [`ShardedStore::open_or_create`].
    ///
    /// # Errors
    ///
    /// Everything [`ShardedStore::open_or_create`] returns;
    /// [`StoreError::PartitionMismatch`] in particular when `dir` holds
    /// a store of more than one shard.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`PacStore::open`] with explicit options.
    ///
    /// # Errors
    ///
    /// See [`PacStore::open`].
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Self, StoreError> {
        ShardedStore::open_or_create(dir, Router::single(), opts).map(|engine| PacStore { engine })
    }

    /// See [`ShardedStore::commit`].
    ///
    /// # Errors
    ///
    /// See [`ShardedStore::commit`].
    pub fn commit(&self, ops: Vec<Op<K, V>>) -> Result<u64, StoreError> {
        self.engine.commit(ops)
    }

    /// Pins the current version: one `Arc` clone, never blocked by
    /// writers beyond a brief lock for the pointer copy.
    pub fn snapshot(&self) -> Snapshot<K, V, C> {
        Snapshot(self.engine.snapshot())
    }

    /// Pins a historical version (time-travel read).
    ///
    /// # Errors
    ///
    /// See [`ShardedStore::snapshot_at`].
    pub fn snapshot_at(&self, version: u64) -> Result<Snapshot<K, V, C>, StoreError> {
        self.engine.snapshot_at(version).map(Snapshot)
    }

    /// See [`ShardedStore::get`].
    pub fn get(&self, k: &K) -> Option<V> {
        self.engine.get(k)
    }

    /// See [`ShardedStore::range_entries`].
    pub fn range_entries(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        self.engine.range_entries(lo, hi)
    }

    /// See [`ShardedStore::compact`].
    ///
    /// # Errors
    ///
    /// See [`ShardedStore::compact`].
    pub fn compact(&self) -> Result<u64, StoreError> {
        self.engine.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_read_back() {
        let store: PacStore<u64, u64> = PacStore::in_memory();
        assert_eq!(store.current_version(), 0);
        let v1 = store.commit(vec![Op::Put(1, 10), Op::Put(2, 20)]).unwrap();
        assert_eq!(v1, 1);
        let v2 = store.commit(vec![Op::Delete(1), Op::Put(3, 30)]).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(store.get(&1), None);
        assert_eq!(store.get(&2), Some(20));
        assert_eq!(store.get(&3), Some(30));
    }

    #[test]
    fn last_op_wins_within_a_batch() {
        let store: PacStore<u64, u64> = PacStore::in_memory();
        store
            .commit(vec![
                Op::Put(5, 1),
                Op::Put(5, 2),
                Op::Delete(5),
                Op::Put(5, 3),
            ])
            .unwrap();
        assert_eq!(store.get(&5), Some(3));
        store.commit(vec![Op::Put(6, 1), Op::Delete(6)]).unwrap();
        assert_eq!(store.get(&6), None);
    }

    #[test]
    fn snapshots_pin_versions() {
        let store: PacStore<u64, u64> = PacStore::in_memory();
        store.put(1, 100).unwrap();
        let pinned = store.snapshot();
        store.put(1, 200).unwrap();
        store.delete(1).unwrap();
        assert_eq!(pinned.get(&1), Some(100));
        assert_eq!(pinned.version(), 1);
        assert_eq!(store.get(&1), None);
        // Time travel through retained history.
        assert_eq!(store.snapshot_at(2).unwrap().get(&1), Some(200));
        assert_eq!(store.versions(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn history_is_bounded_but_pins_survive() {
        let opts = StoreOptions {
            history_limit: 3,
            ..StoreOptions::default()
        };
        let store: PacStore<u64, u64> = PacStore::in_memory_with(opts);
        store.put(0, 0).unwrap();
        let pinned = store.snapshot();
        for i in 1..10u64 {
            store.put(i, i).unwrap();
        }
        assert_eq!(store.versions().len(), 3);
        assert!(matches!(
            store.snapshot_at(1),
            Err(StoreError::VersionNotFound(1))
        ));
        // The pin still reads version 1 even though history evicted it.
        assert_eq!(pinned.version(), 1);
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned.get(&0), Some(0));
    }

    #[test]
    fn concurrent_commits_all_land() {
        let store: PacStore<u64, u64> = PacStore::in_memory();
        let threads = 8;
        let per_thread = 50;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let k = (t * per_thread + i) as u64;
                        store.commit(vec![Op::Put(k, k * 2)]).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), threads * per_thread);
        for k in 0..(threads * per_thread) as u64 {
            assert_eq!(store.get(&k), Some(k * 2), "key {k}");
        }
        // Group commit coalesces: version count <= commit count.
        assert!(store.current_version() <= (threads * per_thread) as u64);
    }
}
