//! The store engine: N independent MVCC shards over disjoint key
//! ranges, with atomic cross-shard batch commits. There is exactly one
//! engine — [`crate::PacStore`] is a handle on the one-shard case
//! ([`Router::single`]), with the same directory layout, commit
//! protocol, recovery walk and checkpoint routine as any other shard
//! count.
//!
//! Each shard owns a PaC-tree state and a snapshot page chain in a
//! `shard-NNN/` subdirectory, so independent key ranges commit with
//! independent tree updates, applied **in parallel** with
//! [`parlay::join`] once the batch can pay for a fork (the same
//! batch-parallel ethos as the paper's `multi_insert`, scaled out across
//! trees; a commit-sized batch stays on the committing thread, see
//! `par_for_shards`). What makes the composite a single store rather
//! than N stores is its one write-ahead log, [`LOG_FILE`] at the store
//! root. A commit is:
//!
//! 1. **Apply** — a global commit id `g` is assigned, the batch is
//!    split by key range ([`crate::Router`]), and each participating
//!    shard encodes one log record tagged with `g` and the full
//!    participant list, then applies its sub-batch.
//! 2. **Append** — the group's records, in ascending shard order, go
//!    out in one append (`fsync`ed when [`StoreOptions::fsync_commits`]
//!    is set). The group's last byte is the commit point.
//! 3. **Publish** — one new [`Version`] (the participants' new maps,
//!    every other shard's map shared with the base) is pushed onto the
//!    history under one state lock, so readers see all of it or none.
//!
//! Writers meet in a group-commit queue: the first to arrive becomes
//! the *leader*, drains every batch queued so far and runs the three
//! steps once for the whole group; followers wait for their ticket.
//!
//! Recovery (open) loads the page chains and makes one forward pass
//! over the log: a record whose shard's pages already reach it is
//! skipped, a record one version past them is applied, anything else
//! is a [`StoreError::VersionGap`]. A group whose records stop at the
//! end of the log — a crash mid-append — is dropped whole, so a global
//! commit is never partially visible.
//!
//! Checkpoints ([`ShardedStore::save`], [`ShardedStore::save_incremental`],
//! [`ShardedStore::compact`]) are one routine under three page
//! policies: capture the committed version vector, write per-shard
//! pages (full, incremental, or nothing for an unchanged shard) with
//! commits still flowing, then briefly exclude writers to rewrite the
//! log as a *head* — one op-less record per shard at the captured
//! local versions — followed by the groups published since.
//!
//! Readers get cross-shard snapshot isolation: [`ShardedStore::snapshot`]
//! pins one consistent version vector (one `Arc` clone of the version)
//! and never observes a half-published commit.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use codecs::{BlockIo, RawCodec};
use cpam::{NoAug, PacMap};
use parking_lot::{Condvar, Mutex};

use crate::error::StoreError;
use crate::lifecycle::{self, GcStats, LifecycleStats, RetentionPolicy, VersionRegistry};
use crate::metrics::StoreMetrics;
use crate::mvcc::{
    apply_ops, Op, StoreKey, StoreOptions, StoreValue, LOCK_FILE, LOG_FILE, MAX_INCR_CHAIN,
    SNAPSHOT_FILE,
};
use crate::page;
use crate::router::{Router, PARTITION_FILE};
use crate::wal;

/// Name of shard `i`'s subdirectory inside a store directory.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

/// The root file of the layout before a store kept one log: a manifest
/// beside a log in every shard directory.
const LEGACY_MANIFEST: &str = "manifest.pac";

// ---------------------------------------------------------------------
// Parallel helpers
// ---------------------------------------------------------------------

/// Applies `f` to every item, collecting results in item order. The
/// shard fan-out primitive for commit/save/open; items are moved into
/// `f`, so a commit hands each shard its sub-batch without a copy.
///
/// `work` is what the whole fan-out costs, in [`parlay::FORK_FLOOR`]'s
/// unit (entries of tree work). Below the floor every `f` runs on the
/// calling thread: off the pool, entering it is an injection, a wake-up
/// and a blocking wait, more than a commit-sized apply costs. At or above
/// it the items run in parallel on the pool via binary forking
/// ([`parlay::join`]). Callers whose work is not tree work (open,
/// checkpoint) pass `usize::MAX`.
fn par_for_shards<T: Send, R: Send>(
    items: Vec<T>,
    work: usize,
    f: &(impl Fn(T) -> R + Sync),
) -> Vec<R> {
    fn rec<T: Send, R: Send>(mut items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
        if items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let right = items.split_off(items.len() / 2);
        let (mut l, r) = parlay::join(|| rec(items, f), || rec(right, f));
        l.extend(r);
        l
    }
    if items.is_empty() || work < parlay::FORK_FLOOR {
        return items.into_iter().map(f).collect();
    }
    parlay::run(|| rec(items, f))
}

// ---------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------

/// The durable half of a store: the log handle commits append through
/// and a checkpoint reads the groups it keeps from, and the log's byte
/// length. `len` is where the last published group ends — set at open,
/// after each append and after each rewrite — so an append rolls back
/// to it without asking the file. `poisoned` means an append failure
/// could not be rolled back: the stranded partial group would hide
/// every later group at replay, so commits are refused until a
/// checkpoint rewrites the log and clears the flag.
struct Log {
    file: File,
    len: u64,
    poisoned: bool,
}

impl Log {
    /// Replaces the log at `path` with `head` followed by the groups
    /// appended after byte `from`, up to `len` (stranded bytes of a
    /// failed append past it are left out, which heals a poisoned log).
    /// Returns the number of bytes dropped.
    fn rewrite(&mut self, path: &Path, mut head: Vec<u8>, from: u64) -> Result<u64, StoreError> {
        let at = head.len();
        head.resize(at + (self.len - from) as usize, 0);
        (&self.file).seek(SeekFrom::Start(from))?;
        (&self.file).read_exact(&mut head[at..])?;
        // Until the write succeeds the handle stays on the old file
        // (unlinked once the rename went through) and `len` is still its
        // length, so the next rewrite reads the right bytes from it.
        self.file = page::write_file_atomic(path, &head)?;
        let dropped = self.len - (head.len() - at) as u64;
        self.len = head.len() as u64;
        Ok(dropped)
    }
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// An immutable cross-shard view: one consistent version vector, pinned
/// for as long as it lives. Obtained from [`ShardedStore::snapshot`] /
/// [`ShardedStore::snapshot_at`].
pub struct ShardedSnapshot<K, V, C = RawCodec>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    version: Arc<Version<K, V, C>>,
    router: Arc<Router<K>>,
}

impl<K, V, C> Clone for ShardedSnapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn clone(&self) -> Self {
        ShardedSnapshot {
            version: Arc::clone(&self.version),
            router: Arc::clone(&self.router),
        }
    }
}

impl<K, V, C> ShardedSnapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    /// The global commit id this snapshot pinned.
    pub fn version(&self) -> u64 {
        self.version.global
    }

    /// The per-shard local versions this snapshot pinned (one entry per
    /// shard, in shard order).
    pub fn version_vector(&self) -> &[u64] {
        &self.version.locals
    }

    /// The value under `k` at this version vector.
    pub fn get(&self, k: &K) -> Option<V> {
        self.version.maps[self.router.shard_of(k)].find(k)
    }

    /// True if `k` exists at this version vector.
    pub fn contains_key(&self, k: &K) -> bool {
        self.version.maps[self.router.shard_of(k)].contains_key(k)
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.version.maps.iter().map(PacMap::len).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.version.maps.iter().all(PacMap::is_empty)
    }

    /// All entries in global key order (shards hold contiguous ranges,
    /// so concatenating per-shard entries in shard order is sorted).
    pub fn to_vec(&self) -> Vec<(K, V)> {
        // The first shard's vector is the output; later shards append
        // to it (a one-shard store copies nothing).
        let (first, rest) = self
            .version
            .maps
            .split_first()
            .expect("a router has at least one shard");
        let mut out = first.to_vec();
        out.reserve(rest.iter().map(PacMap::len).sum());
        for m in rest {
            out.extend(m.to_vec());
        }
        out
    }

    /// The entries with keys in `[lo, hi]`, in key order, in one vector:
    /// [`ShardedSnapshot::range_for_each`] collected.
    pub fn range_entries(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        let _ = self.range_for_each(lo, hi, |e| {
            out.push(e.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// Feeds the entries with keys in `[lo, hi]` to `f` in global key
    /// order — the overlapping shards only, in shard order, each through
    /// [`PacMap::range_for_each`] — and stops as soon as `f` breaks;
    /// returns `Break` iff it did. A read that stops after `k` entries
    /// touches the leaves holding them, not the rest of the range.
    pub fn range_for_each(
        &self,
        lo: &K,
        hi: &K,
        mut f: impl FnMut(&(K, V)) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for s in self.router.shards_overlapping(lo, hi) {
            self.version.maps[s].range_for_each(lo, hi, &mut f)?;
        }
        ControlFlow::Continue(())
    }

    /// The map backing shard `i`, for the full per-range query
    /// interface.
    pub fn shard_map(&self, i: usize) -> &PacMap<K, V, NoAug, C> {
        &self.version.maps[i]
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.version.maps.len()
    }
}

impl<K, V, C> std::fmt::Debug for ShardedSnapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.version.fmt(f)
    }
}

/// One store version: the global commit id, the per-shard local
/// versions and the per-shard maps at it. A commit publishes one, and
/// a snapshot, the history, a checkpoint capture and a commit's base
/// each hold it as one `Arc`.
pub(crate) struct Version<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    global: u64,
    locals: Box<[u64]>,
    maps: Box<[PacMap<K, V, NoAug, C>]>,
}

/// The versions a commit group evicted from the history, freed by its
/// leader once the group's results are posted.
type Evicted<K, V, C> = Vec<Arc<Version<K, V, C>>>;

impl<K, V, C> Clone for Version<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn clone(&self) -> Self {
        Version {
            global: self.global,
            locals: self.locals.clone(),
            maps: self.maps.clone(),
        }
    }
}

impl<K, V, C> std::fmt::Debug for Version<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Version")
            .field("version", &self.global)
            .field("version_vector", &self.locals)
            .field("len", &self.maps.iter().map(PacMap::len).sum::<usize>())
            .finish()
    }
}

/// Retained versions, oldest first. The back is always the current
/// version: the store keeps no other copy of it.
type History<K, V, C> = VecDeque<Arc<Version<K, V, C>>>;

/// Which pages one checkpoint writes (see [`ShardedStore::checkpoint`]).
#[derive(Clone, Copy)]
enum PagePolicy {
    /// A full page for every shard ([`ShardedStore::save`]).
    Full,
    /// An incremental page for every changed shard, however long its
    /// chain, diffed against the checkpoint at this global commit id —
    /// which must be the latest ([`ShardedStore::save_incremental`]).
    Incremental(u64),
    /// Incremental while a shard's chain is light, full once its links
    /// weigh as much as its full page or number [`MAX_INCR_CHAIN`]
    /// ([`ShardedStore::compact`]; see [`ShardCheckpoint::extends`]).
    Chain,
}

/// One shard's latest persisted checkpoint: the version its on-disk
/// page chain reaches, the pinned tree at that version (the base the
/// next incremental page diffs against — pinning it keeps its nodes
/// shared, so pointer identity against it is sound), and the chain's
/// length and bytes (what [`PagePolicy::Chain`] weighs).
struct ShardCheckpoint<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    version: u64,
    map: PacMap<K, V, NoAug, C>,
    /// Incremental links past the full page.
    chain_len: usize,
    /// Bytes of the full page's file.
    full_bytes: u64,
    /// Total bytes of the links' files.
    chain_bytes: u64,
}

impl<K, V, C> ShardCheckpoint<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    /// Whether [`PagePolicy::Chain`] writes this shard's next page as a
    /// link of its chain: only while the links weigh less than the full
    /// page, so the shard's pages stay under two full pages plus one link
    /// on disk, and while they number fewer than [`MAX_INCR_CHAIN`], so
    /// `open`'s chain walk stays short when links are tiny.
    fn extends(&self) -> bool {
        self.chain_bytes < self.full_bytes && self.chain_len < MAX_INCR_CHAIN
    }
}

/// The sharded store's checkpoint state: the global commit id the last
/// checkpoint covered plus one optional pin per shard (`None` until the
/// shard's first page is written).
struct Checkpoints<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    global: Option<u64>,
    shards: Vec<Option<ShardCheckpoint<K, V, C>>>,
}

impl<K, V, C> Checkpoints<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn empty(shards: usize) -> Self {
        Checkpoints {
            global: None,
            shards: (0..shards).map(|_| None).collect(),
        }
    }
}

struct CommitQueue<K, V> {
    pending: Vec<(u64, Vec<Op<K, V>>)>,
    next_ticket: u64,
    results: HashMap<u64, Result<u64, String>>,
    leader_running: bool,
}

struct Inner<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    opts: StoreOptions,
    router: Arc<Router<K>>,
    dir: Option<PathBuf>,
    /// Held for the lifetime of this store's handles; the OS releases
    /// the advisory lock when the file closes, even on a crash.
    _dir_lock: Option<File>,
    /// Lock order: `checkpoints` before `log` before `state`. Leaders
    /// hold `log` across apply, append *and* publish, so under it the
    /// log's length is where the last published group ends; a
    /// checkpoint holds `checkpoints` for its whole cycle, so the pins
    /// and the pages on disk can never interleave.
    checkpoints: Mutex<Checkpoints<K, V, C>>,
    /// `None` for an in-memory store: nothing to log.
    log: Mutex<Option<Log>>,
    state: Mutex<History<K, V, C>>,
    commit: Mutex<CommitQueue<K, V>>,
    commit_cv: Condvar,
    registry: VersionRegistry,
    lifecycle: Mutex<LifecycleStats>,
    /// Pre-resolved observability handles (see [`crate::metrics`]); hot
    /// paths record via relaxed atomics only.
    metrics: Arc<StoreMetrics>,
    /// Per-shard page caches behind lazy opens; entries are `Some`
    /// exactly when [`StoreOptions::pool_pages`] is set on a durable
    /// store. A shard's full snapshot and its incremental links share
    /// its pool; independent pools keep shard opens and query paging
    /// embarrassingly parallel (no shared lock).
    pools: Vec<Option<Arc<crate::pool::BufferPool<C::Block>>>>,
}

/// A versioned, persistent key-value store partitioned into N
/// independent MVCC shards by key range, with atomic cross-shard batch
/// commits (one log append per commit group, whose last byte is the
/// commit point; recovery drops an incomplete last group — see
/// DESIGN.md §6).
///
/// Handles are cheap to clone and share one store; all methods take
/// `&self`.
///
/// ```
/// use store::{Op, Router, ShardedStore};
///
/// let store: ShardedStore<u64, u64> =
///     ShardedStore::in_memory(Router::uniform_span(4, 1000)).unwrap();
///
/// // One commit spanning several shards: atomic, one global version.
/// let v1 = store
///     .commit((0..1000).map(|k| Op::Put(k, k)).collect())
///     .unwrap();
/// assert_eq!(v1, 1);
/// assert_eq!(store.len(), 1000);
///
/// // Snapshots pin a consistent version vector across all shards.
/// let snap = store.snapshot();
/// store.commit(vec![Op::Delete(0), Op::Put(999, 7)]).unwrap();
/// assert_eq!(snap.get(&0), Some(0));
/// assert_eq!(snap.version_vector().len(), 4);
/// ```
pub struct ShardedStore<K, V, C = RawCodec>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    inner: Arc<Inner<K, V, C>>,
}

impl<K, V, C> Clone for ShardedStore<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn clone(&self) -> Self {
        ShardedStore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K, V, C> std::fmt::Debug for ShardedStore<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.inner.router.shard_count())
            .field("current", &self.current())
            .field("dir", &self.inner.dir)
            .finish()
    }
}

impl<K, V, C> ShardedStore<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    /// Assembles a store from its opened parts; `durable` is the
    /// directory, its held advisory lock and the log (`None` for an
    /// in-memory store).
    fn from_parts(
        opts: StoreOptions,
        router: Router<K>,
        durable: Option<(PathBuf, File, Log)>,
        state: History<K, V, C>,
        checkpoints: Checkpoints<K, V, C>,
        registry: VersionRegistry,
        pools: Vec<Option<Arc<crate::pool::BufferPool<C::Block>>>>,
    ) -> Self {
        let metrics = StoreMetrics::new(router.shard_count());
        if durable.is_some() {
            for (i, pin) in checkpoints.shards.iter().enumerate() {
                let (links, bytes) = pin
                    .as_ref()
                    .map_or((0, 0), |ck| (ck.chain_len, ck.chain_bytes));
                metrics.set_chain(i, links, bytes);
            }
        }
        let (dir, dir_lock, log) = match durable {
            Some((dir, lock, log)) => (Some(dir), Some(lock), Some(log)),
            None => (None, None, None),
        };
        ShardedStore {
            inner: Arc::new(Inner {
                opts,
                router: Arc::new(router),
                dir,
                _dir_lock: dir_lock,
                checkpoints: Mutex::new(checkpoints),
                log: Mutex::new(log),
                state: Mutex::new(state),
                commit: Mutex::new(CommitQueue {
                    pending: Vec::new(),
                    next_ticket: 0,
                    results: HashMap::new(),
                    leader_running: false,
                }),
                commit_cv: Condvar::new(),
                registry,
                lifecycle: Mutex::new(LifecycleStats::default()),
                metrics,
                pools,
            }),
        }
    }

    /// The current version: the history's back, one `Arc` clone under
    /// the state lock.
    fn current(&self) -> Arc<Version<K, V, C>> {
        let history = self.inner.state.lock();
        Arc::clone(history.back().expect("history is never empty"))
    }

    /// An empty, ephemeral sharded store (no directory: `save` is an
    /// error).
    ///
    /// # Errors
    ///
    /// Currently none (the router is already validated); fallible for
    /// signature stability with the durable constructors.
    pub fn in_memory(router: Router<K>) -> Result<Self, StoreError> {
        Self::in_memory_with(router, StoreOptions::default())
    }

    /// [`ShardedStore::in_memory`] with explicit options.
    ///
    /// # Errors
    ///
    /// See [`ShardedStore::in_memory`].
    pub fn in_memory_with(router: Router<K>, opts: StoreOptions) -> Result<Self, StoreError> {
        Ok(Self::ephemeral(router, opts))
    }

    /// The infallible body of [`ShardedStore::in_memory_with`].
    pub(crate) fn ephemeral(router: Router<K>, opts: StoreOptions) -> Self {
        let shards = router.shard_count();
        let empty = Version {
            global: 0,
            locals: vec![0; shards].into(),
            maps: (0..shards)
                .map(|_| PacMap::with_block_size(opts.block_size))
                .collect(),
        };
        Self::from_parts(
            opts,
            router,
            None,
            VecDeque::from([Arc::new(empty)]),
            Checkpoints::empty(shards),
            VersionRegistry::default(),
            vec![None; shards],
        )
    }

    /// Opens an existing sharded store in `dir`, recovering the routing
    /// from the persisted partition map.
    ///
    /// # Errors
    ///
    /// [`StoreError::PartitionMismatch`] when `dir` has no partition
    /// map; otherwise see [`ShardedStore::open_or_create`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`ShardedStore::open`] with explicit options.
    ///
    /// # Errors
    ///
    /// See [`ShardedStore::open`].
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        if !dir.join(PARTITION_FILE).exists() {
            return Err(StoreError::PartitionMismatch(format!(
                "{} has no partition map; create the store with open_or_create",
                dir.display()
            )));
        }
        Self::open_impl(dir, None, opts)
    }

    /// Opens the sharded store in `dir`, creating it with `router`'s
    /// partitioning if the directory holds no partition map yet. When
    /// the store already exists, the *persisted* partition map wins —
    /// `router` is checked against it and a mismatch is a typed error
    /// (re-partitioning an existing store would misroute its data).
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another handle holds the directory;
    /// [`StoreError::PartitionMismatch`] when `router` disagrees with
    /// the persisted map; [`StoreError::LegacyLayout`] when `dir` holds
    /// a pre-sharding flat store instead of a partition map, a manifest
    /// and per-shard logs instead of one log, or a shard directory an
    /// earlier build's paged snapshot; every integrity error of
    /// [`crate::decode_snapshot`] for a shard's pages;
    /// [`StoreError::SchemaMismatch`] for log records of other
    /// key/value types; [`StoreError::VersionGap`] when the log
    /// references versions the pages no longer reach;
    /// [`StoreError::Corrupt`] for a malformed group, an incomplete
    /// group followed by a later one, and — under
    /// [`StoreOptions::strict_log`] — a torn tail or an incomplete last
    /// group.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        router: Router<K>,
        opts: StoreOptions,
    ) -> Result<Self, StoreError> {
        Self::open_impl(dir.as_ref(), Some(router), opts)
    }

    fn open_impl(
        dir: &Path,
        router: Option<Router<K>>,
        opts: StoreOptions,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;

        // The layout before one log per store: a manifest at the root
        // and a log in every shard directory. Refused before anything
        // is written, so the directory stays as it was.
        let legacy_log = Path::new(&shard_dir_name(0)).join(LOG_FILE);
        if let Some(found) = [Path::new(LEGACY_MANIFEST), legacy_log.as_path()]
            .into_iter()
            .find(|f| dir.join(f).exists())
        {
            return Err(StoreError::LegacyLayout(format!(
                "{} holds {}: a store with a manifest and a log per shard, which this build does \
                 not read (a store keeps one {LOG_FILE} at its root)",
                dir.display(),
                found.display(),
            )));
        }

        // One exclusive advisory lock for the whole directory: without
        // it, two live handles would each assign versions independently
        // and interleave them in the same logs — acknowledged commits
        // would vanish at replay.
        let dir_lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))?;
        match dir_lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => return Err(StoreError::Locked),
            Err(std::fs::TryLockError::Error(e)) => return Err(e.into()),
        }

        // Partition map: persisted one wins; a supplied router must
        // agree with it.
        let partition_path = dir.join(PARTITION_FILE);
        let router = if partition_path.exists() {
            let persisted = Router::<K>::load(&partition_path)?;
            if let Some(given) = router {
                if given != persisted {
                    return Err(StoreError::PartitionMismatch(format!(
                        "supplied router ({} shards) differs from the persisted partition map \
                         ({} shards or different boundaries)",
                        given.shard_count(),
                        persisted.shard_count()
                    )));
                }
            }
            persisted
        } else {
            let router = router.ok_or_else(|| {
                StoreError::PartitionMismatch(format!(
                    "{} has no partition map; create the store with open_or_create",
                    dir.display()
                ))
            })?;
            // Pages or a log at the root with no partition map is the
            // flat layout `PacStore` wrote before it became the
            // one-shard case of this engine. Creating a fresh store
            // here would shadow that data and later overwrite it.
            let flat = [SNAPSHOT_FILE, LOG_FILE]
                .into_iter()
                .find(|f| dir.join(f).exists())
                .or(page::legacy_page_file(dir))
                .or(page::list_incr_files(dir)?
                    .first()
                    .map(|_| "incremental pages"));
            if let Some(found) = flat {
                return Err(StoreError::LegacyLayout(format!(
                    "{} holds {found} at its root and no {PARTITION_FILE}: a flat \
                     single-directory store, which this build does not read (pages live in \
                     `shard-NNN/` subdirectories under a partition map)",
                    dir.display(),
                )));
            }
            router.save(&partition_path)?;
            router
        };
        let shards = router.shard_count();

        // Load shard page chains (full page plus incrementals) in
        // parallel. `None` chain length = no pages yet. With a pool
        // budget configured, each shard gets its own page cache and
        // every file of its chain opens lazily through it.
        let pools: Vec<Option<Arc<crate::pool::BufferPool<C::Block>>>> = (0..shards)
            .map(|_| opts.pool_pages.map(crate::pool::BufferPool::new))
            .collect();
        type Loaded<K, V, C> = Vec<Result<Option<page::Chain<PacMap<K, V, NoAug, C>>>, StoreError>>;
        let loaded: Loaded<K, V, C> = {
            let pools = &pools;
            par_for_shards((0..shards).collect(), usize::MAX, &move |i| {
                let sdir = dir.join(shard_dir_name(i));
                std::fs::create_dir_all(&sdir)?;
                page::load_chain(&sdir, pools[i].as_ref())
            })
        };
        let loaded = loaded.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Pin each shard's checkpoint *before* log replay mutates the
        // maps: the pinned clone is the diff base for the next
        // incremental page, and must be exactly what the pages decode
        // to. The chain's length and bytes are those of the files the
        // load applied.
        let checkpoint_pins: Vec<Option<ShardCheckpoint<K, V, C>>> = loaded
            .iter()
            .map(|chain| {
                chain.as_ref().map(|c| ShardCheckpoint {
                    version: c.version,
                    map: c.tree.clone(),
                    chain_len: c.links,
                    full_bytes: c.full_bytes,
                    chain_bytes: c.link_bytes,
                })
            })
            .collect();
        let loaded: Vec<(PacMap<K, V, NoAug, C>, u64)> = loaded
            .into_iter()
            .map(|chain| match chain {
                Some(c) => (c.tree, c.version),
                None => (PacMap::with_block_size(opts.block_size), 0),
            })
            .collect();

        // Pins persisted by a previous handle, loaded *before* the
        // recovery walk: its history eviction must honor them or a
        // pinned global commit silently vanishes across a reopen.
        let registry = VersionRegistry::from_pins(lifecycle::load_pins(dir)?);

        // Replay the log: one forward pass over its groups.
        let log_path = dir.join(LOG_FILE);
        let bytes = if log_path.exists() {
            std::fs::read(&log_path)?
        } else {
            Vec::new()
        };
        let expected = crate::checksum::schema_id::<(K, V)>();
        let replay = wal::replay::<K, V>(&bytes, expected);
        if let Some(found) = replay.schema_mismatch {
            return Err(StoreError::SchemaMismatch { found, expected });
        }
        if let Some(found) = replay.format_mismatch {
            return Err(StoreError::Corrupt(format!(
                "log record format {found:#04x}, this build reads {:#04x}",
                wal::LOG_FORMAT
            )));
        }

        // The version the log replays onto. Local versions never exceed
        // the global commit counter, so the pages give a floor even for
        // a log that lost its head.
        let mut cur = Version {
            global: loaded.iter().map(|&(_, v)| v).max().unwrap_or(0),
            locals: loaded.iter().map(|&(_, v)| v).collect(),
            maps: loaded.into_iter().map(|(m, _)| m).collect(),
        };
        // The global id of the log's last head: the checkpoint the
        // pages were written for.
        let mut checkpoint_global = 0;
        let mut history: History<K, V, C> = VecDeque::new();
        // Same pin-aware eviction as the commit path: a pinned commit
        // must survive the recovery walk exactly as it survives live
        // commits.
        let push = |history: &mut History<K, V, C>, version: Version<K, V, C>| {
            history.push_back(Arc::new(version));
            drop(lifecycle::evict_history(
                history,
                opts.history_limit,
                |v| v.global,
                &registry,
            ));
        };
        // Where the last complete group ends: a torn tail or an
        // incomplete last group after it is dropped.
        let mut keep = replay.valid_len;
        let mut records = replay.records.into_iter().zip(replay.offsets).peekable();
        while let Some((first, offset)) = records.next() {
            let g = first.global;
            let participants = first.participants.clone();
            let mut group = vec![first];
            while let Some((rec, _)) = records.next_if(|(rec, _)| rec.global == g) {
                group.push(rec);
            }
            let well_formed = group.iter().all(|rec| rec.participants == participants)
                && participants.windows(2).all(|w| w[0] < w[1])
                && participants.last().is_none_or(|&p| (p as usize) < shards)
                && (!participants.is_empty() || group.iter().all(|rec| rec.ops.is_empty()));
            let size = participants.len().max(1);
            if well_formed && group.len() < size && records.peek().is_none() {
                // A crash mid-append: the group never reached its
                // commit point.
                keep = offset;
                break;
            }
            if !well_formed || group.len() != size {
                return Err(StoreError::Corrupt(format!(
                    "log group {g} at byte {offset}: {} records for participants \
                     {participants:?}",
                    group.len()
                )));
            }
            let head = !participants.is_empty() && group.iter().all(|rec| rec.ops.is_empty());
            let mut applied = false;
            for (rec, &p) in group.into_iter().zip(&participants) {
                let s = p as usize;
                if rec.version <= cur.locals[s] {
                    continue;
                }
                // Local versions advance by exactly one per group a
                // shard is in, and a head record only restates where
                // the pages must already be: anything else means the
                // pages lost history the log no longer holds.
                if rec.ops.is_empty() || rec.version != cur.locals[s] + 1 {
                    return Err(StoreError::VersionGap {
                        checkpoint: cur.locals[s],
                        first: rec.version,
                    });
                }
                if !applied && history.back().is_none_or(|v| v.global != cur.global) {
                    push(&mut history, cur.clone());
                }
                applied = true;
                cur.maps[s] = apply_ops(std::mem::take(&mut cur.maps[s]), rec.ops);
                cur.locals[s] = rec.version;
            }
            if head {
                checkpoint_global = g;
            }
            if g > cur.global {
                cur.global = g;
                if applied {
                    push(&mut history, cur.clone());
                }
            }
        }
        // The back of the history must always be the current version.
        if history
            .back()
            .is_none_or(|v| v.global != cur.global || v.locals != cur.locals)
        {
            push(&mut history, cur);
        }

        if keep < bytes.len() && opts.strict_log {
            return Err(StoreError::Corrupt(format!(
                "torn log tail or incomplete commit group after byte {keep} of {}",
                bytes.len()
            )));
        }
        let existed = log_path.exists();
        let file = page::open_append(&log_path)?;
        if !existed {
            // Persist the directory entry; appended commits sync only
            // the file's data.
            page::fsync_dir(dir)?;
        }
        if keep < bytes.len() {
            file.set_len(keep as u64)?;
        }

        let checkpoints = Checkpoints {
            global: checkpoint_pins
                .iter()
                .any(Option::is_some)
                .then_some(checkpoint_global),
            shards: checkpoint_pins,
        };
        let log = Log {
            file,
            len: keep as u64,
            poisoned: false,
        };
        Ok(Self::from_parts(
            opts,
            router,
            Some((dir.to_path_buf(), dir_lock, log)),
            history,
            checkpoints,
            registry,
            pools,
        ))
    }

    /// Submits one batch and blocks until it is in the log and visible
    /// in a published version vector; returns the global commit id.
    /// Batches queued concurrently are applied together by a group
    /// leader — one parallel fan-out over shards and one log append for
    /// the whole group.
    ///
    /// Within a batch and across a group, later ops win per key.
    ///
    /// # Errors
    ///
    /// [`StoreError::CommitFailed`] when the group's log append failed;
    /// no version is published in that case.
    pub fn commit(&self, ops: Vec<Op<K, V>>) -> Result<u64, StoreError> {
        let inner = &self.inner;
        let enqueued = Instant::now();
        let mut wait_ns = 0u64;
        let mut q = inner.commit.lock();
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.pending.push((ticket, ops));
        let mut evicted = Vec::new();
        let result = loop {
            if let Some(result) = q.results.remove(&ticket) {
                break result;
            }
            if q.leader_running {
                let parked = Instant::now();
                inner.commit_cv.wait(&mut q);
                wait_ns += parked.elapsed().as_nanos() as u64;
                continue;
            }
            q.leader_running = true;
            let group = std::mem::take(&mut q.pending);
            drop(q);
            let tickets: Vec<u64> = group.iter().map(|(t, _)| *t).collect();
            let all_ops: Vec<Op<K, V>> = group.into_iter().flat_map(|(_, ops)| ops).collect();
            let outcome = match self.apply_group(all_ops) {
                Ok((version, old)) => {
                    evicted = old;
                    Ok(version)
                }
                Err(e) => Err(e.to_string()),
            };
            q = inner.commit.lock();
            q.leader_running = false;
            for t in tickets {
                q.results.insert(t, outcome.clone());
            }
            inner.commit_cv.notify_all();
        };
        drop(q);
        // A leader frees the versions its group evicted only now, with
        // the group's results posted and the next leader free to start,
        // and outside every lock: the walk frees every node only they own
        // and runs their values' `Drop`s. Off the pool it never forks
        // (cpam's `drop_heavy`), so it stays on this thread.
        drop(evicted);
        inner.metrics.ticket_wait.record(wait_ns);
        inner.metrics.commit.record_duration(enqueued.elapsed());
        result.map_err(StoreError::CommitFailed)
    }

    /// Shorthand for committing a single [`Op::Put`].
    ///
    /// # Errors
    ///
    /// See [`ShardedStore::commit`].
    pub fn put(&self, key: K, value: V) -> Result<u64, StoreError> {
        self.commit(vec![Op::Put(key, value)])
    }

    /// Shorthand for committing a single [`Op::Delete`].
    ///
    /// # Errors
    ///
    /// See [`ShardedStore::commit`].
    pub fn delete(&self, key: K) -> Result<u64, StoreError> {
        self.commit(vec![Op::Delete(key)])
    }

    /// Applies one commit group: range-split, parallel per-shard tree
    /// updates, one log append, one published version vector. Returns the
    /// group's global commit id and the versions it evicted from the
    /// history, for the caller to drop once the group's results are out.
    fn apply_group(&self, all_ops: Vec<Op<K, V>>) -> Result<(u64, Evicted<K, V, C>), StoreError> {
        let inner = &self.inner;
        let mut log_guard = inner.log.lock();
        if log_guard.as_ref().is_some_and(|log| log.poisoned) {
            return Err(StoreError::LogPoisoned);
        }
        // The leader's base: the current version, which stays current
        // until this group publishes, since publishing takes `log`.
        let base = self.current();
        let g = base.global + 1;

        // Range-split the group; participants are the shards with ops.
        let work: Vec<(usize, Vec<Op<K, V>>)> = inner
            .router
            .split_ops(all_ops)
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .collect();
        let participants: Vec<u32> = work.iter().map(|&(i, _)| i as u32).collect();

        // Fan-out: per participating shard, encode its record from the
        // sub-batch, then move the sub-batch into the tree update — in
        // parallel on the pool only if the batch can touch more than a
        // fork's worth of entries (one leaf of <= 2B per op, plus the op:
        // the bound of cpam's own batch work), on this thread otherwise.
        let durable = log_guard.is_some();
        let schema = crate::checksum::schema_id::<(K, V)>();
        let ops: usize = work.iter().map(|(_, ops)| ops.len()).sum();
        let tree_work = ops.saturating_mul(2 * inner.opts.block_size + 1);
        let apply_start = Instant::now();
        let results = {
            let (base, participants) = (&base, &participants);
            par_for_shards(work, tree_work, &move |(shard, ops)| {
                let record = if durable {
                    wal::encode_record(base.locals[shard] + 1, g, participants, schema, &ops)
                } else {
                    Vec::new()
                };
                // Hand the leader's private clone of the shard map to the
                // consuming path (the published original stays in the
                // base version, untouched).
                (shard, apply_ops(base.maps[shard].clone(), ops), record)
            })
        };
        inner.metrics.apply.record_duration(apply_start.elapsed());

        // Durability before visibility: the group's records go out in
        // one append, so its last byte is the commit point. An empty
        // group is one op-less record with no participants.
        if let Some(log) = log_guard.as_mut() {
            let group = if results.is_empty() {
                wal::encode_record::<K, V>(0, g, &[], schema, &[])
            } else {
                results
                    .iter()
                    .map(|(_, _, record)| record.as_slice())
                    .collect::<Vec<_>>()
                    .concat()
            };
            match wal::append_bytes(&mut log.file, log.len, &group, inner.opts.fsync_commits) {
                Ok(timings) => {
                    log.len += group.len() as u64;
                    inner
                        .metrics
                        .record_wal_append(timings, inner.opts.fsync_commits);
                }
                Err(fail) => {
                    log.poisoned = fail.stranded;
                    return Err(fail.error.into());
                }
            }
        }

        // Publish atomically: one new version, whose non-participating
        // shards share the base's maps, pushed as one `Arc`.
        let mut next = Version::clone(&base);
        next.global = g;
        for (shard, map, _) in results {
            next.locals[shard] += 1;
            next.maps[shard] = map;
        }
        let next = Arc::new(next);
        let mut history = inner.state.lock();
        history.push_back(next);
        let evicted = lifecycle::evict_history(
            &mut history,
            inner.opts.history_limit,
            |v| v.global,
            &inner.registry,
        );
        drop(history);
        drop(log_guard);
        Ok((g, evicted))
    }

    /// Pins the current version vector: one `Arc` clone of the version
    /// under a briefly-held lock, with no allocation; never observes a
    /// half-published commit.
    pub fn snapshot(&self) -> ShardedSnapshot<K, V, C> {
        self.inner.metrics.snapshots.inc();
        ShardedSnapshot {
            version: self.current(),
            router: Arc::clone(&self.inner.router),
        }
    }

    /// Pins the version vector of a historical global commit
    /// (cross-shard time travel).
    ///
    /// # Errors
    ///
    /// [`StoreError::VersionNotFound`] if `global` is older than the
    /// retained history (or never existed).
    pub fn snapshot_at(&self, global: u64) -> Result<ShardedSnapshot<K, V, C>, StoreError> {
        self.inner.metrics.snapshots.inc();
        let history = self.inner.state.lock();
        let found = history.iter().rev().find(|v| v.global == global);
        let version = Arc::clone(found.ok_or(StoreError::VersionNotFound(global))?);
        drop(history);
        Ok(ShardedSnapshot {
            version,
            router: Arc::clone(&self.inner.router),
        })
    }

    /// The global commit ids currently reachable via
    /// [`ShardedStore::snapshot_at`], oldest first.
    pub fn versions(&self) -> Vec<u64> {
        self.inner.state.lock().iter().map(|v| v.global).collect()
    }

    /// The current (latest committed) global commit id.
    pub fn current_version(&self) -> u64 {
        self.current().global
    }

    /// The current per-shard local versions, in shard order.
    pub fn version_vector(&self) -> Vec<u64> {
        self.current().locals.to_vec()
    }

    /// The value under `k` in the current version: pins the version
    /// (one `Arc` clone under the state lock, as
    /// [`ShardedStore::snapshot`] does) and searches the owning shard.
    pub fn get(&self, k: &K) -> Option<V> {
        let _span = obs::span!(self.inner.metrics.point_read);
        self.current().maps[self.inner.router.shard_of(k)].find(k)
    }

    /// The entries with keys in `[lo, hi]` in the current version, in
    /// key order: pins the version vector and delegates to
    /// [`ShardedSnapshot::range_entries`] (only overlapping shards are
    /// scanned).
    pub fn range_entries(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let _span = obs::span!(self.inner.metrics.range_read);
        self.snapshot().range_entries(lo, hi)
    }

    /// Total number of entries in the current version.
    pub fn len(&self) -> usize {
        self.current().maps.iter().map(PacMap::len).sum()
    }

    /// True if the current version is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.router.shard_count()
    }

    /// The shard owning `k`.
    pub fn shard_of(&self, k: &K) -> usize {
        self.inner.router.shard_of(k)
    }

    /// The partition map.
    pub fn router(&self) -> &Router<K> {
        &self.inner.router
    }

    /// A full checkpoint: writes every shard's snapshot page **in
    /// parallel** (superseding its incremental chain), then drops the
    /// log groups the pages cover. Returns the saved global commit id.
    ///
    /// # Errors
    ///
    /// [`StoreError::Ephemeral`] for in-memory stores; I/O errors (see
    /// [`ShardedStore::compact`] for what a failure leaves behind).
    pub fn save(&self) -> Result<u64, StoreError> {
        let _span = obs::span!(self.inner.metrics.save);
        self.checkpoint(PagePolicy::Full)
    }

    /// An incremental checkpoint: every shard that changed since the
    /// checkpoint at global commit `prev_version` writes one page
    /// diffed against its pinned root there, however long its chain;
    /// `open` chains the pages back onto the full ones. Returns the
    /// saved global commit id.
    ///
    /// `prev_version` must be the store's latest checkpoint (see
    /// [`ShardedStore::latest_checkpoint`]) — the diff is only sound
    /// against that pinned root. [`ShardedStore::compact`] automates
    /// the choice between this and a full [`ShardedStore::save`].
    ///
    /// # Errors
    ///
    /// [`StoreError::CheckpointMismatch`] when `prev_version` is not
    /// the latest checkpoint (or none exists);
    /// [`StoreError::Ephemeral`] for in-memory stores; I/O errors.
    pub fn save_incremental(&self, prev_version: u64) -> Result<u64, StoreError> {
        let _span = obs::span!(self.inner.metrics.save);
        self.checkpoint(PagePolicy::Incremental(prev_version))
    }

    /// One checkpoint-then-truncate cycle: persists the committed
    /// version vector — per shard, an incremental page diffed against
    /// the shard's pinned checkpoint while its links weigh less than its
    /// full page and number fewer than `MAX_INCR_CHAIN`, a full page
    /// otherwise (first checkpoint included), nothing at all for shards
    /// unchanged since their checkpoint — then drops the log groups the
    /// pages now cover. A shard's pages thus stay under two full pages
    /// plus one link on disk. Returns the checkpointed global commit id.
    ///
    /// # Errors
    ///
    /// [`StoreError::Ephemeral`] for in-memory stores; I/O errors. A
    /// failure during the log rewrite poisons the log
    /// (conservatively — the on-disk state stays recoverable); the next
    /// successful checkpoint heals it.
    pub fn compact(&self) -> Result<u64, StoreError> {
        let _span = obs::span!(self.inner.metrics.compact_pause);
        let global = self.checkpoint(PagePolicy::Chain)?;
        self.inner.lifecycle.lock().compactions += 1;
        Ok(global)
    }

    /// The checkpoint routine behind `save`, `save_incremental` and
    /// `compact`: capture the committed version vector, write the pages
    /// `policy` asks for, then rewrite the log.
    ///
    /// The page writes happen *outside* the log lock, so commits keep
    /// flowing while pages are encoded; only the final log rewrite
    /// briefly excludes writers. Groups appended during the page writes
    /// are past the captured version vector and survive it.
    fn checkpoint(&self, policy: PagePolicy) -> Result<u64, StoreError> {
        let inner = &self.inner;
        let dir = inner.dir.as_ref().ok_or(StoreError::Ephemeral)?;
        let mut ckpts = inner.checkpoints.lock();
        if let PagePolicy::Incremental(base) = policy {
            if ckpts.global != Some(base) {
                return Err(StoreError::CheckpointMismatch {
                    requested: base,
                    actual: ckpts.global,
                });
            }
        }

        // Capture the committed state to checkpoint, and `from`, where
        // its last group ends in the log: under the log lock no commit is
        // between its append and its publish, so the two agree. Commits
        // may land after this point; their groups follow `from`.
        let (version, from) = {
            let log = inner.log.lock();
            let from = log.as_ref().ok_or(StoreError::Ephemeral)?.len;
            (self.current(), from)
        };
        let Version {
            global,
            ref locals,
            ref maps,
        } = *version;
        let shards = maps.len();

        // ----- Phase 1: page writes, in parallel, no log lock. --------
        //
        // One writer: a page diffed against the shard's pinned base is
        // the next link of its chain, a page with no base is a full
        // snapshot and supersedes the chain; stale links that survive a
        // crash between the two steps are skipped by `open` (and
        // re-deleted next time).
        enum PageWrite {
            Skipped,
            Incremental(usize),
            Full(usize),
        }
        let pages_span = obs::span!(inner.metrics.compact_pages);
        let writes: Vec<Result<PageWrite, StoreError>> = {
            let pins = &ckpts.shards;
            par_for_shards((0..shards).collect(), usize::MAX, &move |i| {
                let sdir = dir.join(shard_dir_name(i));
                std::fs::create_dir_all(&sdir)?;
                let base = match policy {
                    PagePolicy::Full => None,
                    PagePolicy::Incremental(_) => pins[i].as_ref(),
                    PagePolicy::Chain => pins[i].as_ref().filter(|ck| ck.extends()),
                };
                if base.is_some_and(|ck| ck.version == locals[i]) {
                    return Ok(PageWrite::Skipped);
                }
                let bytes =
                    page::encode_page(&maps[i], base.map(|ck| (&ck.map, ck.version)), locals[i]);
                if base.is_some() {
                    page::write_file_atomic(&sdir.join(page::incr_file_name(locals[i])), &bytes)?;
                    Ok(PageWrite::Incremental(bytes.len()))
                } else {
                    page::write_file_atomic(&sdir.join(SNAPSHOT_FILE), &bytes)?;
                    page::remove_incr_files(&sdir)?;
                    Ok(PageWrite::Full(bytes.len()))
                }
            })
        };
        // Re-pin every shard whose page landed — even when another
        // shard failed, so the pins always match the on-disk chains
        // (the next incremental must diff against the newest link).
        let mut first_err = None;
        {
            let mut stats = inner.lifecycle.lock();
            for (i, w) in writes.into_iter().enumerate() {
                match w {
                    Ok(PageWrite::Skipped) => {}
                    Ok(PageWrite::Incremental(n)) => {
                        let ck = ckpts.shards[i]
                            .as_mut()
                            .expect("a link extends a pinned page");
                        ck.version = locals[i];
                        ck.map = maps[i].clone();
                        ck.chain_len += 1;
                        ck.chain_bytes += n as u64;
                        inner.metrics.set_chain(i, ck.chain_len, ck.chain_bytes);
                        stats.incremental_saves += 1;
                        stats.incremental_page_bytes += n as u64;
                    }
                    Ok(PageWrite::Full(n)) => {
                        ckpts.shards[i] = Some(ShardCheckpoint {
                            version: locals[i],
                            map: maps[i].clone(),
                            chain_len: 0,
                            full_bytes: n as u64,
                            chain_bytes: 0,
                        });
                        inner.metrics.set_chain(i, 0, 0);
                        stats.full_saves += 1;
                        stats.full_page_bytes += n as u64;
                    }
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
        }
        drop(pages_span);
        if let Some(e) = first_err {
            return Err(e);
        }
        ckpts.global = Some(global);

        // ----- Phase 2: rewrite the log, under the log lock. ---------
        //
        // The new log is the head — one op-less record per shard at the
        // captured local versions, tagged with the checkpoint's global
        // id — followed verbatim by the groups published since the
        // capture, which are exactly the bytes appended after `from`.
        // `write_file_atomic` swaps it in whole, so a crash leaves the old
        // log or the new one, and both recover against the pages just
        // written.
        let _truncate_span = obs::span!(inner.metrics.compact_truncate);
        let all: Vec<u32> = (0..shards as u32).collect();
        let schema = crate::checksum::schema_id::<(K, V)>();
        let head = locals
            .iter()
            .map(|&local| wal::encode_record::<K, V>(local, global, &all, schema, &[]))
            .collect::<Vec<_>>()
            .concat();
        let mut log_guard = inner.log.lock();
        let log = log_guard.as_mut().ok_or(StoreError::Ephemeral)?;
        let rewritten = log.rewrite(&dir.join(LOG_FILE), head, from);
        // A rewritten log is also a healed one; a failed rewrite poisons
        // it (conservatively — the disk stays recoverable) until the next
        // checkpoint goes through.
        log.poisoned = rewritten.is_err();
        let dropped = rewritten?;
        inner.lifecycle.lock().wal_bytes_truncated += dropped;
        Ok(global)
    }

    /// The global commit id of the latest persisted checkpoint (full
    /// pages plus incremental chains), or `None` if nothing was saved
    /// yet.
    pub fn latest_checkpoint(&self) -> Option<u64> {
        self.inner.checkpoints.lock().global
    }

    /// Pins global commit `version` against history eviction and
    /// [`ShardedStore::gc`]: [`ShardedStore::snapshot_at`] keeps
    /// working for it until every pin is released. Pins are counted.
    /// For a durable store the pin table is rewritten atomically, so
    /// the pin also survives a reopen (as long as the log still
    /// reaches the commit).
    ///
    /// # Errors
    ///
    /// [`StoreError::VersionNotFound`] when `version` is not currently
    /// in history (an evicted version cannot be resurrected); I/O
    /// errors persisting the pin table (the in-memory pin is rolled
    /// back, so memory and disk never disagree).
    pub fn pin_version(&self, version: u64) -> Result<(), StoreError> {
        let history = self.inner.state.lock();
        if !history.iter().any(|v| v.global == version) {
            return Err(StoreError::VersionNotFound(version));
        }
        self.inner.registry.pin(version);
        if let Some(dir) = &self.inner.dir {
            if let Err(e) = lifecycle::persist_pins(dir, &self.inner.registry) {
                self.inner.registry.unpin(version);
                return Err(e);
            }
        }
        drop(history);
        self.inner.metrics.pins.inc();
        Ok(())
    }

    /// Releases one pin on global commit `version`. Durable stores
    /// rewrite the pin table.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotPinned`] when `version` holds no pin; I/O
    /// errors persisting the pin table (the in-memory release is
    /// rolled back).
    pub fn unpin_version(&self, version: u64) -> Result<(), StoreError> {
        let history = self.inner.state.lock();
        if !self.inner.registry.unpin(version) {
            return Err(StoreError::NotPinned(version));
        }
        if let Some(dir) = &self.inner.dir {
            if let Err(e) = lifecycle::persist_pins(dir, &self.inner.registry) {
                self.inner.registry.pin(version);
                return Err(e);
            }
        }
        drop(history);
        self.inner.metrics.unpins.inc();
        Ok(())
    }

    /// The currently pinned global commit ids, ascending.
    pub fn pinned_versions(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.inner.registry.pinned().into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Drops retained history outside `policy`'s window (pinned
    /// versions and the current version always survive), releasing
    /// every shard subtree no surviving version shares. Space
    /// reclamation is the existing refcount machinery — dropping a
    /// version's root `Arc`s frees exactly its unshared nodes, counted
    /// in [`GcStats::nodes_reclaimed`].
    pub fn gc(&self, policy: RetentionPolicy) -> GcStats {
        let _span = obs::span!(self.inner.metrics.gc_pause);
        let keep = policy.keep_last.max(1);
        let mut dropped = Vec::new();
        let versions_retained;
        {
            let mut history = self.inner.state.lock();
            let pinned = self.inner.registry.pinned();
            let cut = history.len().saturating_sub(keep);
            for (i, version) in std::mem::take(&mut *history).into_iter().enumerate() {
                if i >= cut || pinned.contains(&version.global) {
                    history.push_back(version);
                } else {
                    dropped.push(version);
                }
            }
            versions_retained = history.len();
        }
        // Drop outside the state lock — freeing deep unshared versions
        // walks whole trees — and measure what came back.
        let versions_dropped = dropped.len();
        let before = cpam::stats::read();
        drop(dropped);
        let nodes_reclaimed = cpam::stats::read().delta(before).nodes_dropped;
        self.inner
            .metrics
            .gc_versions_dropped
            .add(versions_dropped as u64);
        self.inner.metrics.gc_nodes_reclaimed.add(nodes_reclaimed);
        let mut stats = self.inner.lifecycle.lock();
        stats.gc_runs += 1;
        stats.versions_dropped += versions_dropped as u64;
        stats.nodes_reclaimed += nodes_reclaimed;
        GcStats {
            versions_dropped,
            versions_retained,
            nodes_reclaimed,
        }
    }

    /// Cumulative lifecycle counters for this store handle.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        *self.inner.lifecycle.lock()
    }

    /// The store's directory (`None` for in-memory stores).
    pub fn dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// Per-shard page-cache statistics; `None` unless
    /// [`StoreOptions::pool_pages`] is set on a durable store.
    pub fn shard_pool_stats(&self) -> Option<Vec<crate::pool::PoolStats>> {
        let stats: Vec<_> = self
            .inner
            .pools
            .iter()
            .filter_map(|p| p.as_ref())
            .map(|p| p.stats())
            .collect();
        (!stats.is_empty()).then_some(stats)
    }

    /// Page-cache statistics summed across all shards; `None` unless
    /// [`StoreOptions::pool_pages`] is set on a durable store. Reading
    /// also publishes the summed snapshot into the metrics registry
    /// (`pacstore_pool_*` gauges and counters), so a scrape path that
    /// calls this before rendering gets fresh values.
    pub fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        let total = self.shard_pool_stats().map(|per_shard| {
            let mut total = crate::pool::PoolStats::default();
            for s in per_shard {
                total.capacity_pages += s.capacity_pages;
                total.resident_pages += s.resident_pages;
                total.resident_bytes += s.resident_bytes;
                total.hits += s.hits;
                total.misses += s.misses;
                total.evictions += s.evictions;
            }
            total
        });
        if let Some(s) = &total {
            self.inner.metrics.pool.publish(s);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pacshard-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mem(shards: usize) -> ShardedStore<u64, u64> {
        ShardedStore::in_memory(Router::uniform_span(shards, 1_000)).unwrap()
    }

    #[test]
    fn commit_routes_across_shards_and_reads_back() {
        let store = mem(4);
        assert_eq!(store.shard_count(), 4);
        let v = store
            .commit(vec![
                Op::Put(10, 1),
                Op::Put(300, 2),
                Op::Put(600, 3),
                Op::Put(900, 4),
            ])
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(store.version_vector(), vec![1, 1, 1, 1]);
        assert_eq!(store.get(&10), Some(1));
        assert_eq!(store.get(&300), Some(2));
        assert_eq!(store.get(&600), Some(3));
        assert_eq!(store.get(&900), Some(4));
        assert_eq!(store.len(), 4);

        // A commit touching one shard only advances that shard's local.
        store.commit(vec![Op::Put(11, 11)]).unwrap();
        assert_eq!(store.current_version(), 2);
        assert_eq!(store.version_vector(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn last_op_wins_across_the_whole_batch() {
        let store = mem(3);
        store
            .commit(vec![
                Op::Put(5, 1),
                Op::Put(500, 9),
                Op::Delete(5),
                Op::Put(5, 3),
            ])
            .unwrap();
        assert_eq!(store.get(&5), Some(3));
        assert_eq!(store.get(&500), Some(9));
    }

    #[test]
    fn snapshot_pins_consistent_version_vector() {
        let store = mem(2);
        store.commit(vec![Op::Put(1, 1), Op::Put(900, 1)]).unwrap();
        let snap = store.snapshot();
        store.commit(vec![Op::Put(1, 2), Op::Put(900, 2)]).unwrap();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.version_vector(), &[1, 1]);
        assert_eq!(snap.get(&1), Some(1));
        assert_eq!(snap.get(&900), Some(1));
        assert_eq!(store.get(&1), Some(2));
        // Time travel by global commit id.
        let back = store.snapshot_at(1).unwrap();
        assert_eq!(back.get(&900), Some(1));
        assert_eq!(store.versions(), vec![0, 1, 2]);
    }

    #[test]
    fn to_vec_is_globally_sorted_and_ranges_compose() {
        let store = mem(4);
        let keys = [999u64, 0, 250, 251, 750, 500, 123, 874];
        store
            .commit(keys.iter().map(|&k| Op::Put(k, k * 10)).collect())
            .unwrap();
        let snap = store.snapshot();
        let mut sorted: Vec<u64> = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(
            snap.to_vec(),
            sorted.iter().map(|&k| (k, k * 10)).collect::<Vec<_>>()
        );
        assert_eq!(
            snap.range_entries(&123, &750),
            sorted
                .iter()
                .filter(|&&k| (123..=750).contains(&k))
                .map(|&k| (k, k * 10))
                .collect::<Vec<_>>()
        );
        assert_eq!(snap.range_entries(&400, &300), Vec::new());
    }

    #[test]
    fn empty_commit_still_advances_the_global_clock() {
        let store = mem(2);
        let v = store.commit(Vec::new()).unwrap();
        assert_eq!(v, 1);
        assert_eq!(store.version_vector(), vec![0, 0]);
    }

    #[test]
    fn ephemeral_save_is_typed_error() {
        let store = mem(2);
        assert!(matches!(store.save(), Err(StoreError::Ephemeral)));
    }

    #[test]
    fn gc_respects_window_and_pins_across_shards() {
        let store = mem(3);
        let opts_limit = StoreOptions::default().history_limit;
        assert!(
            opts_limit >= 6,
            "test assumes the default window holds v0..=v5"
        );
        for i in 0..5u64 {
            store
                .commit(vec![Op::Put(i, i), Op::Put(900 + i, i)])
                .unwrap();
        }
        store.pin_version(2).unwrap();
        let stats = store.gc(RetentionPolicy::keep_last(1));
        assert_eq!(store.versions(), vec![2, 5]);
        assert_eq!(stats.versions_retained, 2);
        assert_eq!(stats.versions_dropped, 4);
        // The pinned cross-shard snapshot still reads consistently.
        let snap = store.snapshot_at(2).unwrap();
        assert_eq!(snap.get(&1), Some(1));
        assert_eq!(snap.get(&901), Some(1));
        assert_eq!(snap.get(&4), None);
        // Unpin, GC again: only the current version survives.
        store.unpin_version(2).unwrap();
        assert!(matches!(
            store.unpin_version(2),
            Err(StoreError::NotPinned(2))
        ));
        store.gc(RetentionPolicy::default());
        assert_eq!(store.versions(), vec![5]);
        assert!(matches!(
            store.snapshot_at(2),
            Err(StoreError::VersionNotFound(2))
        ));
        assert_eq!(store.lifecycle_stats().gc_runs, 2);
    }

    #[test]
    fn pinned_versions_survive_commit_time_eviction() {
        let opts = StoreOptions {
            history_limit: 2,
            ..StoreOptions::default()
        };
        let store: ShardedStore<u64, u64> =
            ShardedStore::in_memory_with(Router::uniform_span(2, 1_000), opts).unwrap();
        store.commit(vec![Op::Put(1, 1)]).unwrap();
        store.pin_version(1).unwrap();
        for i in 2..6u64 {
            store.commit(vec![Op::Put(i, i), Op::Put(990, i)]).unwrap();
        }
        // v1 is pinned; the window keeps the newest alongside it.
        assert_eq!(store.versions(), vec![1, 5]);
        assert_eq!(store.snapshot_at(1).unwrap().get(&1), Some(1));
        assert_eq!(store.pinned_versions(), vec![1]);
        // Pinning an evicted version is a typed error.
        assert!(matches!(
            store.pin_version(3),
            Err(StoreError::VersionNotFound(3))
        ));
    }

    /// The history's back is the current version and the only copy of
    /// it: `snapshot` and `snapshot_at` pin that one `Arc`. A version the
    /// history evicts is gone from `snapshot_at`, but a snapshot taken
    /// before the eviction keeps reading it.
    #[test]
    fn snapshots_share_the_published_version() {
        for shards in [1usize, 3] {
            let opts = StoreOptions {
                history_limit: 3,
                ..StoreOptions::default()
            };
            let store: ShardedStore<u64, u64> =
                ShardedStore::in_memory_with(Router::uniform_span(shards, 1_000), opts).unwrap();
            store.commit(vec![Op::Put(1, 1), Op::Put(900, 1)]).unwrap();
            let old = store.snapshot();
            for v in 2..=3u64 {
                store.commit(vec![Op::Put(1, v), Op::Put(900, v)]).unwrap();
            }
            assert_eq!(store.versions(), vec![1, 2, 3], "{shards} shards");

            let v = store.commit(vec![Op::Put(1, 4), Op::Put(500, 4)]).unwrap();
            assert_eq!(store.versions(), vec![2, 3, 4], "{shards} shards");
            let current = store.snapshot();
            let at = store.snapshot_at(v).unwrap();
            assert!(Arc::ptr_eq(&current.version, &at.version));
            assert!(Arc::ptr_eq(&current.version, &store.current()));
            assert!(matches!(
                store.snapshot_at(1),
                Err(StoreError::VersionNotFound(1))
            ));

            assert_eq!(old.version(), 1);
            assert_eq!(old.to_vec(), vec![(1, 1), (900, 1)]);
            let touched = |keys: &[u64]| {
                let mut locals = vec![0u64; shards];
                for k in keys {
                    locals[store.shard_of(k)] = 1;
                }
                locals
            };
            assert_eq!(old.version_vector(), touched(&[1, 900]));
            assert_eq!(current.to_vec(), vec![(1, 4), (500, 4), (900, 3)]);
        }
    }

    /// The bytes one cross-shard commit group appends to the log,
    /// pinned: a change to this literal is a log format change.
    #[test]
    fn a_commit_group_keeps_its_bytes() {
        let dir = scratch("group-bytes");
        let store = ShardedStore::<u64, String>::open_or_create(
            &dir,
            Router::uniform_span(3, 1_000),
            StoreOptions::default(),
        )
        .unwrap();
        let before = std::fs::read(dir.join(LOG_FILE)).unwrap().len();
        store
            .commit(vec![
                Op::Put(1, "one".into()),
                Op::Put(400, String::new()),
                Op::Delete(999),
                Op::Put(u64::MAX, "x".repeat(130)),
                Op::Put(1 << 35, "y".into()),
            ])
            .unwrap();
        let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        let group: String = log[before..].iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            group,
            concat!(
                "12a20194378c3e0103000102010001036f6e651374862010a20194378c3e010300010201",
                "0090030009e93ad6a701a20194378c3e01030001020301e70700ffffffffffffffffff01",
                "820178787878787878787878787878787878787878787878787878787878787878787878",
                "787878787878787878787878787878787878787878787878787878787878787878787878",
                "787878787878787878787878787878787878787878787878787878787878787878787878",
                "7878787878787878787878787878787878787878787878780080808080800101793f1d87",
                "f6",
            )
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_and_checkpoint_apis_are_typed_on_ephemeral_stores() {
        let store = mem(2);
        assert!(matches!(store.compact(), Err(StoreError::Ephemeral)));
        assert_eq!(store.latest_checkpoint(), None);
    }

    /// A checkpoint whose log rewrite fails (a directory squats on the
    /// temp log's path, so creating it fails) poisons the log, with the
    /// handle left on the old file; the next checkpoint heals it, and
    /// nothing acknowledged before or after is lost.
    #[test]
    fn failed_trim_poisons_until_the_next_checkpoint_heals() {
        for shards in [1usize, 3] {
            let dir = scratch(&format!("poison-heal-{shards}"));
            let open = || {
                ShardedStore::<u64, u64>::open_or_create(
                    &dir,
                    Router::uniform_span(shards, 1_000),
                    StoreOptions::default(),
                )
                .unwrap()
            };
            let store = open();
            store.commit(vec![Op::Put(1, 1), Op::Put(900, 1)]).unwrap();
            let squatter = dir.join(LOG_FILE).with_extension("tmp");
            std::fs::create_dir(&squatter).unwrap();
            assert!(matches!(store.compact(), Err(StoreError::Io(_))));
            let refused = store.put(2, 2).unwrap_err().to_string();
            assert!(
                refused.contains(&StoreError::LogPoisoned.to_string()),
                "{refused}"
            );
            std::fs::remove_dir(&squatter).unwrap();
            store.compact().unwrap();
            store.commit(vec![Op::Put(3, 3), Op::Put(901, 3)]).unwrap();
            drop(store);
            let store = open();
            assert_eq!(
                store.snapshot().to_vec(),
                vec![(1, 1), (3, 3), (900, 1), (901, 3)]
            );
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
