//! The store engine: N independent MVCC shards over disjoint key
//! ranges, with atomic cross-shard batch commits. There is exactly one
//! engine — [`crate::PacStore`] is a handle on the one-shard case
//! ([`Router::single`]), with the same directory layout, commit
//! protocol, recovery walk and checkpoint routine as any other shard
//! count.
//!
//! Each shard owns a PaC-tree state, a snapshot page chain and a
//! write-ahead log in a `shard-NNN/` subdirectory, so independent key
//! ranges commit with independent tree updates, applied **in parallel**
//! with [`parlay::join`] once the batch can pay for a fork (the same
//! batch-parallel ethos as the paper's `multi_insert`, scaled out across
//! trees; a commit-sized batch stays on the committing thread, see
//! `par_for_shards`). What makes the composite
//! a single store rather than N stores is the *global commit
//! protocol*:
//!
//! 1. **Prepare** — a global commit id `g` is assigned, the batch is
//!    split by key range ([`crate::Router`]), and each participating
//!    shard appends one WAL record tagged with `g` and the full
//!    participant set.
//! 2. **Commit** — one record `{g, participants, version vector}` is
//!    appended to the `manifest.pac` log (`fsync`ed when
//!    [`StoreOptions::fsync_commits`] is set). This is the
//!    acknowledgment point.
//! 3. **Publish** — the new shard maps and the version vector become
//!    visible to readers atomically, under one state lock.
//!
//! Writers meet in a group-commit queue: the first to arrive becomes
//! the *leader*, drains every batch queued so far and runs the three
//! steps once for the whole group; followers wait for their ticket.
//!
//! Recovery (open) replays the manifest and every shard WAL, then
//! rolls a global commit forward **iff it is fully prepared**: every
//! participant either holds a checksum-valid WAL record for `g` or has
//! `g`'s effect baked into its snapshot page. A partially prepared
//! commit — a crash between shard appends — is dropped from *every*
//! WAL (truncated at the record boundary), so a global commit is never
//! partially visible. A fully prepared commit whose manifest record
//! was lost rolls forward and the manifest is healed. With
//! `fsync_commits`, shard WALs are synced before the manifest record
//! is written, so every *acknowledged* commit is fully prepared on
//! disk and survives; without it the same ordering holds for process
//! crashes (completed `write`s survive) but not machine crashes.
//!
//! Checkpoints ([`ShardedStore::save`], [`ShardedStore::save_incremental`],
//! [`ShardedStore::compact`]) are one routine under three page
//! policies: capture the committed version vector, write per-shard
//! pages (full, incremental, or nothing for an unchanged shard) with
//! commits still flowing, then briefly exclude writers to trim the
//! WALs and swap the manifest for a checkpoint record.
//!
//! Readers get cross-shard snapshot isolation: [`ShardedStore::snapshot`]
//! pins one consistent version vector (one `Arc` bump per shard) and
//! never observes a half-published commit.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use codecs::{bytecode, BlockIo, RawCodec};
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

/// File name of the global-commit manifest inside a sharded store
/// directory.
pub const MANIFEST_FILE: &str = "manifest.pac";

/// Name of shard `i`'s subdirectory inside a sharded store directory.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

// ---------------------------------------------------------------------
// Manifest records
// ---------------------------------------------------------------------

/// One manifest record: global commit `global` committed with the given
/// participant set, leaving the store at `locals` (one local version
/// per shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestRecord {
    pub global: u64,
    pub participants: Vec<u32>,
    pub locals: Vec<u64>,
}

/// Encodes one manifest record with the same framing as a WAL record
/// (`wal::frame`): payload = `format byte (wal::LOG_FORMAT), global
/// varint, pcount varint + ids, shard count varint + locals`.
pub(crate) fn encode_manifest_record(rec: &ManifestRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(rec.locals.len() * 4 + 16);
    payload.push(wal::LOG_FORMAT);
    bytecode::write_varint(rec.global, &mut payload);
    bytecode::write_varint(rec.participants.len() as u64, &mut payload);
    for &p in &rec.participants {
        bytecode::write_varint(u64::from(p), &mut payload);
    }
    bytecode::write_varint(rec.locals.len() as u64, &mut payload);
    for &l in &rec.locals {
        bytecode::write_varint(l, &mut payload);
    }
    wal::frame(&payload)
}

/// Result of replaying a manifest image: the longest valid prefix of
/// records (strictly increasing globals), each with its starting byte
/// offset, plus torn-tail information — mirroring [`wal::replay`].
#[derive(Debug)]
pub(crate) struct ManifestReplay {
    pub records: Vec<ManifestRecord>,
    pub offsets: Vec<usize>,
    pub valid_len: usize,
    pub torn: bool,
    /// A checksum-valid record with a foreign format byte: the manifest
    /// was written by a build with a different record layout.
    pub format_mismatch: Option<u8>,
}

/// Parses one checksum-verified manifest payload; `None` when it is
/// malformed, `Err(found)` on a foreign format byte.
fn parse_manifest_payload(payload: &[u8], shard_count: usize) -> Result<Option<ManifestRecord>, u8> {
    let mut at = 0;
    let parse = |at: &mut usize| -> Option<ManifestRecord> {
        let global = bytecode::try_read_varint(payload, at)?;
        let pcount = bytecode::try_read_varint(payload, at)? as usize;
        if pcount > shard_count {
            return None;
        }
        let mut participants = Vec::with_capacity(pcount);
        for _ in 0..pcount {
            let p = u32::try_from(bytecode::try_read_varint(payload, at)?).ok()?;
            if p as usize >= shard_count {
                return None;
            }
            participants.push(p);
        }
        let lcount = bytecode::try_read_varint(payload, at)? as usize;
        if lcount != shard_count {
            return None;
        }
        let mut locals = Vec::with_capacity(lcount);
        for _ in 0..lcount {
            locals.push(bytecode::try_read_varint(payload, at)?);
        }
        if *at != payload.len() {
            return None;
        }
        Some(ManifestRecord { global, participants, locals })
    };
    match payload.first() {
        None => Ok(None),
        Some(&f) if f != wal::LOG_FORMAT => Err(f),
        Some(_) => {
            at += 1;
            Ok(parse(&mut at))
        }
    }
}

pub(crate) fn replay_manifest(bytes: &[u8], shard_count: usize) -> ManifestReplay {
    let mut records: Vec<ManifestRecord> = Vec::new();
    let mut offsets: Vec<usize> = Vec::new();
    let mut frames = wal::Frames::new(bytes);
    let mut format_mismatch = None;
    loop {
        let start = frames.pos;
        let Some(payload) = frames.next() else { break };
        match parse_manifest_payload(payload, shard_count) {
            Ok(Some(rec)) => {
                if records.last().is_some_and(|prev| prev.global >= rec.global) {
                    frames.pos = start;
                    break;
                }
                records.push(rec);
                offsets.push(start);
            }
            Err(found) => {
                format_mismatch = Some(found);
                frames.pos = start;
                break;
            }
            Ok(None) => {
                frames.pos = start;
                break;
            }
        }
    }
    ManifestReplay {
        records,
        offsets,
        valid_len: frames.pos,
        torn: format_mismatch.is_none() && frames.pos < bytes.len(),
        format_mismatch,
    }
}

/// Byte offset of the first replayed record satisfying `pred` — where
/// to cut a log so that record and everything after it goes — or
/// `valid_len` when none does. `offsets[i]` is where `records[i]` starts.
fn offset_of_first<R>(
    records: &[R],
    offsets: &[usize],
    valid_len: usize,
    pred: impl Fn(&R) -> bool,
) -> usize {
    records.iter().position(pred).map_or(valid_len, |idx| offsets[idx])
}

// ---------------------------------------------------------------------
// Parallel helpers
// ---------------------------------------------------------------------

/// Applies `f(i)` to every index in `0..n`, collecting results in index
/// order. The shard fan-out primitive for commit/save/open.
///
/// `work` is what the whole fan-out costs, in [`parlay::FORK_FLOOR`]'s
/// unit (entries of tree work). Below the floor every `f(i)` runs on the
/// calling thread: off the pool, entering it is an injection, a wake-up
/// and a blocking wait, more than a commit-sized apply costs. At or above
/// it the indices run in parallel on the pool via binary forking
/// ([`parlay::join`]). Callers whose work is not tree work (open,
/// checkpoint) pass `usize::MAX`.
fn par_for_shards<R: Send>(n: usize, work: usize, f: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
    fn rec<R: Send>(lo: usize, hi: usize, f: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
        if hi - lo <= 1 {
            return (lo..hi).map(f).collect();
        }
        let mid = lo + (hi - lo) / 2;
        let (mut l, r) = parlay::join(|| rec(lo, mid, f), || rec(mid, hi, f));
        l.extend(r);
        l
    }
    if n == 0 || work < parlay::FORK_FLOOR {
        return (0..n).map(f).collect();
    }
    parlay::run(|| rec(0, n, f))
}

// ---------------------------------------------------------------------
// Log trimming (the tail of a checkpoint)
// ---------------------------------------------------------------------

/// Opens the append handle on the WAL or manifest at `path`.
fn open_append(path: &Path) -> std::io::Result<File> {
    #[cfg(test)]
    if tests::FAIL_OPEN_APPEND.with(|fail| fail.replace(false)) {
        return Err(std::io::Error::other("injected open failure"));
    }
    OpenOptions::new().append(true).open(path)
}

/// Drops from the shard WAL at `path` every record the checkpoint pages
/// cover (local version `<= covered`) and anything past `published`,
/// keeping the records of the commits in between. `log` is the append
/// handle on the file, replaced when the file is — and first of all
/// when `stale_handle` says it may no longer be on the file at `path`.
/// Returns the number of bytes dropped.
fn trim_shard_log<K: StoreKey, V: StoreValue>(
    path: &Path,
    log: &mut File,
    stale_handle: bool,
    covered: u64,
    published: u64,
) -> Result<u64, StoreError> {
    if stale_handle {
        *log = open_append(path)?;
    }
    if published == covered {
        // Nothing landed on this shard while the pages were written:
        // the whole file is covered, no need to read it.
        let len = log.metadata()?.len();
        log.set_len(0)?;
        return Ok(len);
    }
    let bytes = std::fs::read(path)?;
    let replay = wal::replay::<K, V>(&bytes, crate::checksum::schema_id::<(K, V)>());
    let offset_past = |version: u64| {
        offset_of_first(&replay.records, &replay.offsets, replay.valid_len, |r| r.version > version)
    };
    let keep = &bytes[offset_past(covered)..offset_past(published)];
    if keep.len() < bytes.len() {
        page::write_file_atomic(path, keep)?;
        *log = open_append(path)?;
    }
    Ok((bytes.len() - keep.len()) as u64)
}

/// Replaces the manifest at `path` with `checkpoint` followed by the
/// records of the commits after it up to global id `published`. Returns
/// an append handle on the new file and the number of bytes dropped.
fn swap_manifest(
    path: &Path,
    checkpoint: &ManifestRecord,
    published: u64,
) -> Result<(File, u64), StoreError> {
    let old = if path.exists() { std::fs::read(path)? } else { Vec::new() };
    let replay = replay_manifest(&old, checkpoint.locals.len());
    let offset_past = |global: u64| {
        offset_of_first(&replay.records, &replay.offsets, replay.valid_len, |r| r.global > global)
    };
    let keep = &old[offset_past(checkpoint.global)..offset_past(published)];
    let mut new = encode_manifest_record(checkpoint);
    new.extend_from_slice(keep);
    page::write_file_atomic(path, &new)?;
    let file = open_append(path)?;
    Ok((file, (old.len() - keep.len()) as u64))
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
    global: u64,
    locals: Vec<u64>,
    router: Arc<Router<K>>,
    maps: Vec<PacMap<K, V, NoAug, C>>,
}

impl<K, V, C> Clone for ShardedSnapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn clone(&self) -> Self {
        ShardedSnapshot {
            global: self.global,
            locals: self.locals.clone(),
            router: Arc::clone(&self.router),
            maps: self.maps.clone(),
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
        self.global
    }

    /// The per-shard local versions this snapshot pinned (one entry per
    /// shard, in shard order).
    pub fn version_vector(&self) -> &[u64] {
        &self.locals
    }

    /// The value under `k` at this version vector.
    pub fn get(&self, k: &K) -> Option<V> {
        self.maps[self.router.shard_of(k)].find(k)
    }

    /// True if `k` exists at this version vector.
    pub fn contains_key(&self, k: &K) -> bool {
        self.maps[self.router.shard_of(k)].contains_key(k)
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.maps.iter().map(PacMap::len).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.maps.iter().all(PacMap::is_empty)
    }

    /// All entries in global key order (shards hold contiguous ranges,
    /// so concatenating per-shard entries in shard order is sorted).
    pub fn to_vec(&self) -> Vec<(K, V)> {
        // The first shard's vector is the output; later shards append
        // to it (a one-shard store copies nothing).
        let (first, rest) = self.maps.split_first().expect("a router has at least one shard");
        let mut out = first.to_vec();
        out.reserve(rest.iter().map(PacMap::len).sum());
        for m in rest {
            out.extend(m.to_vec());
        }
        out
    }

    /// The entries with keys in `[lo, hi]`, in key order, composed from
    /// the per-shard [`PacMap::range_entries`] of the overlapping
    /// shards only. The first overlapping shard's vector is the output
    /// and later shards append to it, so a range inside one shard is
    /// returned without a second copy.
    pub fn range_entries(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut shards = self.router.shards_overlapping(lo, hi);
        let Some(first) = shards.next() else { return Vec::new() };
        let mut out = self.maps[first].range_entries(lo, hi);
        for s in shards {
            out.extend(self.maps[s].range_entries(lo, hi));
        }
        out
    }

    /// The map backing shard `i`, for the full per-range query
    /// interface.
    pub fn shard_map(&self, i: usize) -> &PacMap<K, V, NoAug, C> {
        &self.maps[i]
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.maps.len()
    }
}

impl<K, V, C> std::fmt::Debug for ShardedSnapshot<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSnapshot")
            .field("version", &self.global)
            .field("version_vector", &self.locals)
            .field("len", &self.len())
            .finish()
    }
}

/// One retained version: `(global, locals, maps)`.
type HistoryEntry<K, V, C> = (u64, Vec<u64>, Vec<PacMap<K, V, NoAug, C>>);

struct ShardedState<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    global: u64,
    locals: Vec<u64>,
    maps: Vec<PacMap<K, V, NoAug, C>>,
    /// Recent `(global, locals, maps)` triples, oldest first; always
    /// contains the current version as its back element.
    history: VecDeque<HistoryEntry<K, V, C>>,
}

/// The durable half of a store: per-shard WAL handles plus the
/// manifest. `poisoned` means an append failure could not be rolled
/// back: the stranded partial record would swallow every later record
/// at replay, so commits are refused until a checkpoint rewrites the
/// logs and clears the flag.
struct Logs {
    shard_logs: Vec<File>,
    manifest: File,
    poisoned: bool,
}

/// Which pages one checkpoint writes (see [`ShardedStore::checkpoint`]).
#[derive(Clone, Copy)]
enum PagePolicy {
    /// A full page for every shard ([`ShardedStore::save`]).
    Full,
    /// An incremental page for every changed shard, however long its
    /// chain, diffed against the checkpoint at this global commit id —
    /// which must be the latest ([`ShardedStore::save_incremental`]).
    Incremental(u64),
    /// Incremental while a shard's chain is short, full once it
    /// reaches [`MAX_INCR_CHAIN`] ([`ShardedStore::compact`]).
    Chain,
}

/// One shard's latest persisted checkpoint: the version its on-disk
/// page chain reaches, the pinned tree at that version (the base the
/// next incremental page diffs against — pinning it keeps its nodes
/// shared, so pointer identity against it is sound), and the chain
/// length (bounding `open`'s chain walk via [`MAX_INCR_CHAIN`]).
struct ShardCheckpoint<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    version: u64,
    map: PacMap<K, V, NoAug, C>,
    chain_len: usize,
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
    /// hold `log` across prepare, manifest append, *and* publish, so
    /// under it every logged record belongs to a published commit; a
    /// checkpoint holds `checkpoints` for its whole cycle, so the pins
    /// and the pages on disk can never interleave.
    checkpoints: Mutex<Checkpoints<K, V, C>>,
    /// `None` for an in-memory store: nothing to log.
    log: Mutex<Option<Logs>>,
    state: Mutex<ShardedState<K, V, C>>,
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
/// commits (prepare: per-shard WAL records tagged with a global commit
/// id; commit: one manifest record; recovery: roll forward fully
/// prepared commits, drop partial ones — see DESIGN.md §6).
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
        ShardedStore { inner: Arc::clone(&self.inner) }
    }
}

impl<K, V, C> std::fmt::Debug for ShardedStore<K, V, C>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.inner.state.lock();
        f.debug_struct("ShardedStore")
            .field("shards", &self.inner.router.shard_count())
            .field("version", &s.global)
            .field("version_vector", &s.locals)
            .field("len", &s.maps.iter().map(PacMap::len).sum::<usize>())
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
    /// directory, its held advisory lock and the log handles (`None`
    /// for an in-memory store).
    fn from_parts(
        opts: StoreOptions,
        router: Router<K>,
        durable: Option<(PathBuf, File, Logs)>,
        state: ShardedState<K, V, C>,
        checkpoints: Checkpoints<K, V, C>,
        registry: VersionRegistry,
        pools: Vec<Option<Arc<crate::pool::BufferPool<C::Block>>>>,
    ) -> Self {
        let metrics = StoreMetrics::new(router.shard_count());
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

    fn fresh_state(opts: &StoreOptions, shards: usize) -> ShardedState<K, V, C> {
        let maps: Vec<PacMap<K, V, NoAug, C>> =
            (0..shards).map(|_| PacMap::with_block_size(opts.block_size)).collect();
        let locals = vec![0u64; shards];
        let mut history = VecDeque::new();
        history.push_back((0, locals.clone(), maps.clone()));
        ShardedState { global: 0, locals, maps, history }
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
        let state = Self::fresh_state(&opts, shards);
        Self::from_parts(
            opts,
            router,
            None,
            state,
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
    /// a pre-sharding flat store instead of a partition map, or a
    /// shard directory an earlier build's paged snapshot; every
    /// integrity error of [`crate::decode_snapshot`] for a shard's
    /// pages;
    /// [`StoreError::SchemaMismatch`] for WAL records of other key/value
    /// types; [`StoreError::VersionGap`] when the logs reference
    /// versions the pages no longer reach; [`StoreError::Corrupt`] for
    /// torn manifests or WAL tails under [`StoreOptions::strict_log`].
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
                .or(page::list_incr_files(dir)?.first().map(|_| "incremental pages"));
            if let Some(found) = flat {
                return Err(StoreError::LegacyLayout(format!(
                    "{} holds {found} at its root and no {PARTITION_FILE}: a flat \
                     single-directory store, which this build does not read (stores live in \
                     `shard-NNN/` subdirectories under a partition map and a manifest)",
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
        let pools: Vec<Option<Arc<crate::pool::BufferPool<C::Block>>>> =
            (0..shards).map(|_| opts.pool_pages.map(crate::pool::BufferPool::new)).collect();
        type Loaded<K, V, C> =
            Vec<Result<(PacMap<K, V, NoAug, C>, u64, Option<usize>), StoreError>>;
        let loaded: Loaded<K, V, C> = {
            let pools = &pools;
            par_for_shards(shards, usize::MAX, &move |i| {
                let sdir = dir.join(shard_dir_name(i));
                std::fs::create_dir_all(&sdir)?;
                match page::load_chain::<PacMap<K, V, NoAug, C>>(&sdir, pools[i].as_ref())? {
                    Some((m, v, applied)) => Ok((m, v, Some(applied))),
                    None => Ok((PacMap::with_block_size(opts.block_size), 0, None)),
                }
            })
        };
        let mut maps = Vec::with_capacity(shards);
        let mut snap_vers = Vec::with_capacity(shards);
        let mut chain_lens = Vec::with_capacity(shards);
        for r in loaded {
            let (m, v, cl) = r?;
            maps.push(m);
            snap_vers.push(v);
            chain_lens.push(cl);
        }
        // Pin each shard's checkpoint *before* WAL replay mutates the
        // maps: the pinned clone is the diff base for the next
        // incremental page, and must be exactly what the pages decode
        // to.
        let checkpoint_pins: Vec<Option<ShardCheckpoint<K, V, C>>> = maps
            .iter()
            .zip(&snap_vers)
            .zip(&chain_lens)
            .map(|((m, &v), &cl)| {
                cl.map(|chain_len| ShardCheckpoint { version: v, map: m.clone(), chain_len })
            })
            .collect();

        // Pins persisted by a previous handle, loaded *before* the
        // recovery walk: its history eviction must honor them or a
        // pinned global commit silently vanishes across a reopen.
        let registry = VersionRegistry::from_pins(lifecycle::load_pins(dir)?);

        // Replay the manifest and every shard WAL.
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest_bytes =
            if manifest_path.exists() { std::fs::read(&manifest_path)? } else { Vec::new() };
        let manifest = replay_manifest(&manifest_bytes, shards);
        if let Some(found) = manifest.format_mismatch {
            return Err(StoreError::Corrupt(format!(
                "manifest record format {found:#04x}, this build reads {:#04x}",
                wal::LOG_FORMAT
            )));
        }
        if manifest.torn && opts.strict_log {
            return Err(StoreError::Corrupt(format!(
                "torn or corrupt manifest tail after byte {}",
                manifest.valid_len
            )));
        }
        let manifest_by_global: HashMap<u64, &ManifestRecord> =
            manifest.records.iter().map(|r| (r.global, r)).collect();

        let expected = crate::checksum::schema_id::<(K, V)>();
        let mut shard_replays = Vec::with_capacity(shards);
        for i in 0..shards {
            let log_path = dir.join(shard_dir_name(i)).join(LOG_FILE);
            let bytes = if log_path.exists() { std::fs::read(&log_path)? } else { Vec::new() };
            let replay = wal::replay::<K, V>(&bytes, expected);
            if let Some(found) = replay.schema_mismatch {
                return Err(StoreError::SchemaMismatch { found, expected });
            }
            if let Some(found) = replay.format_mismatch {
                return Err(StoreError::Corrupt(format!(
                    "shard {i}: log record format {found:#04x}, this build reads {:#04x}",
                    wal::LOG_FORMAT
                )));
            }
            if replay.torn && opts.strict_log {
                return Err(StoreError::Corrupt(format!(
                    "shard {i}: torn or corrupt log tail after byte {}",
                    replay.valid_len
                )));
            }
            shard_replays.push(replay);
        }

        // ----- Reconcile: roll forward fully-prepared global commits,
        // drop partial ones. ------------------------------------------
        //
        // Gather the globally-ordered list of commit ids appearing in
        // any WAL *or* the manifest (a manifest-only id is an empty
        // commit or a checkpoint). At most the last in-flight commit
        // can be incomplete, but the walk handles any prefix uniformly.
        let mut all_globals: Vec<u64> = shard_replays
            .iter()
            .flat_map(|r| r.records.iter().map(|rec| rec.global))
            .chain(manifest.records.iter().map(|r| r.global))
            .collect();
        all_globals.sort_unstable();
        all_globals.dedup();

        // Per shard, an index into its record list as we consume them
        // in global order (records within a WAL are strictly increasing
        // in both local version and global id).
        let mut cursor = vec![0usize; shards];
        let mut locals = snap_vers.clone();
        // The checkpoint baseline: the latest manifest record whose
        // whole version vector is covered by the snapshot pages (the
        // last checkpoint, in the common case). Every commit at or
        // below it is provably baked into the pages — locals are
        // monotone in the global id — so such commits are never
        // re-judged (stale WAL records left by an interrupted save()
        // must not be mistaken for partial prepares). Local versions
        // never exceed the global commit counter, so the pages also
        // give a floor when the manifest is gone entirely.
        let checkpoint_global = manifest
            .records
            .iter()
            .filter(|r| r.locals.iter().zip(&snap_vers).all(|(l, s)| l <= s))
            .map(|r| r.global)
            .max()
            .unwrap_or(0);
        let mut global =
            checkpoint_global.max(snap_vers.iter().copied().max().unwrap_or(0));

        let mut history: VecDeque<HistoryEntry<K, V, C>> = VecDeque::new();
        history.push_back((global, locals.clone(), maps.clone()));

        // Truncation decision: byte length to keep per shard WAL and
        // for the manifest (None = keep everything valid).
        let mut cut: Option<(u64, Vec<usize>, usize)> = None;
        let mut healed: Vec<ManifestRecord> = Vec::new();

        'walk: for &g in &all_globals {
            if g <= checkpoint_global {
                // Covered by the checkpoint: consume any stale records
                // without judging (their effects are in the pages).
                for i in 0..shards {
                    while shard_replays[i]
                        .records
                        .get(cursor[i])
                        .is_some_and(|rec| rec.global <= g)
                    {
                        cursor[i] += 1;
                    }
                }
                continue;
            }
            // Which shards hold a record for g? The WAL prepare records
            // carry the authoritative participant list (a checkpoint
            // record for the same id has an empty one), so prefer
            // theirs; fall back to the manifest for record-less ids.
            let mut holders: Vec<usize> = Vec::new();
            let mut participants: Option<Vec<u32>> = None;
            for i in 0..shards {
                while shard_replays[i]
                    .records
                    .get(cursor[i])
                    .is_some_and(|rec| rec.global < g)
                {
                    cursor[i] += 1;
                }
                if let Some(rec) = shard_replays[i].records.get(cursor[i]) {
                    if rec.global == g {
                        holders.push(i);
                        if participants.is_none() {
                            participants = Some(rec.participants.clone());
                        }
                    }
                }
            }
            let manifest_rec = manifest_by_global.get(&g).copied();
            let participants = participants
                .or_else(|| manifest_rec.map(|r| r.participants.clone()))
                .unwrap_or_default();

            // Fully prepared? A manifest record whose whole version
            // vector is covered by the snapshot pages is already
            // applied (checkpoints; a save() interrupted before WAL
            // truncation). Otherwise every participant must hold its
            // record or have the commit baked into its page — and a
            // participant-less id must at least be manifested (an
            // empty commit), never inferred from nothing.
            let covered = manifest_rec
                .is_some_and(|r| r.locals.iter().zip(&snap_vers).all(|(l, s)| l <= s));
            let prepared = covered
                || ((!participants.is_empty() || manifest_rec.is_some())
                    && participants.iter().all(|&p| {
                        let p = p as usize;
                        holders.contains(&p)
                            || manifest_rec.is_some_and(|r| snap_vers[p] >= r.locals[p])
                    }));

            if !prepared {
                // A cut is only legitimate for the *last* in-flight
                // commit: the manifest record is appended after every
                // prepare, so an acknowledged (manifested) commit
                // *later* than g proves g was once fully prepared too —
                // its records were truncated by a checkpoint whose
                // pages no longer reach it. That is missing history,
                // never a torn tail; cutting would silently resurrect
                // an old state.
                if manifest.records.iter().any(|r| r.global > g) {
                    return Err(StoreError::VersionGap { checkpoint: global, first: g });
                }
                // Drop g and everything after it from every WAL and
                // from the manifest: all-or-nothing.
                let wal_cuts: Vec<usize> = shard_replays
                    .iter()
                    .map(|r| offset_of_first(&r.records, &r.offsets, r.valid_len, |rec| rec.global >= g))
                    .collect();
                let manifest_cut = offset_of_first(
                    &manifest.records,
                    &manifest.offsets,
                    manifest.valid_len,
                    |rec| rec.global >= g,
                );
                cut = Some((g, wal_cuts, manifest_cut));
                break 'walk;
            }

            // Roll forward: apply each holder's record (skipping shards
            // whose snapshot page already covers it).
            for &i in &holders {
                let rec = &mut shard_replays[i].records[cursor[i]];
                // Local versions advance by exactly one per commit a
                // shard participates in; a farther jump means the
                // record's predecessors are in neither the pages nor
                // the WAL (a shard page chain was deleted or rolled
                // back after its WAL was truncated past it).
                if rec.version > locals[i] + 1 {
                    return Err(StoreError::VersionGap {
                        checkpoint: locals[i],
                        first: rec.version,
                    });
                }
                if rec.version > locals[i] {
                    // The walk never reads a record's ops again.
                    let ops = std::mem::take(&mut rec.ops);
                    maps[i] = apply_ops(std::mem::take(&mut maps[i]), ops);
                    locals[i] = rec.version;
                }
                cursor[i] += 1;
            }
            // A manifest record asserts the whole version vector at g;
            // after rolling g forward every shard must have reached it
            // (participants via their records or pages, bystanders via
            // earlier commits). A shard left behind lost history.
            if let Some(mrec) = manifest_rec {
                for (&have, &want) in locals.iter().zip(&mrec.locals) {
                    if have < want {
                        return Err(StoreError::VersionGap { checkpoint: have, first: want });
                    }
                }
            }
            if g > global {
                global = g;
                if !manifest_by_global.contains_key(&g) {
                    healed.push(ManifestRecord {
                        global: g,
                        participants,
                        locals: locals.clone(),
                    });
                }
                history.push_back((global, locals.clone(), maps.clone()));
                // Same pin-aware eviction as the commit path: a pinned
                // commit must survive the recovery walk exactly as it
                // survives live commits.
                drop(lifecycle::evict_history(
                    &mut history,
                    opts.history_limit,
                    |(g, _, _)| *g,
                    &registry,
                ));
            }
        }
        // The back of the history must always be the current state
        // (the walk skips history entries for commits at or below the
        // baseline, which can drift `locals` without advancing `global`
        // when a manifest was deleted out from under the store).
        if history.back().is_none_or(|(g, l, _)| *g != global || *l != locals) {
            history.push_back((global, locals.clone(), maps.clone()));
            drop(lifecycle::evict_history(
                &mut history,
                opts.history_limit,
                |(g, _, _)| *g,
                &registry,
            ));
        }

        if (cut.is_some() || !healed.is_empty()) && opts.strict_log {
            return Err(StoreError::Corrupt(
                "manifest and shard logs disagree (partially prepared or unmanifested \
                 global commit)"
                    .into(),
            ));
        }

        // ----- Apply the recovery decisions to the files. -------------
        for (i, replay) in shard_replays.iter().enumerate() {
            let keep = cut.as_ref().map_or(replay.valid_len, |(_, wal_cuts, _)| wal_cuts[i]);
            let log_path = dir.join(shard_dir_name(i)).join(LOG_FILE);
            let file_len = if log_path.exists() { std::fs::metadata(&log_path)?.len() } else { 0 };
            if u64::try_from(keep).unwrap_or(u64::MAX) < file_len {
                let f = OpenOptions::new().write(true).open(&log_path)?;
                f.set_len(keep as u64)?;
            }
        }
        {
            let keep = cut.as_ref().map_or(manifest.valid_len, |(_, _, mcut)| *mcut);
            if (keep as u64) < manifest_bytes.len() as u64 {
                let f = OpenOptions::new().write(true).create(true).truncate(false).open(&manifest_path)?;
                f.set_len(keep as u64)?;
            }
        }

        // Open append handles, then heal the manifest (fully-prepared
        // commits whose manifest record was lost by the crash).
        let shard_logs: Vec<File> = (0..shards)
            .map(|i| -> Result<File, StoreError> {
                let sdir = dir.join(shard_dir_name(i));
                let log_path = sdir.join(LOG_FILE);
                let existed = log_path.exists();
                let f = OpenOptions::new().create(true).append(true).open(&log_path)?;
                if !existed {
                    // Persist the directory entry; appended commits sync
                    // only the file's data.
                    page::fsync_dir(&sdir)?;
                }
                Ok(f)
            })
            .collect::<Result<_, _>>()?;
        let manifest_existed = manifest_path.exists();
        let mut manifest_file =
            OpenOptions::new().create(true).append(true).open(&manifest_path)?;
        if !manifest_existed {
            page::fsync_dir(dir)?;
        }
        // Heal: at most one commit can have been in flight at the
        // crash, so a healed record always extends the manifest's
        // ascending global order; guard anyway so a hand-edited
        // directory cannot make us write an out-of-order record.
        let manifest_last = cut
            .as_ref()
            .map(|(cut_g, _, _)| {
                manifest
                    .records
                    .iter()
                    .filter(|r| r.global < *cut_g)
                    .map(|r| r.global)
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or_else(|| manifest.records.last().map_or(0, |r| r.global));
        for rec in healed.iter().filter(|r| r.global > manifest_last) {
            let bytes = encode_manifest_record(rec);
            wal::append_bytes(&mut manifest_file, &bytes, opts.fsync_commits)
                .map_err(|fail| StoreError::Io(fail.error))?;
        }

        let checkpoints = Checkpoints {
            global: checkpoint_pins
                .iter()
                .any(Option::is_some)
                .then_some(checkpoint_global),
            shards: checkpoint_pins,
        };
        let state = ShardedState { global, locals, maps, history };
        let logs = Logs { shard_logs, manifest: manifest_file, poisoned: false };
        Ok(Self::from_parts(
            opts,
            router,
            Some((dir.to_path_buf(), dir_lock, logs)),
            state,
            checkpoints,
            registry,
            pools,
        ))
    }

    /// Submits one batch and blocks until it is durably prepared on
    /// every participating shard, recorded in the manifest, and visible
    /// in a published version vector; returns the global commit id.
    /// Batches queued concurrently are applied together by a group
    /// leader — one parallel fan-out over shards and one manifest
    /// append for the whole group.
    ///
    /// Within a batch and across a group, later ops win per key.
    ///
    /// # Errors
    ///
    /// [`StoreError::CommitFailed`] when the group's prepare or
    /// manifest append failed; no version is published in that case.
    pub fn commit(&self, ops: Vec<Op<K, V>>) -> Result<u64, StoreError> {
        let inner = &self.inner;
        let enqueued = Instant::now();
        let mut wait_ns = 0u64;
        let mut q = inner.commit.lock();
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.pending.push((ticket, ops));
        loop {
            if let Some(result) = q.results.remove(&ticket) {
                drop(q);
                inner.metrics.ticket_wait.record(wait_ns);
                inner.metrics.commit.record_duration(enqueued.elapsed());
                return result.map_err(StoreError::CommitFailed);
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
            let outcome = self.apply_group(all_ops);
            q = inner.commit.lock();
            q.leader_running = false;
            match &outcome {
                Ok(version) => {
                    for t in tickets {
                        q.results.insert(t, Ok(*version));
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    for t in tickets {
                        q.results.insert(t, Err(msg.clone()));
                    }
                }
            }
            inner.commit_cv.notify_all();
        }
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
    /// updates, the two-phase durable protocol, one published version
    /// vector.
    fn apply_group(&self, all_ops: Vec<Op<K, V>>) -> Result<u64, StoreError> {
        let inner = &self.inner;
        let mut log_guard = inner.log.lock();
        if log_guard.as_ref().is_some_and(|logs| logs.poisoned) {
            return Err(StoreError::LogPoisoned);
        }
        let (base_maps, base_locals, base_global) = {
            let s = inner.state.lock();
            (s.maps.clone(), s.locals.clone(), s.global)
        };
        let g = base_global + 1;

        // Range-split the group; participants are the shards with ops.
        let buckets = inner.router.split_ops(all_ops);
        let participants: Vec<u32> = buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| i as u32)
            .collect();

        // Fan-out: per participating shard, encode the prepare record
        // and apply the sub-batch to its tree — in parallel on the pool
        // only if the batch can touch more than a fork's worth of
        // entries (one leaf of <= 2B per op, plus the op: the bound of
        // cpam's own batch work), on this thread otherwise.
        let durable = log_guard.is_some();
        let schema = crate::checksum::schema_id::<(K, V)>();
        struct ShardResult<M> {
            shard: usize,
            new_map: M,
            new_local: u64,
            record: Option<Vec<u8>>,
        }
        let work: Vec<(usize, Vec<Op<K, V>>)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .collect();
        let ops: usize = work.iter().map(|(_, ops)| ops.len()).sum();
        let tree_work = ops.saturating_mul(2 * inner.opts.block_size + 1);
        let apply_start = Instant::now();
        let results: Vec<ShardResult<PacMap<K, V, NoAug, C>>> = {
            let work = &work;
            let base_maps = &base_maps;
            let base_locals = &base_locals;
            let participants = &participants;
            par_for_shards(work.len(), tree_work, &move |w| {
                let (shard, ops) = &work[w];
                let new_local = base_locals[*shard] + 1;
                let record = durable
                    .then(|| wal::encode_record(new_local, g, participants, schema, ops));
                ShardResult {
                    shard: *shard,
                    // Hand the leader's private clone of the shard map to
                    // the consuming path (the published original stays in
                    // `state`, untouched).
                    new_map: apply_ops(base_maps[*shard].clone(), ops.iter().cloned()),
                    new_local,
                    record,
                }
            })
        };
        inner.metrics.apply.record_duration(apply_start.elapsed());

        // Durability before visibility: prepare every shard, then write
        // the manifest record (the commit point), rolling back every
        // appended prepare on failure.
        if let Some(Logs { shard_logs, manifest, poisoned }) = log_guard.as_mut() {
            let mut appended: Vec<(usize, u64)> = Vec::new(); // (shard, prior len)
            let mut failure: Option<std::io::Error> = None;
            for r in &results {
                match wal::append_bytes(
                    &mut shard_logs[r.shard],
                    r.record.as_deref().expect("durable record"),
                    inner.opts.fsync_commits,
                ) {
                    Ok(done) => {
                        inner.metrics.record_wal_append(r.shard, done, inner.opts.fsync_commits);
                        appended.push((r.shard, done.prior_len));
                    }
                    Err(fail) => {
                        if let Some(prior) = fail.stranded {
                            appended.push((r.shard, prior));
                        }
                        failure = Some(fail.error);
                        break;
                    }
                }
            }
            let mut stranded = false;
            if failure.is_none() {
                let mut locals = base_locals.clone();
                for r in &results {
                    locals[r.shard] = r.new_local;
                }
                let rec = encode_manifest_record(&ManifestRecord {
                    global: g,
                    participants: participants.clone(),
                    locals,
                });
                match wal::append_bytes(manifest, &rec, inner.opts.fsync_commits) {
                    Ok(done) => {
                        inner.metrics.manifest_append.record(done.write_ns);
                        if inner.opts.fsync_commits {
                            inner.metrics.wal_fsync.record(done.sync_ns);
                        }
                    }
                    Err(fail) => {
                        // A partial manifest record that could not be
                        // truncated away would swallow every later
                        // record at replay: poison below.
                        stranded = fail.stranded.is_some();
                        failure = Some(fail.error);
                    }
                }
            }
            if let Some(error) = failure {
                // Undo every prepare so the next commit starts from a
                // clean record boundary; if any rollback fails, poison.
                // Under fsync_commits the truncation itself must reach
                // disk, or a power loss could resurrect the prepared
                // records of this *failed* commit and recovery would
                // roll it forward.
                for (shard, prior) in appended {
                    let f = &shard_logs[shard];
                    let ok = f.set_len(prior).is_ok()
                        && (!inner.opts.fsync_commits || f.sync_data().is_ok());
                    if !ok {
                        stranded = true;
                    }
                }
                *poisoned = stranded;
                return Err(error.into());
            }
        }

        // Publish atomically.
        let mut s = inner.state.lock();
        s.global = g;
        for r in results {
            s.locals[r.shard] = r.new_local;
            s.maps[r.shard] = r.new_map;
        }
        let snapshot = (g, s.locals.clone(), s.maps.clone());
        s.history.push_back(snapshot);
        let evicted = lifecycle::evict_history(
            &mut s.history,
            inner.opts.history_limit,
            |(g, _, _)| *g,
            &inner.registry,
        );
        drop(s);
        drop(log_guard);
        // Drop outside both locks: freeing a superseded version walks
        // every node only it owns and runs its values' `Drop`s, and
        // `state` is the lock every `get` and `snapshot` takes. Off the
        // pool that walk never forks (cpam's `drop_heavy`), so it stays
        // on this thread too.
        drop(evicted);
        Ok(g)
    }

    /// Pins the current version vector: one `Arc` bump per shard under
    /// a briefly-held lock; never observes a half-published commit.
    pub fn snapshot(&self) -> ShardedSnapshot<K, V, C> {
        self.inner.metrics.snapshots.inc();
        let s = self.inner.state.lock();
        ShardedSnapshot {
            global: s.global,
            locals: s.locals.clone(),
            router: Arc::clone(&self.inner.router),
            maps: s.maps.clone(),
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
        let s = self.inner.state.lock();
        s.history
            .iter()
            .find(|(g, _, _)| *g == global)
            .map(|(g, locals, maps)| ShardedSnapshot {
                global: *g,
                locals: locals.clone(),
                router: Arc::clone(&self.inner.router),
                maps: maps.clone(),
            })
            .ok_or(StoreError::VersionNotFound(global))
    }

    /// The global commit ids currently reachable via
    /// [`ShardedStore::snapshot_at`], oldest first.
    pub fn versions(&self) -> Vec<u64> {
        self.inner.state.lock().history.iter().map(|(g, _, _)| *g).collect()
    }

    /// The current (latest committed) global commit id.
    pub fn current_version(&self) -> u64 {
        self.inner.state.lock().global
    }

    /// The current per-shard local versions, in shard order.
    pub fn version_vector(&self) -> Vec<u64> {
        self.inner.state.lock().locals.clone()
    }

    /// The value under `k` in the current version. Unlike
    /// [`ShardedStore::snapshot`], this pins only the owning shard's
    /// map (one `Arc` bump under the state lock), so point reads don't
    /// pay the full version-vector copy.
    pub fn get(&self, k: &K) -> Option<V> {
        let _span = obs::span!(self.inner.metrics.point_read);
        let shard = self.inner.router.shard_of(k);
        let map = self.inner.state.lock().maps[shard].clone();
        map.find(k)
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
        self.inner.state.lock().maps.iter().map(PacMap::len).sum()
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
    /// WAL and manifest records the pages cover. Returns the saved
    /// global commit id.
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
    /// the shard's pinned checkpoint when the chain is short, a full
    /// page otherwise (first checkpoint, or every `MAX_INCR_CHAIN`
    /// links to bound `open`'s chain walk), nothing at all for shards
    /// unchanged since their checkpoint — then drops the WAL and
    /// manifest records the pages now cover. Returns the checkpointed
    /// global commit id.
    ///
    /// # Errors
    ///
    /// [`StoreError::Ephemeral`] for in-memory stores; I/O errors. A
    /// failure during the truncation step poisons the log
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
    /// `policy` asks for, then trim the logs.
    ///
    /// The page writes happen *outside* the log lock, so commits keep
    /// flowing while pages are encoded; only the final WAL/manifest
    /// trim briefly excludes writers. Records appended during the page
    /// writes are past the captured version vector and survive it.
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

        // Capture the committed state to checkpoint. Commits may land
        // after this point; they stay in the logs.
        let (maps, locals, global) = {
            let s = inner.state.lock();
            (s.maps.clone(), s.locals.clone(), s.global)
        };
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
            let maps = &maps;
            let locals = &locals;
            let pins = &ckpts.shards;
            par_for_shards(shards, usize::MAX, &move |i| {
                let sdir = dir.join(shard_dir_name(i));
                std::fs::create_dir_all(&sdir)?;
                let base = match policy {
                    PagePolicy::Full => None,
                    PagePolicy::Incremental(_) => pins[i].as_ref(),
                    PagePolicy::Chain => {
                        pins[i].as_ref().filter(|ck| ck.chain_len < MAX_INCR_CHAIN)
                    }
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
                let new_pin = |chain_len| {
                    Some(ShardCheckpoint { version: locals[i], map: maps[i].clone(), chain_len })
                };
                match w {
                    Ok(PageWrite::Skipped) => {}
                    Ok(PageWrite::Incremental(n)) => {
                        let chain_len =
                            ckpts.shards[i].as_ref().map_or(1, |ck| ck.chain_len + 1);
                        ckpts.shards[i] = new_pin(chain_len);
                        inner.metrics.incr_chain_depth[i].set(chain_len as i64);
                        stats.incremental_saves += 1;
                        stats.incremental_page_bytes += n as u64;
                    }
                    Ok(PageWrite::Full(n)) => {
                        ckpts.shards[i] = new_pin(0);
                        inner.metrics.incr_chain_depth[i].set(0);
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

        // ----- Phase 2: trim the logs, under the log lock. ------------
        //
        // Ordering is WAL trims first, manifest swap last, and every
        // intermediate state recovers exactly: `open` judges coverage
        // against the pages themselves, so a commit's WAL records can
        // vanish the moment the pages reach its version vector, with
        // or without the manifest checkpoint record.
        //
        // While the log lock is held no commit is between prepare and
        // publish, so the records to keep are exactly those of commits
        // published since the capture. Anything later is the stranded
        // prepare of a *failed* commit in a poisoned log, which must
        // not survive into the healed one (its ids will be reused).
        let _truncate_span = obs::span!(inner.metrics.compact_truncate);
        let mut log_guard = inner.log.lock();
        let logs = log_guard.as_mut().ok_or(StoreError::Ephemeral)?;
        let (now_locals, now_global) = {
            let s = inner.state.lock();
            (s.locals.clone(), s.global)
        };
        let trimmed = (|| -> Result<u64, StoreError> {
            let mut dropped = 0u64;
            for (i, log) in logs.shard_logs.iter_mut().enumerate() {
                let path = dir.join(shard_dir_name(i)).join(LOG_FILE);
                dropped += trim_shard_log::<K, V>(
                    &path, log, logs.poisoned, locals[i], now_locals[i],
                )?;
            }
            let checkpoint = ManifestRecord { global, participants: Vec::new(), locals };
            let (manifest, n) = swap_manifest(&dir.join(MANIFEST_FILE), &checkpoint, now_global)?;
            logs.manifest = manifest;
            Ok(dropped + n)
        })();
        // A log trimmed down to published commits is also a healed one;
        // a half-trimmed one may hold a handle on a renamed-over file,
        // so it refuses appends until a checkpoint goes through (which
        // reopens every shard handle by path first).
        logs.poisoned = trimmed.is_err();
        let dropped = trimmed?;
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
    /// the pin also survives a reopen (as long as the shard WALs still
    /// reach the commit).
    ///
    /// # Errors
    ///
    /// [`StoreError::VersionNotFound`] when `version` is not currently
    /// in history (an evicted version cannot be resurrected); I/O
    /// errors persisting the pin table (the in-memory pin is rolled
    /// back, so memory and disk never disagree).
    pub fn pin_version(&self, version: u64) -> Result<(), StoreError> {
        let s = self.inner.state.lock();
        if !s.history.iter().any(|(g, _, _)| *g == version) {
            return Err(StoreError::VersionNotFound(version));
        }
        self.inner.registry.pin(version);
        if let Some(dir) = &self.inner.dir {
            if let Err(e) = lifecycle::persist_pins(dir, &self.inner.registry) {
                self.inner.registry.unpin(version);
                return Err(e);
            }
        }
        drop(s);
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
        let s = self.inner.state.lock();
        if !self.inner.registry.unpin(version) {
            return Err(StoreError::NotPinned(version));
        }
        if let Some(dir) = &self.inner.dir {
            if let Err(e) = lifecycle::persist_pins(dir, &self.inner.registry) {
                self.inner.registry.pin(version);
                return Err(e);
            }
        }
        drop(s);
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
            let mut s = self.inner.state.lock();
            let pinned = self.inner.registry.pinned();
            let cut = s.history.len().saturating_sub(keep);
            let old = std::mem::take(&mut s.history);
            for (i, entry) in old.into_iter().enumerate() {
                if i >= cut || pinned.contains(&entry.0) {
                    s.history.push_back(entry);
                } else {
                    dropped.push(entry);
                }
            }
            versions_retained = s.history.len();
        }
        // Drop outside the state lock — freeing deep unshared versions
        // walks whole trees — and measure what came back.
        let versions_dropped = dropped.len();
        let before = cpam::stats::read();
        drop(dropped);
        let nodes_reclaimed = cpam::stats::read().delta(before).nodes_dropped;
        self.inner.metrics.gc_versions_dropped.add(versions_dropped as u64);
        self.inner.metrics.gc_nodes_reclaimed.add(nodes_reclaimed);
        let mut stats = self.inner.lifecycle.lock();
        stats.gc_runs += 1;
        stats.versions_dropped += versions_dropped as u64;
        stats.nodes_reclaimed += nodes_reclaimed;
        GcStats { versions_dropped, versions_retained, nodes_reclaimed }
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
        let stats: Vec<_> =
            self.inner.pools.iter().filter_map(|p| p.as_ref()).map(|p| p.stats()).collect();
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
    use std::cell::Cell;
    use std::io::Write;

    thread_local! {
        /// One-shot fail point: the next `open_append` on this thread
        /// fails.
        pub(super) static FAIL_OPEN_APPEND: Cell<bool> = const { Cell::new(false) };
    }

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
            .commit(vec![Op::Put(10, 1), Op::Put(300, 2), Op::Put(600, 3), Op::Put(900, 4)])
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
            .commit(vec![Op::Put(5, 1), Op::Put(500, 9), Op::Delete(5), Op::Put(5, 3)])
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
        assert!(opts_limit >= 6, "test assumes the default window holds v0..=v5");
        for i in 0..5u64 {
            store.commit(vec![Op::Put(i, i), Op::Put(900 + i, i)]).unwrap();
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
        let opts = StoreOptions { history_limit: 2, ..StoreOptions::default() };
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

    #[test]
    fn compact_and_checkpoint_apis_are_typed_on_ephemeral_stores() {
        let store = mem(2);
        assert!(matches!(store.compact(), Err(StoreError::Ephemeral)));
        assert_eq!(store.latest_checkpoint(), None);
    }

    #[test]
    fn manifest_record_roundtrip_and_tears() {
        let rec = ManifestRecord {
            global: 42,
            participants: vec![0, 2],
            locals: vec![7, 0, 9],
        };
        let mut bytes = encode_manifest_record(&rec);
        let r = replay_manifest(&bytes, 3);
        assert!(!r.torn);
        assert_eq!(r.records, vec![rec.clone()]);
        assert_eq!(r.offsets, vec![0]);

        // Every strict prefix is torn with no records.
        for cut in 0..bytes.len() {
            let r = replay_manifest(&bytes[..cut], 3);
            assert!(r.records.is_empty(), "cut {cut}");
            assert_eq!(r.valid_len, 0);
        }

        // A second record with a non-increasing global is dropped.
        let clean = bytes.len();
        bytes.extend(encode_manifest_record(&ManifestRecord {
            global: 42,
            participants: vec![1],
            locals: vec![7, 1, 9],
        }));
        let r = replay_manifest(&bytes, 3);
        assert!(r.torn);
        assert_eq!(r.valid_len, clean);
        assert_eq!(r.records.len(), 1);

        // Wrong shard count is a parse failure, not a misread.
        let one = encode_manifest_record(&rec);
        assert!(replay_manifest(&one, 2).records.is_empty());
    }

    /// A trim that renames the new WAL into place and then fails to
    /// reopen it leaves the append handle on the unlinked old file. The
    /// next trim must get back onto the file at the path before it
    /// reports success, or later appends vanish.
    #[test]
    fn trim_after_a_failed_reopen_gets_back_onto_the_file() {
        let dir = scratch("stale-handle");
        let path = dir.join(LOG_FILE);
        let schema = crate::checksum::schema_id::<(u64, u64)>();
        let rec = |v: u64| wal::encode_record(v, v, &[0], schema, &[Op::Put(v, v)]);
        std::fs::write(&path, [rec(1), rec(2), rec(3)].concat()).unwrap();
        let mut log = open_append(&path).unwrap();

        // Pages cover v1, v2..=v3 were published meanwhile: the file is
        // rewritten, and the reopen after the rename fails.
        FAIL_OPEN_APPEND.with(|fail| fail.set(true));
        assert!(trim_shard_log::<u64, u64>(&path, &mut log, false, 1, 3).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), [rec(2), rec(3)].concat());

        // The healing checkpoint covers everything: in-place fast path.
        let dropped = trim_shard_log::<u64, u64>(&path, &mut log, true, 3, 3).unwrap();
        assert_eq!(dropped, (rec(2).len() + rec(3).len()) as u64);
        log.write_all(&rec(4)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), rec(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint that fails while trimming poisons the log; the next
    /// one heals it, and nothing acknowledged before or after is lost.
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
            FAIL_OPEN_APPEND.with(|fail| fail.set(true));
            assert!(matches!(store.compact(), Err(StoreError::Io(_))));
            let refused = store.put(2, 2).unwrap_err().to_string();
            assert!(refused.contains(&StoreError::LogPoisoned.to_string()), "{refused}");
            store.compact().unwrap();
            store.commit(vec![Op::Put(3, 3), Op::Put(901, 3)]).unwrap();
            drop(store);
            let store = open();
            assert_eq!(store.snapshot().to_vec(), vec![(1, 1), (3, 3), (900, 1), (901, 3)]);
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
