//! The one seeded world of the store's and the server's differential
//! suites (DESIGN.md §4): a [`Script`] of [`Step`]s drawn from a seed
//! and a [`Mix`], one versioned [`Oracle`], one checked [`replay`]
//! through any [`Target`], and a script shrinker behind the one runner,
//! [`check`].
//!
//! After every step `replay` checks the global version and the latest
//! checkpoint, length and contents, every pin's pin-time contents,
//! `VersionNotFound` for every version the target no longer lists (the
//! rest of its history is reread after each reopen, checkpoint and
//! `gc`), and each shard's pool against its budget. A probe also checks
//! point gets at the current version and at every pin, and one range.
//!
//! [`check`] runs cases through `proptest::check_seeded`
//! (`PROPTEST_SEED`, `PROPTEST_CASES`). A failing script is shrunk on
//! fresh directories, which it removes, and reported with its seed and
//! minimal steps; the last replay keeps its directories and prints them.

#![allow(dead_code)] // each test binary uses its own part of the world

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{ControlFlow, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use store::{
    Op, PacStore, PoolStats, RetentionPolicy, Router, ShardedStore, StoreError, StoreOptions,
};

pub type Key = u64;
pub type Val = u32;
pub type Entries = Vec<(Key, Val)>;

/// Whether a dropped [`Scratch`] keeps its directory.
#[derive(Clone, Copy)]
enum Keep {
    /// When its test is failing (panicking): the default.
    OnPanic,
    /// Never: [`check`] runs cases and shrink candidates, whose
    /// failures it replays once more at the end.
    Never,
    /// Always: [`check`]'s replay of the minimal failing script.
    Always,
}

thread_local! {
    static KEEP: Cell<Keep> = const { Cell::new(Keep::OnPanic) };
}

/// Runs `f` with dropped [`Scratch`]es keeping their directories as
/// `keep` says.
fn keeping<R>(keep: Keep, f: impl FnOnce() -> R) -> R {
    let outer = KEEP.replace(keep);
    let r = f();
    KEEP.set(outer);
    r
}

/// A fresh directory path named by process id, test name, `tag` and a
/// per-process counter, so no two tests, replays or concurrent test
/// processes share one. Dropping it removes the directory, unless the
/// test is failing: then the directory is kept and its path printed.
///
/// It lies in memory-backed `/dev/shm` where the system has one and
/// `TMPDIR` is unset, else in the temp dir. The suites check what a
/// store answers after a reopen, never what survives a power cut, and
/// on a disk the `fsync`s of checkpoints and pin tables take most of a
/// durable script's time.
pub struct Scratch(PathBuf);

pub fn scratch(tag: &str) -> Scratch {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let test = std::thread::current()
        .name()
        .unwrap_or("main")
        .replace("::", "-");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let shm = Path::new("/dev/shm");
    let root = if std::env::var_os("TMPDIR").is_none() && shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = root.join(format!("pactest-{}-{test}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Scratch(dir)
}

impl std::ops::Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let keep = match KEEP.get() {
            Keep::OnPanic => std::thread::panicking(),
            Keep::Never => false,
            Keep::Always => true,
        };
        if !self.0.exists() {
        } else if keep {
            eprintln!("kept the failing case's directory {}", self.0.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// The only shard's directory of a `PacStore` at `dir`: where its
/// pages live.
pub fn shard0(dir: &Path) -> PathBuf {
    dir.join(store::shard_dir_name(0))
}

/// Every file under `dir`, by relative path.
pub fn dir_tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Two directories hold the same files, byte for byte.
pub fn same_tree(a: &Path, b: &Path) -> Result<(), String> {
    let (a, b) = (dir_tree(a), dir_tree(b));
    match a.iter().zip(&b).find(|(x, y)| x != y) {
        Some(((path, _), (other, _))) => Err(format!(
            "{} differs from {}",
            path.display(),
            other.display()
        )),
        None if a.len() != b.len() => Err(format!("{} files against {}", a.len(), b.len())),
        None => Ok(()),
    }
}

/// One store configuration, every field explicit: the `PAC_POOL_PAGES`
/// override of `StoreOptions::default()` never reaches a world suite.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub shards: usize,
    pub b: usize,
    /// `Some(8)`, `Some(64)` or `None` (eager reads).
    pub pool_pages: Option<usize>,
    pub history: usize,
}

impl Config {
    pub fn options(&self) -> StoreOptions {
        StoreOptions {
            block_size: self.b,
            history_limit: self.history,
            pool_pages: self.pool_pages,
            ..StoreOptions::default()
        }
    }

    /// One shard is `Router::single()`, as for a `PacStore`.
    pub fn router(&self, span: Key) -> Router<Key> {
        match self.shards {
            1 => Router::single(),
            n => Router::uniform_span(n, span),
        }
    }

    pub fn in_memory(&self, span: Key) -> Result<ShardedStore<Key, Val>, String> {
        ShardedStore::in_memory_with(self.router(span), self.options())
            .map_err(|e| format!("open: {e}"))
    }

    pub fn sharded(&self, dir: &Path, span: Key) -> Result<ShardedStore<Key, Val>, String> {
        ShardedStore::open_or_create(dir, self.router(span), self.options())
            .map_err(|e| format!("open: {e}"))
    }

    pub fn pac(&self, dir: &Path) -> Result<PacStore<Key, Val>, String> {
        assert_eq!(self.shards, 1, "a PacStore has one shard");
        PacStore::open_with(dir, self.options()).map_err(|e| format!("open: {e}"))
    }
}

/// One step of a script; concrete, so every replay of a script is the
/// same by construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    Commit(Vec<Op<Key, Val>>),
    Save,
    /// Against the latest checkpoint (a full save when there is none),
    /// then against the bases beside it, which must be refused with
    /// `CheckpointMismatch`.
    SaveIncremental,
    Compact,
    /// Pin the current version, unless it is pinned already.
    Pin,
    /// Release pin `n % pins`, in pin order, if any.
    Unpin(usize),
    Gc(usize),
    Reopen,
    Probe {
        gets: Vec<Key>,
        lo: Key,
        hi: Key,
        limit: Option<usize>,
    },
}

impl Step {
    pub fn scan(lo: Key, hi: Key) -> Step {
        Step::Probe {
            gets: Vec::new(),
            lo,
            hi,
            limit: None,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Commit(ops) if ops.len() > 8 => {
                write!(
                    f,
                    "Commit({} ops: {:?} .. {:?})",
                    ops.len(),
                    &ops[..3],
                    &ops[ops.len() - 2..]
                )
            }
            step => write!(f, "{step:?}"),
        }
    }
}

/// What a script draws its steps from: a weight per step kind (a kind
/// of weight 0 is never drawn, so a target never meets a step its mix
/// lacks), the number of steps, the routed key span (keys are drawn a
/// quarter past it, into the last shard's open range), the ops per
/// commit, a bulk first commit of `preload` keys spread over the span,
/// and whether every drawn commit is followed by a probe with no limit.
pub struct Mix {
    pub commit: u32,
    pub save: u32,
    pub save_incremental: u32,
    pub compact: u32,
    pub pin: u32,
    pub unpin: u32,
    pub gc: u32,
    pub reopen: u32,
    pub probe: u32,
    pub steps: Range<usize>,
    pub keys: Key,
    pub batch: Range<usize>,
    pub preload: u64,
    pub probe_commits: bool,
}

/// The mix of nothing, which the suites' mixes fill in.
pub const NONE: Mix = Mix {
    commit: 0,
    save: 0,
    save_incremental: 0,
    compact: 0,
    pin: 0,
    unpin: 0,
    gc: 0,
    reopen: 0,
    probe: 0,
    steps: 0..1,
    keys: 96,
    batch: 0..1,
    preload: 0,
    probe_commits: false,
};

/// Draws the steps of one mix from one seed.
pub struct Gen<'m> {
    rng: StdRng,
    mix: &'m Mix,
}

impl<'m> Gen<'m> {
    pub fn new(seed: u64, mix: &'m Mix) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            mix,
        }
    }

    fn key(&mut self) -> Key {
        self.rng.gen_range(0..self.mix.keys + self.mix.keys / 4)
    }

    pub fn preload(&self) -> Option<Step> {
        let n = self.mix.preload;
        (n > 0).then(|| {
            Step::Commit(
                (0..n)
                    .map(|i| Op::Put(i * self.mix.keys / n, (i % 1000) as Val))
                    .collect(),
            )
        })
    }

    /// 70% puts, 30% deletes.
    pub fn commit(&mut self) -> Step {
        let len = self.rng.gen_range(self.mix.batch.clone());
        Step::Commit(
            (0..len)
                .map(|_| match (self.key(), self.rng.gen_range(0..10)) {
                    (k, 0..=6) => Op::Put(k, self.rng.gen_range(0..1_000)),
                    (k, _) => Op::Delete(k),
                })
                .collect(),
        )
    }

    /// Four point gets, misses among them, and one range.
    fn probe(&mut self, limit: Option<usize>) -> Step {
        let gets = (0..4).map(|_| self.key()).collect();
        let keys = self.mix.keys;
        let (a, z) = (self.rng.gen_range(0..keys), self.rng.gen_range(0..keys));
        Step::Probe {
            gets,
            lo: a.min(z),
            hi: a.max(z),
            limit,
        }
    }

    fn step(&mut self) -> Step {
        let m = self.mix;
        let weights = [
            m.commit,
            m.save,
            m.save_incremental,
            m.compact,
            m.pin,
            m.unpin,
            m.gc,
            m.reopen,
            m.probe,
        ];
        let mut roll = self.rng.gen_range(0..weights.iter().sum::<u32>());
        let kind = weights
            .iter()
            .take_while(|&&w| roll.checked_sub(w).map(|r| roll = r).is_some())
            .count();
        match kind {
            0 => self.commit(),
            1 => Step::Save,
            2 => Step::SaveIncremental,
            3 => Step::Compact,
            4 => Step::Pin,
            5 => Step::Unpin(self.rng.gen_range(0..8)),
            6 => Step::Gc(self.rng.gen_range(1..4)),
            7 => Step::Reopen,
            _ => {
                let limit = self.rng.gen_range(0..16usize);
                self.probe((limit < 8).then_some(limit + 1))
            }
        }
    }
}

/// A seed and the steps drawn from it.
#[derive(Clone, Debug)]
pub struct Script {
    pub seed: u64,
    pub steps: Vec<Step>,
}

impl Script {
    /// The mix's preload, then a mix-drawn number of mix-drawn steps,
    /// and one more commit if the mix commits and none was drawn.
    pub fn generate(seed: u64, mix: &Mix) -> Script {
        let mut gen = Gen::new(seed, mix);
        let mut steps: Vec<Step> = gen.preload().into_iter().collect();
        let n = gen.rng.gen_range(mix.steps.clone());
        let mut drawn: Vec<Step> = (0..n).map(|_| gen.step()).collect();
        if mix.commit > 0 && !drawn.iter().any(|step| matches!(step, Step::Commit(_))) {
            drawn.push(gen.commit());
        }
        for step in drawn {
            let commit = matches!(step, Step::Commit(_));
            steps.push(step);
            if commit && mix.probe_commits {
                steps.push(gen.probe(None));
            }
        }
        Script { seed, steps }
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {}, {} steps:", self.seed, self.steps.len())?;
        self.steps
            .iter()
            .enumerate()
            .try_for_each(|(i, step)| write!(f, "\n  {i:>3}: {step}"))
    }
}

/// A read at a version: `Ok(None)` when the target answers
/// `VersionNotFound`.
pub type AtVersion<T> = Result<Option<T>, String>;

/// A read at version `v`: `VersionNotFound` must name `v`.
fn at_version<T>(v: u64, read: Result<T, StoreError>) -> AtVersion<T> {
    match read {
        Ok(t) => Ok(Some(t)),
        Err(StoreError::VersionNotFound(n)) if n == v => Ok(None),
        Err(e) => Err(format!("read at version {v}: {e}")),
    }
}

/// The first `limit` entries `read` streams.
fn first(
    limit: usize,
    read: impl FnOnce(&mut dyn FnMut(&(Key, Val)) -> ControlFlow<()>),
) -> Entries {
    let mut out = Vec::new();
    read(&mut |e| {
        out.push(*e);
        if out.len() == limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

/// What a script runs against: a store handle, or anything that reaches
/// one. Every method runs on the [`Target::engine`] handle unless the
/// target overrides it.
pub trait Target {
    fn engine(&self) -> &ShardedStore<Key, Val>;

    /// The global commit id.
    fn commit(&self, ops: Vec<Op<Key, Val>>) -> Result<u64, String> {
        self.engine().commit(ops).map_err(|e| e.to_string())
    }
    fn current_version(&self) -> Result<u64, String> {
        Ok(self.engine().current_version())
    }
    /// The global ids the target retains.
    fn versions(&self) -> Vec<u64> {
        self.engine().versions()
    }
    fn len(&self) -> Result<usize, String> {
        Ok(self.engine().len())
    }
    /// Every entry at the current version (`None`) or at a global id.
    fn entries(&self, at: Option<u64>) -> AtVersion<Entries> {
        match at {
            None => Ok(Some(self.engine().snapshot().to_vec())),
            Some(v) => at_version(v, self.engine().snapshot_at(v).map(|s| s.to_vec())),
        }
    }
    fn get(&self, key: Key, at: Option<u64>) -> AtVersion<Option<Val>> {
        let store = self.engine();
        let snap = match at {
            None => store.snapshot(),
            Some(v) => match at_version(v, store.snapshot_at(v))? {
                Some(snap) => snap,
                None => return Ok(None),
            },
        };
        let got = snap.get(&key);
        if snap.contains_key(&key) == got.is_some() && (at.is_some() || store.get(&key) == got) {
            Ok(Some(got))
        } else {
            Err(format!(
                "get({key}) at {at:?}: snapshot get, contains_key and store get disagree"
            ))
        }
    }
    /// `lo..=hi` at the current version, at most `limit` entries.
    fn range(&self, lo: Key, hi: Key, limit: Option<usize>) -> Result<Entries, String> {
        Ok(match limit {
            None => self.engine().range_entries(&lo, &hi),
            Some(n) => first(n, |f| {
                let _ = self.engine().snapshot().range_for_each(&lo, &hi, f);
            }),
        })
    }
    fn pin(&self, version: u64) -> Result<(), String> {
        self.engine()
            .pin_version(version)
            .map_err(|e| e.to_string())
    }
    fn unpin(&self, version: u64) -> Result<(), String> {
        self.engine()
            .unpin_version(version)
            .map_err(|e| e.to_string())
    }
    fn gc(&self, keep: usize) {
        self.engine().gc(RetentionPolicy::keep_last(keep));
    }
    fn save(&self) -> Result<u64, String> {
        self.engine().save().map_err(|e| e.to_string())
    }
    fn save_incremental(&self, base: u64) -> Result<u64, StoreError> {
        self.engine().save_incremental(base)
    }
    fn compact(&self) -> Result<u64, String> {
        self.engine().compact().map_err(|e| e.to_string())
    }
    fn latest_checkpoint(&self) -> Option<u64> {
        self.engine().latest_checkpoint()
    }
    /// Each shard's pool, empty when reads are eager.
    fn pools(&self) -> Vec<PoolStats> {
        self.engine().shard_pool_stats().unwrap_or_default()
    }
    /// What else two targets that replayed one script must agree on: the
    /// pins and the lifecycle counters, less `nodes_reclaimed`, a delta
    /// of process-global cpam counters that concurrent tests move.
    fn state(&self) -> String {
        let counters = store::LifecycleStats {
            nodes_reclaimed: 0,
            ..self.engine().lifecycle_stats()
        };
        format!("pins {:?}, {counters:?}", self.engine().pinned_versions())
    }
}

impl Target for ShardedStore<Key, Val> {
    fn engine(&self) -> &ShardedStore<Key, Val> {
        self
    }
}

/// The one-shard handle runs its own `commit`, `get`, `range_entries`,
/// `compact` and snapshots, and the engine's everything else.
impl Target for PacStore<Key, Val> {
    fn engine(&self) -> &ShardedStore<Key, Val> {
        self
    }
    fn commit(&self, ops: Vec<Op<Key, Val>>) -> Result<u64, String> {
        PacStore::commit(self, ops).map_err(|e| e.to_string())
    }
    fn len(&self) -> Result<usize, String> {
        Ok(self.snapshot().map().len())
    }
    fn entries(&self, at: Option<u64>) -> AtVersion<Entries> {
        match at {
            None => Ok(Some(self.snapshot().map().to_vec())),
            Some(v) => at_version(v, self.snapshot_at(v).map(|s| s.map().to_vec())),
        }
    }
    fn get(&self, key: Key, at: Option<u64>) -> AtVersion<Option<Val>> {
        match at {
            None => Ok(Some(PacStore::get(self, &key))),
            Some(v) => at_version(v, self.snapshot_at(v).map(|s| s.map().find(&key))),
        }
    }
    fn range(&self, lo: Key, hi: Key, limit: Option<usize>) -> Result<Entries, String> {
        Ok(match limit {
            None => self.range_entries(&lo, &hi),
            Some(n) => first(n, |f| {
                let _ = self.snapshot().map().range_for_each(&lo, &hi, f);
            }),
        })
    }
    fn compact(&self) -> Result<u64, String> {
        PacStore::compact(self).map_err(|e| e.to_string())
    }
}

/// The sorted contents at every global id (a pin's pin-time contents are
/// those of its id: a version never changes), the pins in pin order,
/// and the latest checkpoint.
pub struct Oracle {
    at: Vec<Entries>,
    pins: Vec<u64>,
    checkpoint: Option<u64>,
}

impl Oracle {
    fn version(&self) -> u64 {
        self.at.len() as u64 - 1
    }

    fn entries(&self, v: u64) -> &Entries {
        &self.at[v as usize]
    }

    fn get(&self, v: u64, key: Key) -> Option<Val> {
        let at = self.entries(v);
        at.binary_search_by_key(&key, |e| e.0).ok().map(|i| at[i].1)
    }

    fn commit(&mut self, ops: &[Op<Key, Val>]) {
        let mut next: BTreeMap<Key, Val> = self.entries(self.version()).iter().copied().collect();
        for op in ops {
            match *op {
                Op::Put(k, v) => next.insert(k, v),
                Op::Delete(k) => next.remove(&k),
            };
        }
        self.at.push(next.into_iter().collect());
    }
}

/// What a replay leaves: the last handle, a line per step of what the
/// target answered (and its [`Target::state`] after each reopen and at
/// the end), and the pool counters (hits, misses, evictions) of every
/// handle it opened.
pub struct Replayed<T> {
    pub target: T,
    pub log: Vec<String>,
    pub pool: PoolStats,
}

/// Replays `script` on the target `open` builds, and rebuilds at each
/// reopen, checking it against the oracle after every step.
pub fn replay<T: Target>(
    script: &Script,
    cfg: &Config,
    open: impl Fn() -> Result<T, String>,
) -> Result<Replayed<T>, String> {
    let mut t = open()?;
    let mut oracle = Oracle {
        at: vec![Vec::new()],
        pins: Vec::new(),
        checkpoint: None,
    };
    let (mut log, mut pool) = (Vec::new(), PoolStats::default());
    let count = |pool: &mut PoolStats, t: &T| {
        for p in t.pools() {
            (pool.hits, pool.misses, pool.evictions) = (
                pool.hits + p.hits,
                pool.misses + p.misses,
                pool.evictions + p.evictions,
            );
        }
    };
    check_state(&t, &oracle, cfg, true).map_err(|e| format!("on open: {e}"))?;
    for (i, step) in script.steps.iter().enumerate() {
        let did = match step {
            Step::Reopen => {
                count(&mut pool, &t);
                drop(t);
                t = open().map_err(|e| format!("step {i} ({step}): {e}"))?;
                // The log reaches back to the latest checkpoint only: a
                // pin older than that cannot come back.
                oracle.pins.retain(|&p| p >= oracle.checkpoint.unwrap_or(0));
                Ok("reopened".to_string())
            }
            step => run_step(&t, &mut oracle, step),
        };
        // Unpinned history is reread where its backing can change.
        let rebuilt = matches!(
            step,
            Step::Reopen | Step::Save | Step::SaveIncremental | Step::Compact | Step::Gc(_)
        );
        let did = did
            .and_then(|did| check_state(&t, &oracle, cfg, rebuilt).map(|()| did))
            .map_err(|e| format!("step {i} ({step}): {e}"))?;
        log.push(format!("{did}; versions {:?}", t.versions()));
        if let Step::Reopen = step {
            log.push(t.state());
        }
    }
    check_state(&t, &oracle, cfg, true).map_err(|e| format!("after the last step: {e}"))?;
    log.push(t.state());
    count(&mut pool, &t);
    Ok(Replayed {
        target: t,
        log,
        pool,
    })
}

/// Runs one step on the target and the oracle; what the target answered.
fn run_step<T: Target>(t: &T, oracle: &mut Oracle, step: &Step) -> Result<String, String> {
    let checkpoint = |oracle: &mut Oracle, saved: u64| {
        if saved == oracle.version() {
            Ok(format!("checkpoint {}", *oracle.checkpoint.insert(saved)))
        } else {
            Err(format!(
                "checkpointed version {saved}, current is {}",
                oracle.version()
            ))
        }
    };
    match step {
        Step::Commit(ops) => {
            oracle.commit(ops);
            match t.commit(ops.clone())? {
                v if v == oracle.version() => Ok(format!("committed {v}")),
                v => Err(format!(
                    "commit returned version {v}, expected {}",
                    oracle.version()
                )),
            }
        }
        Step::Save => checkpoint(oracle, t.save()?),
        Step::Compact => checkpoint(oracle, t.compact()?),
        Step::SaveIncremental => {
            let saved = match oracle.checkpoint {
                Some(base) => t
                    .save_incremental(base)
                    .map_err(|e| format!("save_incremental({base}): {e}"))?,
                None => t.save()?,
            };
            for wrong in [saved.checked_sub(1), Some(saved + 1)]
                .into_iter()
                .flatten()
            {
                match t.save_incremental(wrong) {
                    Err(StoreError::CheckpointMismatch { requested, actual })
                        if requested == wrong && actual == Some(saved) => {}
                    other => {
                        return Err(format!(
                            "save_incremental({wrong}) on checkpoint {saved}: {other:?}"
                        ))
                    }
                }
            }
            checkpoint(oracle, saved)
        }
        Step::Pin if oracle.pins.contains(&oracle.version()) => Ok("already pinned".into()),
        Step::Pin => {
            t.pin(oracle.version())?;
            oracle.pins.push(oracle.version());
            Ok(format!("pinned {}", oracle.version()))
        }
        Step::Unpin(_) if oracle.pins.is_empty() => Ok("nothing pinned".into()),
        Step::Unpin(n) => {
            let v = oracle.pins.remove(n % oracle.pins.len());
            t.unpin(v)?;
            Ok(format!("unpinned {v}"))
        }
        Step::Gc(keep) => {
            let before = t.versions();
            t.gc(*keep);
            let after = t.versions();
            // The newest `keep` stay, and nothing comes back.
            let newest = &before[before.len().saturating_sub(*keep)..];
            if after.iter().all(|v| before.contains(v)) && newest.iter().all(|v| after.contains(v))
            {
                Ok(format!("gc kept {after:?} of {before:?}"))
            } else {
                Err(format!(
                    "gc keeping {keep} turned {before:?} into {after:?}"
                ))
            }
        }
        Step::Probe {
            gets,
            lo,
            hi,
            limit,
        } => {
            for &k in gets {
                for at in std::iter::once(None).chain(oracle.pins.iter().map(|&p| Some(p))) {
                    let want = oracle.get(at.unwrap_or(oracle.version()), k);
                    match t.get(k, at)? {
                        Some(got) if got == want => {}
                        got => {
                            return Err(format!("get({k}) at {at:?} = {got:?}, oracle {want:?}"))
                        }
                    }
                }
            }
            let got = t.range(*lo, *hi, *limit)?;
            let all = oracle
                .entries(oracle.version())
                .iter()
                .filter(|e| (lo..=hi).contains(&&e.0));
            let want: Entries = all.take(limit.unwrap_or(usize::MAX)).copied().collect();
            if got == want {
                Ok(format!("{} entries in range", got.len()))
            } else {
                Err(format!(
                    "range [{lo}, {hi}] limit {limit:?}\n  target: {got:?}\n  oracle: {want:?}"
                ))
            }
        }
        Step::Reopen => unreachable!("the replay loop reopens"),
    }
}

/// The target's state against the oracle's; unpinned history's contents
/// only with `history`.
fn check_state<T: Target>(
    t: &T,
    oracle: &Oracle,
    cfg: &Config,
    history: bool,
) -> Result<(), String> {
    let cur = oracle.version();
    let (version, checkpoint) = (t.current_version()?, t.latest_checkpoint());
    if (version, checkpoint) != (cur, oracle.checkpoint) {
        return Err(format!(
            "at version {version}, checkpoint {checkpoint:?}; oracle {cur}, {:?}",
            oracle.checkpoint
        ));
    }
    let want = oracle.entries(cur);
    let (len, got) = (t.len()?, t.entries(None)?);
    if len != want.len() || got.as_ref() != Some(want) {
        return Err(format!(
            "len {len}, contents diverge\n  target: {got:?}\n  oracle: {want:?}"
        ));
    }
    let listed = t.versions();
    if let Some(v) = std::iter::once(&cur)
        .chain(&oracle.pins)
        .find(|v| !listed.contains(v))
    {
        return Err(format!(
            "version {v}, current or pinned, is not among {listed:?}"
        ));
    }
    for v in 0..=cur {
        let got = if !listed.contains(&v) {
            // Not listed: the one answer is `VersionNotFound`.
            match t.get(0, Some(v))? {
                None => continue,
                Some(got) => {
                    return Err(format!(
                        "version {v} is not listed, yet get(0) at it is {got:?}"
                    ))
                }
            }
        } else if history || oracle.pins.contains(&v) {
            t.entries(Some(v))?
        } else {
            continue;
        };
        if got.as_ref() != Some(oracle.entries(v)) {
            return Err(format!(
                "version {v} diverges\n  target: {got:?}\n  oracle: {:?}",
                oracle.entries(v)
            ));
        }
    }
    let budget = cfg.pool_pages.unwrap_or(usize::MAX);
    match t.pools().iter().position(|p| p.resident_pages > budget) {
        Some(shard) => Err(format!("shard {shard} holds more than {budget} pages")),
        None => Ok(()),
    }
}

/// The one runner: `cases` seeded cases of `name` through
/// `proptest::check_seeded`, each `generate`d from its seed and run by
/// `case`. A panic fails a case like an `Err`; a failing script is
/// shrunk, replayed once more with its directories kept, and reported.
pub fn check(
    name: &str,
    cases: u32,
    generate: impl Fn(u64) -> Script,
    case: impl Fn(&Script) -> Result<(), String>,
) {
    let case = |script: &Script| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(script)))
            .unwrap_or_else(|payload| Err(proptest::panic_message(payload)))
    };
    proptest::check_seeded(name, cases, |seed| {
        let script = generate(seed);
        let Err(error) = keeping(Keep::Never, || case(&script)) else {
            return Ok(());
        };
        let (minimal, error) = keeping(Keep::Never, || shrink(script, error, &case));
        let _ = keeping(Keep::Always, || case(&minimal));
        Err(format!("{error}\nminimal script, {minimal}"))
    });
}

/// Drops steps and halves commits, one change at a time, keeping each
/// change while `case` still fails: a script no single change of which
/// fails anymore, and its error.
pub fn shrink(
    mut script: Script,
    mut error: String,
    case: &impl Fn(&Script) -> Result<(), String>,
) -> (Script, String) {
    let candidates = |script: &Script| {
        let mut out: Vec<Script> = Vec::new();
        for (i, step) in script.steps.iter().enumerate() {
            let mut without = script.clone();
            without.steps.remove(i);
            out.push(without);
            if let Step::Commit(ops) = step {
                let (front, back) = ops.split_at(ops.len() / 2);
                for half in [front, back].into_iter().filter(|_| ops.len() > 1) {
                    let mut halved = script.clone();
                    halved.steps[i] = Step::Commit(half.to_vec());
                    out.push(halved);
                }
            }
        }
        out
    };
    while let Some((smaller, e)) = candidates(&script)
        .into_iter()
        .find_map(|c| case(&c).err().map(|e| (c, e)))
    {
        (script, error) = (smaller, e);
    }
    (script, error)
}
