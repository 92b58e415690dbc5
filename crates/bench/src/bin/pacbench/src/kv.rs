//! The phases the two store workloads share. `ShardedStore` and
//! `PacStore` expose the same calls without a common trait, so the
//! harness names the few it needs here and runs one phase body over
//! either engine.

use codecs::{BlockIo, Codec};
use cpam::{NoAug, PacMap};
use store::{Op, PacStore, ShardedStore, StoreError};

use crate::common::{Check, Outcome, Plan};
use crate::gen::{bulk_target, small_target, value_ok, OpHash, Rng, KEY_SPAN};
use crate::measure::{hist_now, hist_p50_us, hist_since, Phase, Step, REPLAY_EVERY};
use crate::trace::{Recorder, SpanName};

/// Ops per small commit.
pub const COMMIT_OPS: usize = 64;

/// The store calls a phase makes.
pub trait Kv {
    type Codec: BlockIo<(u64, u64)>;
    fn get(&self, k: &u64) -> Option<u64>;
    fn commit(&self, ops: Vec<Op<u64, u64>>) -> Result<u64, StoreError>;
    fn range_entries(&self, lo: &u64, hi: &u64) -> Vec<(u64, u64)>;
    fn compact(&self) -> Result<u64, StoreError>;
    /// Runs `f` on the tree that currently holds `k`.
    fn with_map<R>(&self, k: u64, f: impl FnOnce(&PacMap<u64, u64, NoAug, Self::Codec>) -> R) -> R;
}

impl<C: BlockIo<(u64, u64)>> Kv for ShardedStore<u64, u64, C> {
    type Codec = C;
    fn get(&self, k: &u64) -> Option<u64> {
        ShardedStore::get(self, k)
    }
    fn commit(&self, ops: Vec<Op<u64, u64>>) -> Result<u64, StoreError> {
        ShardedStore::commit(self, ops)
    }
    fn range_entries(&self, lo: &u64, hi: &u64) -> Vec<(u64, u64)> {
        ShardedStore::range_entries(self, lo, hi)
    }
    fn compact(&self) -> Result<u64, StoreError> {
        ShardedStore::compact(self)
    }
    fn with_map<R>(&self, k: u64, f: impl FnOnce(&PacMap<u64, u64, NoAug, C>) -> R) -> R {
        f(self.snapshot().shard_map(self.shard_of(&k)))
    }
}

impl<C: BlockIo<(u64, u64)>> Kv for PacStore<u64, u64, C> {
    type Codec = C;
    fn get(&self, k: &u64) -> Option<u64> {
        PacStore::get(self, k)
    }
    fn commit(&self, ops: Vec<Op<u64, u64>>) -> Result<u64, StoreError> {
        PacStore::commit(self, ops)
    }
    fn range_entries(&self, lo: &u64, hi: &u64) -> Vec<(u64, u64)> {
        PacStore::range_entries(self, lo, hi)
    }
    fn compact(&self) -> Result<u64, StoreError> {
        PacStore::compact(self)
    }
    fn with_map<R>(&self, _k: u64, f: impl FnOnce(&PacMap<u64, u64, NoAug, C>) -> R) -> R {
        f(self.snapshot().map())
    }
}

/// The store's own commit-pipeline histograms and lifecycle counters,
/// windowed to one write phase.
pub struct CommitWindows {
    before: Vec<obs::HistogramSnapshot>,
    life: store::LifecycleStats,
}

const COMMIT_HISTS: [(&str, &str); 6] = [
    ("store.ticket_wait_p50_us", "pacstore_commit_ticket_wait_ns"),
    ("store.apply_p50_us", "pacstore_commit_apply_ns"),
    ("store.wal_append_p50_us", "pacstore_wal_append_ns"),
    (
        "store.manifest_append_p50_us",
        "pacstore_manifest_append_ns",
    ),
    ("store.compact_pause_p50_ms", "pacstore_compact_ns"),
    (
        "store.compact_truncate_p50_ms",
        "pacstore_compact_truncate_ns",
    ),
];

/// What [`CommitWindows::report`] reports: a workload that opens no
/// store declares these not exercised.
pub const COMMIT_WINDOWS: [&str; 8] = [
    COMMIT_HISTS[0].0,
    COMMIT_HISTS[1].0,
    COMMIT_HISTS[2].0,
    COMMIT_HISTS[3].0,
    COMMIT_HISTS[4].0,
    COMMIT_HISTS[5].0,
    "store.incr_bytes_per_cycle",
    "store.wal_bytes_per_put_key",
];

/// The buffer pool's windows, which only `store_paged` reports.
pub const POOL_WINDOWS: [&str; 6] = [
    "store.pool_hit_ratio",
    "store.pool_misses_per_get",
    "store.page_fault_us",
    "store.pool_evictions_per_scan_page",
    "store.hot_hit_ratio_after_scan",
    "store.resident_peak_bytes",
];

impl CommitWindows {
    pub fn open(life: store::LifecycleStats) -> CommitWindows {
        CommitWindows {
            before: COMMIT_HISTS.iter().map(|(_, h)| hist_now(h)).collect(),
            life,
        }
    }

    /// Closes the windows and reports them as per-layer metrics.
    pub fn report(self, life: store::LifecycleStats, keys_written: u64, out: &mut Outcome) {
        for ((metric, hist), before) in COMMIT_HISTS.iter().zip(&self.before) {
            let p50_us = hist_p50_us(&hist_since(hist, before));
            if metric.ends_with("_ms") {
                out.layer(metric, p50_us / 1e3, "ms");
            } else {
                out.layer(metric, p50_us, "us");
            }
        }
        let life = life.delta(self.life);
        out.layer(
            "store.incr_bytes_per_cycle",
            life.incremental_page_bytes as f64 / life.compactions.max(1) as f64,
            "B",
        );
        out.layer(
            "store.wal_bytes_per_put_key",
            life.wal_bytes_truncated as f64 / keys_written.max(1) as f64,
            "B",
        );
    }
}

/// Half-width of the key interval that holds ~128 of `n` uniformly
/// spread keys: the leaf block around a key.
pub fn block_half_width(n: usize) -> u64 {
    64 * (KEY_SPAN / n as u64)
}

/// Replays a point read below the store: the tree's `find`, then the
/// codec's search of the one block it lands in.
fn replay_get<S: Kv>(store: &S, k: u64, n: usize, root: u32, rec: &mut Recorder) {
    store.with_map(k, |map| {
        let (find, _) = rec.child(SpanName::CpamFind, root, || {
            std::hint::black_box(map.find(&k))
        });
        let half = block_half_width(n);
        let block =
            S::Codec::encode(&map.range_entries(&k.saturating_sub(half), &k.saturating_add(half)));
        rec.child(SpanName::CodecSearch, find, || {
            std::hint::black_box(S::Codec::search_by(&block, |e: &(u64, u64)| e.0.cmp(&k)).is_ok())
        });
    });
}

/// Replays a small commit below the store: the same puts as one
/// persistent `multi_insert` on the tree, then one block's encode.
fn replay_commit<S: Kv>(store: &S, ops: &[Op<u64, u64>], n: usize, root: u32, rec: &mut Recorder) {
    let batch: Vec<(u64, u64)> = ops
        .iter()
        .filter_map(|op| match *op {
            Op::Put(k, v) => Some((k, v)),
            Op::Delete(_) => None,
        })
        .collect();
    let Some(&(k, _)) = batch.first() else { return };
    store.with_map(k, |map| {
        let (insert, _) = rec.child(SpanName::CpamInsert, root, || {
            std::hint::black_box(map.multi_insert(batch).len())
        });
        let half = block_half_width(n);
        let entries = map.range_entries(&k.saturating_sub(half), &k.saturating_add(half));
        rec.child(SpanName::CodecEncode, insert, || {
            std::hint::black_box(S::Codec::encode(&entries));
        });
    });
}

/// Point-read probes: `hot_share` tenths go to `hot` (a slice of
/// `keys`), the rest are uniform over `keys` with one in five of those
/// a miss.
pub fn plan_gets(
    rng: &mut Rng,
    keys: &[u64],
    hot: &[u64],
    hot_tenths: u64,
    count: usize,
    hash: &mut OpHash,
) -> Vec<u64> {
    let probes: Vec<u64> = (0..count)
        .map(|_| {
            if rng.below(10) < hot_tenths {
                hot[rng.below(hot.len() as u64) as usize]
            } else if rng.below(5) == 0 {
                rng.miss_key()
            } else {
                keys[rng.below(keys.len() as u64) as usize]
            }
        })
        .collect();
    hash.mix_all(&probes);
    probes
}

#[inline]
fn check_get(got: Option<u64>, k: u64, max_gen: u64, check: &mut Check) {
    match got {
        Some(v) => check.ok(k & 1 == 0 && value_ok(k, v, max_gen)),
        None => check.ok(k & 1 == 1),
    }
}

/// The probes of a traced twin of a read phase: the same probes, half
/// a phase out of step, so the twin never reads a key its sibling has
/// just pulled into the cache.
pub fn out_of_step(probes: &[u64], warm: usize) -> Vec<u64> {
    let mut twin = probes.to_vec();
    let timed = twin.len() - warm;
    twin[warm..].rotate_left(timed / 2);
    twin
}

/// The read phase: one `get` per call.
pub struct ReadPhase<'a> {
    probes: &'a [u64],
    n: usize,
    max_gen: u64,
    pub phase: Phase,
}

impl<'a> ReadPhase<'a> {
    /// Runs `probes[..warm]` untimed; the rest are the phase's calls.
    pub fn new<S: Kv>(
        name: &'static str,
        store: &S,
        probes: &'a [u64],
        warm: usize,
        n: usize,
        max_gen: u64,
        check: &mut Check,
    ) -> Self {
        let (warm_probes, probes) = probes.split_at(warm);
        for &k in warm_probes {
            check_get(store.get(&k), k, max_gen, check);
        }
        ReadPhase {
            probes,
            n,
            max_gen,
            phase: Phase::new(name, probes.len()),
        }
    }

    pub fn lap<S: Kv>(
        &mut self,
        lap: usize,
        store: &S,
        rec: Option<&mut Recorder>,
        check: &mut Check,
    ) {
        let (probes, n, max_gen) = (self.probes, self.n, self.max_gen);
        self.phase.lap(
            lap,
            |_| SpanName::Get,
            rec,
            |step| {
                match step {
                    Step::Call(i) => check_get(store.get(&probes[i]), probes[i], max_gen, check),
                    // Replayed with a probe the phase has not touched lately:
                    // the key just read would be served from a warm cache and
                    // understate every layer.
                    Step::Replay(i, root, rec) => replay_get(
                        store,
                        probes[(i + probes.len() / 2) % probes.len()],
                        n,
                        root,
                        rec,
                    ),
                }
                1
            },
        );
    }
}

/// One lap's read slice, and its traced twin's when there is one.
/// Which of the two goes first alternates by lap, so neither always
/// inherits the other's warm structure.
pub fn read_laps<S: Kv>(
    store: &S,
    lap: usize,
    read: &mut ReadPhase<'_>,
    twin: Option<&mut ReadPhase<'_>>,
    rec: Option<&mut Recorder>,
    check: &mut Check,
) {
    match twin {
        None => read.lap(lap, store, None, check),
        Some(twin) if lap.is_multiple_of(2) => {
            read.lap(lap, store, None, check);
            twin.lap(lap, store, rec, check);
        }
        Some(twin) => {
            twin.lap(lap, store, rec, check);
            read.lap(lap, store, None, check);
        }
    }
}

/// Commit batches: nine puts in ten (half overwrite a stable key at the
/// commit's generation, half add a fresh volatile key), one delete in
/// ten of a volatile key an earlier commit added. The oracle and the
/// op hash are updated here, in commit order, before anything runs.
pub fn plan_commits(
    rng: &mut Rng,
    keys: &[u64],
    commits: usize,
    ops_per_commit: usize,
    plan: &mut Plan,
) -> Vec<Vec<Op<u64, u64>>> {
    let mut added: Vec<u64> = Vec::new();
    (0..commits)
        .map(|_| {
            let gen = plan.next_gen();
            (0..ops_per_commit)
                .map(|_| {
                    let roll = rng.below(20);
                    if roll < 2 && !added.is_empty() {
                        let k = added.swap_remove(rng.below(added.len() as u64) as usize);
                        plan.delete(k);
                        return Op::Delete(k);
                    }
                    let k = if roll < 11 {
                        small_target(rng, keys)
                    } else {
                        let k = rng.volatile_key();
                        added.push(k);
                        k
                    };
                    Op::Put(k, plan.put(k, gen))
                })
                .collect()
        })
        .collect()
}

/// The write phase: one commit per call, and `compactions` calls of
/// `compact()` evenly spaced between its slices (the last one closing
/// the phase), timed as a phase of their own (`pauses`) so the commits'
/// median slice is a slice of commits. The phase's time is the two
/// together. Units are keys written.
pub struct WritePhase {
    batches: Vec<Option<Vec<Op<u64, u64>>>>,
    copies: Vec<Option<Vec<Op<u64, u64>>>>,
    n: usize,
    pub phase: Phase,
    pub pauses: Phase,
}

impl WritePhase {
    /// Commits `batches[..warm]` untimed; the rest are the phase's calls.
    pub fn new<S: Kv>(
        store: &S,
        mut batches: Vec<Vec<Op<u64, u64>>>,
        warm: usize,
        compactions: usize,
        n: usize,
        traced: bool,
        check: &mut Check,
    ) -> Self {
        let timed = batches.split_off(warm);
        for ops in batches {
            check.ok(store.commit(ops).is_ok());
        }
        // A traced run replays from copies: `commit` consumes its batch.
        // Call `i` is replayed with the batch half a phase away, whose
        // keys are cold (see `ReadPhase::lap`).
        let len = timed.len();
        let copies = (0..len)
            .map(|i| (traced && i % REPLAY_EVERY == 0).then(|| timed[(i + len / 2) % len].clone()))
            .collect();
        WritePhase {
            batches: timed.into_iter().map(Some).collect(),
            copies,
            n,
            phase: Phase::new("write", len),
            pauses: Phase::new("compact", compactions),
        }
    }

    pub fn lap<S: Kv>(
        &mut self,
        lap: usize,
        store: &S,
        rec: Option<&mut Recorder>,
        check: &mut Check,
    ) {
        let (batches, copies, n) = (&mut self.batches, &self.copies, self.n);
        self.phase.lap(
            lap,
            |_| SpanName::Put,
            rec,
            |step| match step {
                Step::Call(i) => {
                    let ops = batches[i].take().expect("each batch is committed once");
                    let keys = ops.len() as u64;
                    check.ok(store.commit(ops).is_ok());
                    keys
                }
                Step::Replay(i, root, rec) => {
                    if let Some(ops) = &copies[i] {
                        replay_commit(store, ops, n, root, rec);
                    }
                    0
                }
            },
        );
        self.pauses.lap(
            lap,
            |_| SpanName::Put,
            None,
            |_| {
                check.ok(store.compact().is_ok());
                0
            },
        );
    }
}

/// Range windows of ~100 entries starting at a stable key. Plan the
/// windows after every write: a window's values are checked against the
/// plan's last generation.
pub struct WindowPhase<'a> {
    keys: &'a [u64],
    starts: Vec<usize>,
    max_gen: u64,
    pub phase: Phase,
}

impl<'a> WindowPhase<'a> {
    fn window<S: Kv>(store: &S, keys: &[u64], s: usize, max_gen: u64, check: &mut Check) -> u64 {
        let got = store.range_entries(&keys[s], &keys[s + 99]);
        check.ok(got.len() >= 100 && got[0].0 == keys[s] && value_ok(got[0].0, got[0].1, max_gen));
        got.len() as u64
    }

    /// Plans `windows` calls and runs 1 % more of them untimed first.
    pub fn new<S: Kv>(
        name: &'static str,
        store: &S,
        keys: &'a [u64],
        rng: &mut Rng,
        windows: usize,
        plan: &mut Plan,
        check: &mut Check,
    ) -> Self {
        let max_gen = plan.max_gen;
        let warm = windows / 100;
        let mut starts: Vec<usize> = (0..warm + windows)
            .map(|_| rng.below((keys.len() - 100) as u64) as usize)
            .collect();
        for &s in &starts {
            plan.hash.mix(s as u64);
        }
        let timed = starts.split_off(warm);
        for s in starts {
            Self::window(store, keys, s, max_gen, check);
        }
        WindowPhase {
            keys,
            starts: timed,
            max_gen,
            phase: Phase::new(name, windows),
        }
    }

    pub fn lap<S: Kv>(
        &mut self,
        lap: usize,
        store: &S,
        rec: Option<&mut Recorder>,
        check: &mut Check,
    ) {
        let (keys, starts, max_gen) = (self.keys, &self.starts, self.max_gen);
        self.phase.lap(
            lap,
            |_| SpanName::Scan,
            rec,
            |step| match step {
                Step::Call(i) => Self::window(store, keys, starts[i], max_gen, check),
                Step::Replay(i, root, rec) => {
                    let (lo, hi) = (keys[starts[i]], keys[starts[i] + 99]);
                    store.with_map(lo, |map| {
                        let (range, entries) =
                            rec.child(SpanName::CpamRange, root, || map.range_entries(&lo, &hi));
                        let block = S::Codec::encode(&entries);
                        rec.child(SpanName::CodecScan, range, || {
                            let mut sum = 0u64;
                            S::Codec::for_each(&block, &mut |e: &(u64, u64)| {
                                sum = sum.wrapping_add(e.1)
                            });
                            std::hint::black_box(sum);
                        });
                    });
                    0
                }
            },
        );
    }
}

/// Bulk commits: batches of `batch` random overwrites of stable keys.
/// Units are keys written.
pub struct BulkPhase {
    batches: Vec<Option<Vec<Op<u64, u64>>>>,
    pub phase: Phase,
}

impl BulkPhase {
    pub fn new(
        name: &'static str,
        keys: &[u64],
        rng: &mut Rng,
        rounds: usize,
        batch: usize,
        plan: &mut Plan,
    ) -> Self {
        let batches = (0..rounds)
            .map(|_| {
                let gen = plan.next_gen();
                Some(
                    (0..batch)
                        .map(|_| {
                            let k = bulk_target(rng, keys);
                            Op::Put(k, plan.put(k, gen))
                        })
                        .collect(),
                )
            })
            .collect();
        BulkPhase {
            batches,
            phase: Phase::new(name, rounds),
        }
    }

    pub fn lap<S: Kv>(
        &mut self,
        lap: usize,
        store: &S,
        rec: Option<&mut Recorder>,
        check: &mut Check,
    ) {
        let batches = &mut self.batches;
        self.phase.lap(
            lap,
            |_| SpanName::Bulk,
            rec,
            |step| match step {
                Step::Call(i) => {
                    let ops = batches[i].take().expect("each batch is committed once");
                    let keys = ops.len() as u64;
                    check.ok(store.commit(ops).is_ok());
                    keys
                }
                Step::Replay(..) => 0,
            },
        );
    }
}
