//! Differential tests: a [`ShardedStore`] driven by randomized op
//! sequences against a `BTreeMap` oracle, across the block-size ×
//! shard-count grid. Every divergence panics with the exact
//! reproducing seed (`PROPTEST_SEED=<n>`), and setting that variable
//! replays just that sequence on every configuration.
//!
//! The default volume is 1000 sequences per configuration
//! (`DIFF_CASES` overrides it); sequences are deliberately small so the
//! whole grid stays well under a minute in debug builds.
//!
//! The second half is the *lifecycle* differential suite: durable
//! stores driven through random interleavings of commits with `gc`,
//! `compact`, `save`, `save_incremental`, and full reopens — the oracle
//! must survive every maintenance operation, pinned snapshots must stay
//! readable after GC, and unpinned history must actually disappear.
//! (`DIFF_LIFECYCLE_CASES` overrides its volume, default 50.)
//!
//! The last suite is the executable statement that there is one store
//! engine: one seeded script replayed through a [`PacStore`] and
//! through a one-shard [`ShardedStore`] must give equal answers, equal
//! lifecycle counters and byte-identical directory trees. Beside it,
//! the statement that there is one page format: one script replayed
//! under both read policies (`pool_pages`) must leave byte-identical
//! directory trees too, each opening under the other policy.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use store::{
    LifecycleStats, Op, PacStore, RetentionPolicy, Router, ShardedStore, StoreError, StoreOptions,
};

/// Keys are drawn a little past the routed span so the last shard's
/// open upper range is exercised too.
const KEY_SPAN: u64 = 96;

fn cases() -> u64 {
    std::env::var("DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

fn env_seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse().ok())
}

/// One randomized sequence: a handful of commits, each compared
/// entry-for-entry against the oracle, plus point and range probes.
fn run_one(seed: u64, b: usize, shards: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = StoreOptions {
        block_size: b,
        history_limit: 4,
        ..StoreOptions::default()
    };
    let store: ShardedStore<u64, u32> =
        ShardedStore::in_memory_with(Router::uniform_span(shards, KEY_SPAN), opts)
            .map_err(|e| e.to_string())?;
    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();

    let commits = 1 + rng.gen_range(0..5usize);
    for c in 0..commits {
        let len = rng.gen_range(0..20usize);
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let k = rng.gen_range(0..KEY_SPAN + KEY_SPAN / 4);
            if rng.gen_range(0..10) < 7 {
                let v = rng.gen_range(0..1_000u32);
                oracle.insert(k, v);
                ops.push(Op::Put(k, v));
            } else {
                oracle.remove(&k);
                ops.push(Op::Delete(k));
            }
        }
        store.commit(ops).map_err(|e| format!("commit {c}: {e}"))?;

        let snap = store.snapshot();
        if snap.len() != oracle.len() {
            return Err(format!(
                "after commit {c}: len {} != oracle {}",
                snap.len(),
                oracle.len()
            ));
        }
        let got = snap.to_vec();
        let want: Vec<(u64, u32)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        if got != want {
            return Err(format!(
                "after commit {c}: contents diverge\n  store : {got:?}\n  oracle: {want:?}"
            ));
        }

        // Point probes, including misses.
        for _ in 0..4 {
            let k = rng.gen_range(0..KEY_SPAN + KEY_SPAN / 4);
            if snap.get(&k) != oracle.get(&k).copied() {
                return Err(format!(
                    "after commit {c}: get({k}) = {:?}, oracle {:?}",
                    snap.get(&k),
                    oracle.get(&k)
                ));
            }
            if snap.contains_key(&k) != oracle.contains_key(&k) {
                return Err(format!("after commit {c}: contains_key({k}) diverges"));
            }
        }

        // A random inclusive range, spanning shard boundaries.
        let a = rng.gen_range(0..KEY_SPAN);
        let z = rng.gen_range(0..KEY_SPAN);
        let (lo, hi) = (a.min(z), a.max(z));
        let got = snap.range_entries(&lo, &hi);
        let want: Vec<(u64, u32)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        if got != want {
            return Err(format!(
                "after commit {c}: range [{lo}, {hi}] diverges\n  store : {got:?}\n  oracle: {want:?}"
            ));
        }
    }

    // The version vector reflects exactly the commits each shard took
    // part in: its sum cannot exceed commits * shards, and the global
    // version equals the commit count.
    if store.current_version() != commits as u64 {
        return Err(format!(
            "global version {} != commit count {commits}",
            store.current_version()
        ));
    }
    Ok(())
}

/// Drives `cases()` sequences (or the single `PROPTEST_SEED` sequence)
/// through one (block size, shard count) configuration.
fn run_config(b: usize, shards: usize) {
    let salt = (b as u64) << 32 | shards as u64;
    let (start, n) = match env_seed() {
        Some(seed) => (seed, 1),
        None => (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15), cases()),
    };
    for case in 0..n {
        let seed = start.wrapping_add(case);
        if let Err(msg) = run_one(seed, b, shards) {
            panic!(
                "sharded-store differential divergence (b={b}, shards={shards}): {msg}\n\
                 reproduce with: PROPTEST_SEED={seed} cargo test -p store --test differential"
            );
        }
    }
}

macro_rules! differential_grid {
    ($($name:ident: ($b:expr, $shards:expr),)*) => {
        $(
            #[test]
            fn $name() {
                run_config($b, $shards);
            }
        )*
    };
}

// The full ISSUE grid: B ∈ {1, 2, 8, 32, 128} × shards ∈ {1, 2, 7}.
differential_grid! {
    diff_b1_s1: (1, 1),
    diff_b1_s2: (1, 2),
    diff_b1_s7: (1, 7),
    diff_b2_s1: (2, 1),
    diff_b2_s2: (2, 2),
    diff_b2_s7: (2, 7),
    diff_b8_s1: (8, 1),
    diff_b8_s2: (8, 2),
    diff_b8_s7: (8, 7),
    diff_b32_s1: (32, 1),
    diff_b32_s2: (32, 2),
    diff_b32_s7: (32, 7),
    diff_b128_s1: (128, 1),
    diff_b128_s2: (128, 2),
    diff_b128_s7: (128, 7),
}

// ---------------------------------------------------------------------
// Lifecycle differential suite: maintenance must be invisible
// ---------------------------------------------------------------------

fn lifecycle_cases() -> u64 {
    std::env::var("DIFF_LIFECYCLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

/// Per-sequence scratch directory; (b, shards, seed) makes it unique
/// across the parallel test grid.
fn lifecycle_scratch(b: usize, shards: usize, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pacstore-diff-lc-{b}-{shards}-{seed:016x}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Verifies the store against the oracle and every pinned snapshot
/// against the contents captured when it was pinned.
fn check_lifecycle_state(
    store: &ShardedStore<u64, u32>,
    oracle: &BTreeMap<u64, u32>,
    pins: &[(u64, BTreeMap<u64, u32>)],
    context: &str,
) -> Result<(), String> {
    let got = store.snapshot().to_vec();
    let want: Vec<(u64, u32)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    if got != want {
        return Err(format!(
            "{context}: current contents diverge\n  store : {got:?}\n  oracle: {want:?}"
        ));
    }
    for (version, copy) in pins {
        let snap = store
            .snapshot_at(*version)
            .map_err(|e| format!("{context}: pinned version {version} unreadable: {e}"))?;
        let got = snap.to_vec();
        let want: Vec<(u64, u32)> = copy.iter().map(|(&k, &v)| (k, v)).collect();
        if got != want {
            return Err(format!(
                "{context}: pinned version {version} diverges\n  store : {got:?}\n  oracle: {want:?}"
            ));
        }
    }
    Ok(())
}

/// One randomized lifecycle sequence: a durable sharded store driven
/// through commits interleaved with `save`, `compact`, `gc`, pins, and
/// full reopens. The oracle must survive every maintenance action,
/// pinned snapshots must stay readable (and exact) through GC and
/// compaction, and history GC actually drops must become
/// `VersionNotFound`.
fn run_lifecycle_one(seed: u64, b: usize, shards: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_D1FF_E4E2);
    let dir = lifecycle_scratch(b, shards, seed);
    let opts = StoreOptions {
        block_size: b,
        history_limit: 5,
        ..StoreOptions::default()
    };
    let open = |dir: &PathBuf| -> Result<ShardedStore<u64, u32>, String> {
        ShardedStore::open_or_create(dir, Router::uniform_span(shards, KEY_SPAN), opts.clone())
            .map_err(|e| format!("open: {e}"))
    };
    let mut store = open(&dir)?;
    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
    // Pinned version -> contents captured at pin time.
    let mut pins: Vec<(u64, BTreeMap<u64, u32>)> = Vec::new();

    let rounds = 6 + rng.gen_range(0..8usize);
    for round in 0..rounds {
        let roll = rng.gen_range(0..100u32);
        if roll < 50 {
            // Commit a random batch.
            let len = 1 + rng.gen_range(0..12usize);
            let mut ops = Vec::with_capacity(len);
            for _ in 0..len {
                let k = rng.gen_range(0..KEY_SPAN + KEY_SPAN / 4);
                if rng.gen_range(0..10) < 7 {
                    let v = rng.gen_range(0..1_000u32);
                    oracle.insert(k, v);
                    ops.push(Op::Put(k, v));
                } else {
                    oracle.remove(&k);
                    ops.push(Op::Delete(k));
                }
            }
            store.commit(ops).map_err(|e| format!("round {round} commit: {e}"))?;
            check_lifecycle_state(&store, &oracle, &pins, &format!("round {round} after commit"))?;
        } else if roll < 60 {
            // Full checkpoint.
            store.save().map_err(|e| format!("round {round} save: {e}"))?;
            check_lifecycle_state(&store, &oracle, &pins, &format!("round {round} after save"))?;
        } else if roll < 73 {
            // Checkpoint-then-truncate (incremental pages after the
            // first save).
            store.compact().map_err(|e| format!("round {round} compact: {e}"))?;
            check_lifecycle_state(&store, &oracle, &pins, &format!("round {round} after compact"))?;
        } else if roll < 83 {
            // GC under a random retention window: retained versions are
            // a subset of what was there, everything dropped becomes
            // VersionNotFound, and pins always survive.
            let before = store.versions();
            let keep = 1 + rng.gen_range(0..3usize);
            store.gc(RetentionPolicy::keep_last(keep));
            let after = store.versions();
            for v in &before {
                if !after.contains(v) {
                    match store.snapshot_at(*v) {
                        Err(StoreError::VersionNotFound(got)) if got == *v => {}
                        other => {
                            return Err(format!(
                                "round {round}: gc-dropped version {v} still resolves: {other:?}"
                            ));
                        }
                    }
                    if pins.iter().any(|(p, _)| p == v) {
                        return Err(format!("round {round}: gc dropped pinned version {v}"));
                    }
                }
            }
            check_lifecycle_state(&store, &oracle, &pins, &format!("round {round} after gc"))?;
        } else if roll < 90 {
            // Pin the current version (or release a random pin).
            let cur = store.current_version();
            if !pins.iter().any(|(p, _)| *p == cur) && rng.gen_range(0..4) > 0 {
                store
                    .pin_version(cur)
                    .map_err(|e| format!("round {round} pin {cur}: {e}"))?;
                pins.push((cur, oracle.clone()));
            } else if !pins.is_empty() {
                let i = rng.gen_range(0..pins.len());
                let (version, _) = pins.swap_remove(i);
                store
                    .unpin_version(version)
                    .map_err(|e| format!("round {round} unpin {version}: {e}"))?;
            }
            check_lifecycle_state(&store, &oracle, &pins, &format!("round {round} after pin"))?;
        } else {
            // Full reopen. Pins are in-memory only, so they do not
            // survive the handle: forget them, but the current contents
            // and version must come back exactly.
            let version = store.current_version();
            drop(store);
            pins.clear();
            store = open(&dir)?;
            if store.current_version() != version {
                return Err(format!(
                    "round {round}: reopen lost commits: version {} != {version}",
                    store.current_version()
                ));
            }
            check_lifecycle_state(&store, &oracle, &pins, &format!("round {round} after reopen"))?;
        }
    }

    check_lifecycle_state(&store, &oracle, &pins, "final")?;
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cleanup: {e}"))?;
    Ok(())
}

/// The single-store analogue, which exercises `save_incremental`
/// directly (the sharded path only reaches it through `compact`):
/// commits interleaved with explicit incremental checkpoints against
/// the latest checkpoint, GC, and reopens. A `save_incremental`
/// against a stale base must be a typed [`StoreError::CheckpointMismatch`].
fn run_lifecycle_pac(seed: u64, b: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1D1F_F35A_7E11_13E5);
    // Shard count 0 never collides with the sharded runner's dirs.
    let dir = lifecycle_scratch(b, 0, seed);
    let opts = StoreOptions {
        block_size: b,
        history_limit: 5,
        ..StoreOptions::default()
    };
    let open = |dir: &PathBuf| -> Result<PacStore<u64, u32>, String> {
        PacStore::open_with(dir, opts.clone()).map_err(|e| format!("open: {e}"))
    };
    let check = |store: &PacStore<u64, u32>,
                 oracle: &BTreeMap<u64, u32>,
                 context: &str|
     -> Result<(), String> {
        let got = store.snapshot().map().to_vec();
        let want: Vec<(u64, u32)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        if got != want {
            return Err(format!(
                "{context}: contents diverge\n  store : {got:?}\n  oracle: {want:?}"
            ));
        }
        Ok(())
    };
    let mut store = open(&dir)?;
    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();

    let rounds = 6 + rng.gen_range(0..8usize);
    for round in 0..rounds {
        let roll = rng.gen_range(0..100u32);
        if roll < 55 {
            let len = 1 + rng.gen_range(0..12usize);
            let mut ops = Vec::with_capacity(len);
            for _ in 0..len {
                let k = rng.gen_range(0..KEY_SPAN);
                if rng.gen_range(0..10) < 7 {
                    let v = rng.gen_range(0..1_000u32);
                    oracle.insert(k, v);
                    ops.push(Op::Put(k, v));
                } else {
                    oracle.remove(&k);
                    ops.push(Op::Delete(k));
                }
            }
            store.commit(ops).map_err(|e| format!("round {round} commit: {e}"))?;
        } else if roll < 75 {
            // Incremental checkpoint against the latest base (a full
            // save establishes the first base), then probe that a stale
            // base is rejected with a typed error rather than silently
            // chained.
            match store.latest_checkpoint() {
                Some(base) => {
                    store
                        .save_incremental(base)
                        .map_err(|e| format!("round {round} save_incremental({base}): {e}"))?;
                }
                None => {
                    store.save().map_err(|e| format!("round {round} save: {e}"))?;
                }
            }
            if let Some(ck) = store.latest_checkpoint() {
                if ck > 0 {
                    match store.save_incremental(ck - 1) {
                        Err(StoreError::CheckpointMismatch { requested, actual }) => {
                            if requested != ck - 1 || actual != Some(ck) {
                                return Err(format!(
                                    "round {round}: mismatch fields wrong: \
                                     requested {requested}, actual {actual:?}, checkpoint {ck}"
                                ));
                            }
                        }
                        other => {
                            return Err(format!(
                                "round {round}: stale incremental base accepted: {other:?}"
                            ));
                        }
                    }
                }
            }
        } else if roll < 85 {
            let before = store.versions();
            let keep = 1 + rng.gen_range(0..3usize);
            store.gc(RetentionPolicy::keep_last(keep));
            for v in &before {
                if !store.versions().contains(v) {
                    match store.snapshot_at(*v) {
                        Err(StoreError::VersionNotFound(got)) if got == *v => {}
                        other => {
                            return Err(format!(
                                "round {round}: gc-dropped version {v} still resolves: {other:?}"
                            ));
                        }
                    }
                }
            }
        } else {
            let version = store.current_version();
            drop(store);
            store = open(&dir)?;
            if store.current_version() != version {
                return Err(format!(
                    "round {round}: reopen lost commits: version {} != {version}",
                    store.current_version()
                ));
            }
        }
        check(&store, &oracle, &format!("round {round}"))?;
    }

    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cleanup: {e}"))?;
    Ok(())
}

/// Drives the single-store lifecycle runner across one block size.
fn run_lifecycle_pac_config(b: usize) {
    let salt = 0x9AC0_0000_0000_0000u64 | (b as u64) << 24;
    let (start, n) = match env_seed() {
        Some(seed) => (seed, 1),
        None => (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15), lifecycle_cases()),
    };
    for case in 0..n {
        let seed = start.wrapping_add(case);
        if let Err(msg) = run_lifecycle_pac(seed, b) {
            panic!(
                "pac-store lifecycle differential divergence (b={b}): {msg}\n\
                 reproduce with: PROPTEST_SEED={seed} cargo test -p store --test differential"
            );
        }
    }
}

#[test]
fn lifecycle_pac_b2() {
    run_lifecycle_pac_config(2);
}

#[test]
fn lifecycle_pac_b32() {
    run_lifecycle_pac_config(32);
}

/// Drives `lifecycle_cases()` sequences (or the single `PROPTEST_SEED`
/// sequence) through one (block size, shard count) configuration.
fn run_lifecycle_config(b: usize, shards: usize) {
    let salt = 0x11FE_0000_0000_0000u64 | (b as u64) << 24 | shards as u64;
    let (start, n) = match env_seed() {
        Some(seed) => (seed, 1),
        None => (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15), lifecycle_cases()),
    };
    for case in 0..n {
        let seed = start.wrapping_add(case);
        if let Err(msg) = run_lifecycle_one(seed, b, shards) {
            panic!(
                "lifecycle differential divergence (b={b}, shards={shards}): {msg}\n\
                 reproduce with: PROPTEST_SEED={seed} cargo test -p store --test differential"
            );
        }
    }
}

macro_rules! lifecycle_grid {
    ($($name:ident: ($b:expr, $shards:expr),)*) => {
        $(
            #[test]
            fn $name() {
                run_lifecycle_config($b, $shards);
            }
        )*
    };
}

// Durable sequences are slower than the in-memory grid, so the
// lifecycle grid covers the block-size extremes and middle against
// every shard count rather than the full cross product.
lifecycle_grid! {
    lifecycle_b1_s1: (1, 1),
    lifecycle_b1_s2: (1, 2),
    lifecycle_b1_s7: (1, 7),
    lifecycle_b8_s1: (8, 1),
    lifecycle_b8_s2: (8, 2),
    lifecycle_b8_s7: (8, 7),
    lifecycle_b128_s1: (128, 1),
    lifecycle_b128_s2: (128, 2),
    lifecycle_b128_s7: (128, 7),
}

// ---------------------------------------------------------------------
// Out-of-core differential suite: the pool budget must be invisible
// ---------------------------------------------------------------------
//
// One deterministic script of commits, saves, compacts, reopens, and
// probes is generated per seed, then replayed on three read policies —
// `pool_pages` 8 (heavy eviction), 64 (mostly resident), and `None`
// (eager reads) — at one and at three shards, each checked against its
// own `BTreeMap` oracle after every step. The cache budget may only
// change *when* pages are read, never *what* any query returns; every
// shard's pool stays within its budget at every step (there is no
// overflow), the tiny pool must have evicted and the roomy one must
// have served re-reads as hits. (`DIFF_OOC_CASES` overrides the volume,
// default 5 — the script is durable and deliberately large.)

/// Steps of one out-of-core script; concrete ops so every replay is
/// identical by construction.
enum OocStep {
    Commit(Vec<Op<u64, u32>>),
    Save,
    Compact,
    Reopen,
    /// Point probes + one inclusive range probe.
    Probe(Vec<u64>, u64, u64),
}

const OOC_SPAN: u64 = 12_000;

fn ooc_cases() -> u64 {
    std::env::var("DIFF_OOC_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

/// Generates the per-seed script: a bulk load that far exceeds the
/// small pool budget, a save + reopen (so later steps run on a lazy
/// base), then randomized maintenance rounds.
fn ooc_script(seed: u64) -> Vec<OocStep> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE_0B1D_FACE);
    let mut steps = vec![
        OocStep::Commit((0..8_000u64).map(|k| Op::Put(k, (k % 997) as u32)).collect()),
        OocStep::Save,
        OocStep::Reopen,
        // Scan the freshly reopened, fully-lazy base: on the 8-page pool
        // this is guaranteed eviction pressure (~60 pages through 8 slots).
        OocStep::Probe(Vec::new(), 0, OOC_SPAN),
        // Re-read what the scan just crossed: the 64-page pool still
        // holds it (hits), the 8-page pool mostly does not.
        OocStep::Probe(vec![1_000, 5_000, 7_999], 0, 0),
    ];
    let rounds = 5 + rng.gen_range(0..6usize);
    for _ in 0..rounds {
        match rng.gen_range(0..100u32) {
            0..=54 => {
                let len = 1 + rng.gen_range(0..40usize);
                let mut ops = Vec::with_capacity(len);
                for _ in 0..len {
                    let k = rng.gen_range(0..OOC_SPAN);
                    if rng.gen_range(0..10) < 7 {
                        ops.push(Op::Put(k, rng.gen_range(0..1_000u32)));
                    } else {
                        ops.push(Op::Delete(k));
                    }
                }
                steps.push(OocStep::Commit(ops));
            }
            55..=64 => steps.push(OocStep::Save),
            65..=79 => steps.push(OocStep::Compact),
            80..=89 => steps.push(OocStep::Reopen),
            _ => {
                let probes = (0..12).map(|_| rng.gen_range(0..OOC_SPAN)).collect();
                let a = rng.gen_range(0..OOC_SPAN);
                let z = rng.gen_range(0..OOC_SPAN);
                steps.push(OocStep::Probe(probes, a.min(z), a.max(z)));
            }
        }
    }
    // Every script ends scanning everything on a freshly reopened
    // handle — on the tiny pool that is the maximal-eviction path.
    steps.push(OocStep::Reopen);
    steps.push(OocStep::Probe(Vec::new(), 0, OOC_SPAN));
    steps
}

/// Replays `steps` on one pool configuration and shard count against a
/// fresh oracle.
fn ooc_exec(seed: u64, pool: Option<usize>, shards: usize, steps: &[OocStep]) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!(
        "pacstore-diff-ooc-{}-s{shards}-{seed:016x}",
        pool.map_or("none".into(), |p| p.to_string())
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions { pool_pages: pool, ..StoreOptions::default() };
    let router = match shards {
        1 => Router::single(),
        n => Router::uniform_span(n, OOC_SPAN),
    };
    let open = |dir: &PathBuf| -> Result<ShardedStore<u64, u32>, String> {
        ShardedStore::open_or_create(dir, router.clone(), opts.clone())
            .map_err(|e| format!("open: {e}"))
    };
    let mut store = open(&dir)?;
    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
    // Pools are per-handle; accumulate the monotone fields across
    // reopens so the end-of-script sanity check sees the whole replay.
    let (mut cum_hits, mut cum_misses, mut cum_evictions) = (0u64, 0u64, 0u64);

    for (i, step) in steps.iter().enumerate() {
        match step {
            OocStep::Commit(ops) => {
                for op in ops {
                    match op {
                        Op::Put(k, v) => {
                            oracle.insert(*k, *v);
                        }
                        Op::Delete(k) => {
                            oracle.remove(k);
                        }
                    }
                }
                store.commit(ops.clone()).map_err(|e| format!("step {i} commit: {e}"))?;
            }
            OocStep::Save => {
                store.save().map_err(|e| format!("step {i} save: {e}"))?;
            }
            OocStep::Compact => {
                store.compact().map_err(|e| format!("step {i} compact: {e}"))?;
            }
            OocStep::Reopen => {
                let version = store.current_version();
                if let Some(s) = store.pool_stats() {
                    cum_hits += s.hits;
                    cum_misses += s.misses;
                    cum_evictions += s.evictions;
                }
                drop(store);
                store = open(&dir)?;
                if store.current_version() != version {
                    return Err(format!(
                        "step {i}: reopen lost commits: version {} != {version}",
                        store.current_version()
                    ));
                }
            }
            OocStep::Probe(points, lo, hi) => {
                if store.len() != oracle.len() {
                    return Err(format!(
                        "step {i}: len {} != oracle {}",
                        store.len(),
                        oracle.len()
                    ));
                }
                for k in points {
                    if store.get(k) != oracle.get(k).copied() {
                        return Err(format!(
                            "step {i}: get({k}) = {:?}, oracle {:?}",
                            store.get(k),
                            oracle.get(k)
                        ));
                    }
                }
                let got = store.range_entries(lo, hi);
                let want: Vec<(u64, u32)> =
                    oracle.range(*lo..=*hi).map(|(&k, &v)| (k, v)).collect();
                if got != want {
                    return Err(format!(
                        "step {i}: range [{lo}, {hi}] diverges ({} vs {} entries)",
                        got.len(),
                        want.len()
                    ));
                }
            }
        }
        // The cache budget is a hard bound on every shard's pool at
        // every step, not just at quiescence: nothing can overflow it.
        for (shard, s) in store.shard_pool_stats().into_iter().flatten().enumerate() {
            if pool.is_some_and(|budget| s.resident_pages > budget) {
                return Err(format!(
                    "step {i}: shard {shard} holds {} resident pages, budget {pool:?}",
                    s.resident_pages
                ));
            }
        }
    }

    // Configuration sanity: the tiny pool actually worked out-of-core
    // (the replay paged and evicted — the data set exceeds 8 pages),
    // the roomy pool saw the re-reads (every access to a lazy leaf goes
    // through it), and `None` reports no pool at all.
    match (pool, store.pool_stats()) {
        (Some(budget), Some(s)) => {
            cum_hits += s.hits;
            cum_misses += s.misses;
            cum_evictions += s.evictions;
            if budget == 8 && (cum_misses <= 8 || cum_evictions == 0) {
                return Err(format!(
                    "8-page replay never worked out-of-core: \
                     {cum_misses} misses, {cum_evictions} evictions"
                ));
            }
            if budget == 64 && cum_hits == 0 {
                return Err(format!(
                    "64-page replay re-read resident pages without a single pool hit \
                     ({cum_misses} misses)"
                ));
            }
        }
        (None, Some(_)) => return Err("eager replay reports pool stats".into()),
        _ => {}
    }

    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cleanup: {e}"))?;
    Ok(())
}

#[test]
fn out_of_core_grid_pool_budget_is_invisible() {
    let (start, n) = match env_seed() {
        Some(seed) => (seed, 1),
        None => (0x00Cu64.wrapping_mul(0x9E37_79B9_7F4A_7C15), ooc_cases()),
    };
    for case in 0..n {
        let seed = start.wrapping_add(case);
        let steps = ooc_script(seed);
        for (pool, shards) in [Some(8), Some(64), None].into_iter().flat_map(|p| [(p, 1), (p, 3)]) {
            if let Err(msg) = ooc_exec(seed, pool, shards, &steps) {
                panic!(
                    "out-of-core differential divergence (pool_pages={pool:?}, {shards} shards): \
                     {msg}\n\
                     reproduce with: PROPTEST_SEED={seed} cargo test -p store --test differential"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// One engine: PacStore ≡ one-shard ShardedStore, byte for byte
// ---------------------------------------------------------------------
//
// A `PacStore` is a handle on a `ShardedStore` built with
// `Router::single()`. One seeded script of commits, deletes, `save`,
// `save_incremental`, `compact`, pin/unpin, `gc` and drop + reopen is
// replayed through both handles, under the eager and the 8-page lazy
// read policy; every answer, the lifecycle counters and every byte either
// leaves on disk must agree. (`DIFF_ENGINE_CASES` overrides the
// volume, default 20.)

/// Steps of one engine-identity script; concrete so both replays are
/// identical by construction.
enum EngineStep {
    Commit(Vec<Op<u64, u32>>),
    Save,
    /// Against the latest checkpoint (a full save when there is none),
    /// then once more against a stale base, which must be refused.
    SaveIncremental,
    Compact,
    /// Pin the current version if it is not pinned yet.
    Pin,
    /// Release the oldest pin, if any.
    Unpin,
    Gc(usize),
    Reopen,
}

fn engine_cases() -> u64 {
    std::env::var("DIFF_ENGINE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

fn engine_script(seed: u64) -> Vec<EngineStep> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0E16_1E00_51D6_1E00);
    // Enough keys for several leaf blocks, so incremental pages share
    // subtrees with their base instead of rewriting the one leaf.
    let mut steps =
        vec![EngineStep::Commit((0..600u64).map(|k| Op::Put(k * 3, k as u32)).collect())];
    for _ in 0..12 + rng.gen_range(0..10usize) {
        steps.push(match rng.gen_range(0..100u32) {
            0..=44 => {
                let len = rng.gen_range(0..24usize); // empty commits too
                EngineStep::Commit(
                    (0..len)
                        .map(|_| {
                            let k = rng.gen_range(0..2_000u64);
                            if rng.gen_range(0..10) < 7 {
                                Op::Put(k, rng.gen_range(0..1_000u32))
                            } else {
                                Op::Delete(k)
                            }
                        })
                        .collect(),
                )
            }
            45..=52 => EngineStep::Save,
            53..=62 => EngineStep::SaveIncremental,
            63..=72 => EngineStep::Compact,
            73..=79 => EngineStep::Pin,
            80..=84 => EngineStep::Unpin,
            85..=91 => EngineStep::Gc(1 + rng.gen_range(0..3usize)),
            _ => EngineStep::Reopen,
        });
    }
    steps
}

/// The calls the script makes, on either handle. The two impls differ
/// only in how the handle is opened and how a version's entries are
/// listed; every other method has the same name on both types.
trait EngineHandle: Sized {
    fn open_at(dir: &Path, opts: StoreOptions) -> Result<Self, StoreError>;
    fn entries_at(&self, version: u64) -> Result<Vec<(u64, u32)>, StoreError>;
    /// Runs one step and renders everything observable afterwards.
    fn step(&self, step: &EngineStep) -> String;
    fn counters(&self) -> LifecycleStats;
}

macro_rules! engine_handle {
    ($ty:ty, $open:expr, $entries:expr) => {
        impl EngineHandle for $ty {
            fn open_at(dir: &Path, opts: StoreOptions) -> Result<Self, StoreError> {
                $open(dir, opts)
            }
            fn entries_at(&self, version: u64) -> Result<Vec<(u64, u32)>, StoreError> {
                self.snapshot_at(version).map($entries)
            }
            fn step(&self, step: &EngineStep) -> String {
                let did = match step {
                    EngineStep::Commit(ops) => format!("{:?}", self.commit(ops.clone())),
                    EngineStep::Save => format!("{:?}", self.save()),
                    EngineStep::SaveIncremental => {
                        let saved = match self.latest_checkpoint() {
                            Some(base) => self.save_incremental(base),
                            None => self.save(),
                        };
                        let stale = saved.as_ref().map_or(0, |v| v + 1);
                        format!("{saved:?} then {:?}", self.save_incremental(stale))
                    }
                    EngineStep::Compact => format!("{:?}", self.compact()),
                    EngineStep::Pin => {
                        let cur = self.current_version();
                        if self.pinned_versions().contains(&cur) {
                            "already pinned".into()
                        } else {
                            format!("{:?}", self.pin_version(cur))
                        }
                    }
                    EngineStep::Unpin => match self.pinned_versions().first() {
                        Some(&v) => format!("{:?}", self.unpin_version(v)),
                        None => "nothing pinned".into(),
                    },
                    EngineStep::Gc(keep) => {
                        let gc = self.gc(RetentionPolicy::keep_last(*keep));
                        format!("{} dropped, {} retained", gc.versions_dropped, gc.versions_retained)
                    }
                    EngineStep::Reopen => unreachable!("the replay loop reopens"),
                };
                let versions = self.versions();
                let history: Vec<_> = versions.iter().map(|&v| self.entries_at(v)).collect();
                format!(
                    "{did}; version {} of {versions:?}, checkpoint {:?}, pins {:?}, len {}, \
                     get(3) {:?}, range {:?}, history {history:?}",
                    self.current_version(),
                    self.latest_checkpoint(),
                    self.pinned_versions(),
                    self.len(),
                    self.get(&3),
                    self.range_entries(&100, &400),
                )
            }
            fn counters(&self) -> LifecycleStats {
                // `nodes_reclaimed` is a delta of process-global cpam
                // counters, which concurrently running tests move.
                LifecycleStats { nodes_reclaimed: 0, ..self.lifecycle_stats() }
            }
        }
    };
}

engine_handle!(
    PacStore<u64, u32>,
    |dir: &Path, opts| PacStore::open_with(dir, opts),
    |snap: store::Snapshot<u64, u32>| snap.map().to_vec()
);
engine_handle!(
    ShardedStore<u64, u32>,
    |dir: &Path, opts| ShardedStore::open_or_create(dir, Router::single(), opts),
    |snap: store::ShardedSnapshot<u64, u32>| snap.to_vec()
);

/// Replays `steps` through one handle type; returns the answer log
/// (with the lifecycle counters of every handle generation) and leaves
/// the directory behind for comparison.
fn engine_replay<H: EngineHandle>(dir: &Path, opts: &StoreOptions, steps: &[EngineStep]) -> Vec<String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = H::open_at(dir, opts.clone()).expect("open");
    let mut log = Vec::new();
    for step in steps {
        if let EngineStep::Reopen = step {
            log.push(format!("{:?}", store.counters()));
            drop(store);
            store = H::open_at(dir, opts.clone()).expect("reopen");
            // A reopened handle must already agree before its first step.
            log.push(store.step(&EngineStep::Unpin));
        } else {
            log.push(store.step(step));
        }
    }
    log.push(format!("{:?}", store.counters()));
    log
}

/// Every file under `dir`, by relative path.
fn dir_tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
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

#[test]
fn pacstore_is_the_one_shard_sharded_store_byte_for_byte() {
    let (start, n) = match env_seed() {
        Some(seed) => (seed, 1),
        None => (0x0E16u64.wrapping_mul(0x9E37_79B9_7F4A_7C15), engine_cases()),
    };
    for case in 0..n {
        let seed = start.wrapping_add(case);
        let steps = engine_script(seed);
        for pool in [Some(8), None] {
            let opts = StoreOptions {
                block_size: 16,
                history_limit: 4,
                pool_pages: pool,
                ..StoreOptions::default()
            };
            let tag = pool.map_or("none".into(), |p: usize| p.to_string());
            let scratch = |kind: &str| {
                std::env::temp_dir().join(format!("pacstore-diff-engine-{kind}-{tag}-{seed:016x}"))
            };
            let (pac_dir, sharded_dir) = (scratch("pac"), scratch("sharded"));
            let pac = engine_replay::<PacStore<u64, u32>>(&pac_dir, &opts, &steps);
            let sharded = engine_replay::<ShardedStore<u64, u32>>(&sharded_dir, &opts, &steps);
            let repro = format!(
                "pool_pages={pool:?}; reproduce with: PROPTEST_SEED={seed} \
                 cargo test -p store --test differential"
            );
            for (i, (a, b)) in pac.iter().zip(&sharded).enumerate() {
                assert_eq!(a, b, "entry {i} of the answer logs diverges ({repro})");
            }
            assert_eq!(pac.len(), sharded.len());
            let (pac_tree, sharded_tree) = (dir_tree(&pac_dir), dir_tree(&sharded_dir));
            assert_eq!(
                pac_tree.keys().collect::<Vec<_>>(),
                sharded_tree.keys().collect::<Vec<_>>(),
                "directory listings diverge ({repro})"
            );
            for (path, bytes) in &pac_tree {
                assert!(bytes == &sharded_tree[path], "{} differs ({repro})", path.display());
            }
            std::fs::remove_dir_all(&pac_dir).expect("cleanup");
            std::fs::remove_dir_all(&sharded_dir).expect("cleanup");
        }
    }
}

// ---------------------------------------------------------------------
// One format: `pool_pages` is a read policy
// ---------------------------------------------------------------------
//
// One seeded script — commits (empty ones and deletes among them),
// `save`, `save_incremental`, `compact` past one `MAX_INCR_CHAIN`
// rollover, reopens in between — replayed under `pool_pages` `None` and
// `Some(8)` must leave byte-identical directory trees, each of which
// opens under the other policy with answers equal to the oracle.

/// One step of the policy script; concrete so both replays are
/// identical by construction.
enum PolicyStep {
    Commit(Vec<Op<u64, u64>>),
    Save,
    SaveIncremental,
    Compact,
    Reopen,
}

/// The script: ends on a full snapshot with a few links on it and a
/// commit left in the log.
fn policy_script() -> Vec<PolicyStep> {
    let mut rng = StdRng::seed_from_u64(0x9A6E_F11E);
    let mut commit = move || {
        let len = rng.gen_range(0..40usize);
        PolicyStep::Commit(
            (0..len)
                .map(|_| {
                    let k = rng.gen_range(0..6_000u64);
                    if rng.gen_range(0..10) < 7 {
                        Op::Put(k, rng.gen_range(0..1_000))
                    } else {
                        Op::Delete(k)
                    }
                })
                .collect(),
        )
    };
    let load = (0..4_000u64).map(|k| Op::Put(k, k)).collect();
    let mut steps = vec![PolicyStep::Commit(load), PolicyStep::Save];
    // 16 links, then the rollover to a full page, then three more.
    for round in 0..20 {
        steps.push(commit());
        steps.push(PolicyStep::Commit(Vec::new()));
        steps.push(match round % 5 {
            3 => PolicyStep::SaveIncremental,
            _ => PolicyStep::Compact,
        });
        if round % 6 == 5 {
            steps.push(PolicyStep::Reopen);
        }
    }
    steps.push(commit()); // left in the log
    steps
}

fn policy_oracle(steps: &[PolicyStep]) -> BTreeMap<u64, u64> {
    let mut oracle = BTreeMap::new();
    for step in steps {
        if let PolicyStep::Commit(ops) = step {
            for op in ops {
                match op {
                    Op::Put(k, v) => oracle.insert(*k, *v),
                    Op::Delete(k) => oracle.remove(k),
                };
            }
        }
    }
    oracle
}

fn policy_replay(dir: &Path, opts: &StoreOptions, steps: &[PolicyStep]) {
    let open = || PacStore::<u64, u64>::open_with(dir, opts.clone()).unwrap();
    let mut store = open();
    for step in steps {
        match step {
            PolicyStep::Commit(ops) => drop(store.commit(ops.clone()).unwrap()),
            PolicyStep::Save => drop(store.save().unwrap()),
            PolicyStep::SaveIncremental => {
                let base = store.latest_checkpoint().expect("the script saves first");
                store.save_incremental(base).unwrap();
            }
            PolicyStep::Compact => drop(store.compact().unwrap()),
            PolicyStep::Reopen => {
                drop(store);
                store = open();
            }
        }
    }
}

#[test]
fn pool_pages_is_a_read_policy_not_a_format() {
    let steps = policy_script();
    let want: Vec<(u64, u64)> = policy_oracle(&steps).into_iter().collect();
    let scratch = |kind: &str| {
        let dir = std::env::temp_dir()
            .join(format!("pacstore-diff-policy-{kind}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (eager_dir, lazy_dir) = (scratch("eager"), scratch("lazy"));
    let eager = StoreOptions { pool_pages: None, ..StoreOptions::default() };
    let lazy = StoreOptions { pool_pages: Some(8), ..StoreOptions::default() };
    policy_replay(&eager_dir, &eager, &steps);
    policy_replay(&lazy_dir, &lazy, &steps);

    // The policy a directory was written under leaves no trace in it.
    let (eager_tree, lazy_tree) = (dir_tree(&eager_dir), dir_tree(&lazy_dir));
    assert_eq!(eager_tree.keys().collect::<Vec<_>>(), lazy_tree.keys().collect::<Vec<_>>());
    for (path, bytes) in &eager_tree {
        assert!(bytes == &lazy_tree[path], "{} differs between policies", path.display());
    }
    // 20 checkpoints after the first save, a handful of links left: the
    // chain rolled over to a full page and grew again.
    let links = eager_tree.keys().filter(|p| p.to_string_lossy().contains("incr-")).count();
    assert!((2..=4).contains(&links), "the script must end on a short chain: {links} links");

    // Written under either, it opens under the other.
    let store: PacStore<u64, u64> = PacStore::open_with(&lazy_dir, eager).unwrap();
    assert!(store.pool_stats().is_none());
    assert_eq!(store.range_entries(&0, &u64::MAX), want);
    drop(store);
    let store: PacStore<u64, u64> = PacStore::open_with(&eager_dir, lazy.clone()).unwrap();
    assert_eq!(store.range_entries(&0, &u64::MAX), want);
    // With the log tail checkpointed away, a lazy open reads no leaf
    // record of the base *or* of its links, and a full scan stays
    // within the one budget they share.
    store.compact().unwrap();
    drop(store);
    let store: PacStore<u64, u64> = PacStore::open_with(&eager_dir, lazy).unwrap();
    assert_eq!(store.pool_stats().unwrap().misses, 0);
    assert_eq!(store.range_entries(&0, &u64::MAX), want);
    let s = store.pool_stats().unwrap();
    assert!(s.misses > 8 && s.evictions > 0, "{s:?}");
    assert!(s.resident_pages <= 8, "resident {} pages", s.resident_pages);
    drop(store);
    std::fs::remove_dir_all(&eager_dir).unwrap();
    std::fs::remove_dir_all(&lazy_dir).unwrap();
}

/// The oracle harness must actually catch divergences: a store with a
/// deliberately wrong routing assertion fails loudly, proving the
/// comparison is not vacuous.
#[test]
fn harness_detects_injected_divergence() {
    let store: ShardedStore<u64, u32> =
        ShardedStore::in_memory(Router::uniform_span(2, KEY_SPAN)).unwrap();
    store.commit(vec![Op::Put(1, 10)]).unwrap();
    let mut oracle = BTreeMap::new();
    oracle.insert(1u64, 11u32); // wrong value on purpose
    let got = store.snapshot().to_vec();
    let want: Vec<(u64, u32)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_ne!(got, want);
}
