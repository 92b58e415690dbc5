//! Differential suites: seeded scripts replayed on stores and checked
//! against the world's versioned oracle after every step (`world/mod.rs`
//! says what a replay checks and how a failure is shrunk and replayed).
//!
//! - In memory, across the block-size × shard-count grid.
//! - Lifecycle: durable `ShardedStore`s and `PacStore`s through
//!   checkpoints, pins, `gc` and reopens, which must all be invisible.
//! - Out of core: the pool budget changes when pages are read, never
//!   what a query returns.
//! - One engine: a `PacStore` and a one-shard `ShardedStore` give equal
//!   answers and counters and byte-identical directories.
//! - One format: both read policies leave byte-identical directories,
//!   each opening under the other policy.

mod world;

use store::{Op, ShardedStore};
use world::{
    check, dir_tree, replay, same_tree, scratch, shrink, Config, Gen, Key, Mix, Script, Step,
    Target, Val, NONE,
};

const IN_MEMORY: Mix = Mix {
    commit: 6,
    pin: 1,
    unpin: 1,
    gc: 1,
    probe: 4,
    steps: 2..12,
    batch: 0..20,
    probe_commits: true,
    ..NONE
};

macro_rules! in_memory_grid {
    ($($name:ident: ($b:expr, $shards:expr),)*) => {$(
        #[test]
        fn $name() {
            let cfg = Config { shards: $shards, b: $b, pool_pages: None, history: 4 };
            check(
                stringify!($name),
                1000,
                |seed| Script::generate(seed, &IN_MEMORY),
                |script| replay(script, &cfg, || cfg.in_memory(IN_MEMORY.keys)).map(drop),
            );
        }
    )*};
}

// B ∈ {1, 2, 8, 32, 128} × shards ∈ {1, 2, 7}.
in_memory_grid! {
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

const LIFECYCLE: Mix = Mix {
    commit: 45,
    save: 8,
    save_incremental: 8,
    compact: 12,
    pin: 6,
    unpin: 3,
    gc: 10,
    reopen: 10,
    probe: 5,
    steps: 6..14,
    batch: 1..13,
    ..NONE
};

/// The read policies: a pool that evicts all the time, a roomy one,
/// and eager reads.
const POOLS: [Option<usize>; 3] = [Some(8), Some(64), None];

macro_rules! lifecycle_grid {
    ($($name:ident: $open:ident ($b:expr, $shards:expr),)*) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                50,
                |seed| Script::generate(seed, &LIFECYCLE),
                |script| {
                    for pool_pages in POOLS {
                        let cfg = Config { shards: $shards, b: $b, pool_pages, history: 5 };
                        let dir = scratch("lifecycle");
                        replay(script, &cfg, || lifecycle_grid!(@$open cfg, &dir))
                            .map_err(|e| format!("pool_pages {pool_pages:?}: {e}"))?;
                    }
                    Ok(())
                },
            );
        }
    )*};
    (@sharded $cfg:ident, $dir:expr) => { $cfg.sharded($dir, LIFECYCLE.keys) };
    (@pac $cfg:ident, $dir:expr) => { $cfg.pac($dir) };
}

// Durable scripts are slower than in-memory ones, so the grid takes the
// block-size extremes and middle against every shard count, each under
// every read policy.
lifecycle_grid! {
    lifecycle_b1_s1: sharded(1, 1),
    lifecycle_b1_s2: sharded(1, 2),
    lifecycle_b1_s7: sharded(1, 7),
    lifecycle_b8_s1: sharded(8, 1),
    lifecycle_b8_s2: sharded(8, 2),
    lifecycle_b8_s7: sharded(8, 7),
    lifecycle_b128_s1: sharded(128, 1),
    lifecycle_b128_s2: sharded(128, 2),
    lifecycle_b128_s7: sharded(128, 7),
    lifecycle_pac_b2: pac(2, 1),
    lifecycle_pac_b32: pac(32, 1),
}

/// A bulk load far past the small pools, then maintenance rounds.
const OUT_OF_CORE: Mix = Mix {
    commit: 55,
    save: 10,
    compact: 15,
    reopen: 10,
    probe: 10,
    steps: 5..11,
    keys: 12_000,
    batch: 1..41,
    preload: 8_000,
    ..NONE
};

#[test]
fn out_of_core_grid_pool_budget_is_invisible() {
    let span = OUT_OF_CORE.keys;
    let generate = |seed| {
        let mut script = Script::generate(seed, &OUT_OF_CORE);
        // Save and reopen the bulk load, so later steps run on a lazy
        // base; scan it (on 8 pages that is ~60 pages through 8 slots)
        // and re-read what the scan crossed (64 pages still hold it).
        let lazy_base = [
            Step::Save,
            Step::Reopen,
            Step::scan(0, span),
            Step::Probe {
                gets: vec![1_000, 5_000, 7_999],
                lo: 0,
                hi: 0,
                limit: None,
            },
        ];
        script.steps.splice(1..1, lazy_base);
        // End scanning everything on a fresh handle: on the tiny pool,
        // the maximal-eviction path.
        script.steps.extend([Step::Reopen, Step::scan(0, span)]);
        script
    };
    check(
        "out_of_core_grid_pool_budget_is_invisible",
        5,
        generate,
        |script| {
            for pool in POOLS {
                for shards in [1, 3] {
                    let cfg = Config {
                        shards,
                        b: 128,
                        pool_pages: pool,
                        history: 4,
                    };
                    let dir = scratch("ooc");
                    let done = replay(script, &cfg, || cfg.sharded(&dir, span))
                        .map_err(|e| format!("pool_pages {pool:?}, {shards} shards: {e}"))?;
                    // The tiny pool worked out of core, the roomy one served
                    // re-reads as hits, and eager reads have no pool at all.
                    let p = done.pool;
                    let bad = match pool {
                        Some(8) => p.misses <= 8 || p.evictions == 0,
                        Some(_) => p.hits == 0,
                        None => done.target.pool_stats().is_some(),
                    };
                    if bad {
                        return Err(format!(
                            "pool_pages {pool:?}, {shards} shards: pool totals {p:?}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Enough preloaded keys for several leaf blocks, so incremental pages
/// share subtrees with their base; empty commits among the batches.
const ENGINE: Mix = Mix {
    commit: 40,
    save: 8,
    save_incremental: 10,
    compact: 10,
    pin: 7,
    unpin: 5,
    gc: 7,
    reopen: 8,
    probe: 5,
    steps: 12..22,
    keys: 2_000,
    batch: 0..24,
    preload: 600,
    probe_commits: false,
};

#[test]
fn pacstore_is_the_one_shard_sharded_store_byte_for_byte() {
    check(
        "pacstore_is_the_one_shard_sharded_store_byte_for_byte",
        20,
        |seed| Script::generate(seed, &ENGINE),
        |script| {
            for pool in [Some(8), None] {
                let cfg = Config {
                    shards: 1,
                    b: 16,
                    pool_pages: pool,
                    history: 4,
                };
                let (pac_dir, sharded_dir) = (scratch("pac"), scratch("sharded"));
                let pac = replay(script, &cfg, || cfg.pac(&pac_dir))?;
                let sharded = replay(script, &cfg, || cfg.sharded(&sharded_dir, ENGINE.keys))?;
                if let Some(i) = (0..pac.log.len()).find(|&i| pac.log[i] != sharded.log[i]) {
                    return Err(format!(
                        "pool_pages {pool:?}: step {i} answers differ\n  pac    : {}\n  sharded: {}",
                        pac.log[i], sharded.log[i]
                    ));
                }
                same_tree(&pac_dir, &sharded_dir)
                    .map_err(|e| format!("pool_pages {pool:?}: {e}"))?;
            }
            Ok(())
        },
    );
}

/// The policy script: a bulk load and a save, then 20 rounds of a
/// commit, an empty commit and a checkpoint — 16 links, the rollover to
/// a full page, three more — with reopens in between, and a last commit
/// left in the log.
fn policy_script() -> Script {
    const POLICY: Mix = Mix {
        keys: 6_000,
        batch: 0..40,
        preload: 4_000,
        ..NONE
    };
    let seed = 0x9A6E_F11E;
    let mut gen = Gen::new(seed, &POLICY);
    let mut steps = vec![gen.preload().expect("a preload"), Step::Save];
    for round in 0..20 {
        steps.extend([gen.commit(), Step::Commit(Vec::new())]);
        steps.push(match round % 5 {
            3 => Step::SaveIncremental,
            _ => Step::Compact,
        });
        if round % 6 == 5 {
            steps.push(Step::Reopen);
        }
    }
    steps.push(gen.commit());
    Script { seed, steps }
}

#[test]
fn pool_pages_is_a_read_policy_not_a_format() {
    let script = policy_script();
    let eager = Config {
        shards: 1,
        b: 128,
        pool_pages: None,
        history: 4,
    };
    let lazy = Config {
        pool_pages: Some(8),
        ..eager
    };
    let (eager_dir, lazy_dir) = (scratch("eager"), scratch("lazy"));
    let eager_done = replay(&script, &eager, || eager.pac(&eager_dir)).unwrap();
    let want = eager_done.target.range_entries(&0, &Key::MAX);
    drop(eager_done); // its directory is opened again below
    replay(&script, &lazy, || lazy.pac(&lazy_dir)).unwrap();

    // The policy a directory was written under leaves no trace in it.
    same_tree(&eager_dir, &lazy_dir).unwrap();
    // 20 checkpoints after the first save, a handful of links left: the
    // chain rolled over to a full page and grew again.
    let links = dir_tree(&eager_dir)
        .keys()
        .filter(|p| p.to_string_lossy().contains("incr-"))
        .count();
    assert!(
        (2..=4).contains(&links),
        "the script must end on a short chain: {links} links"
    );

    // Written under either, it opens under the other.
    let store = eager.pac(&lazy_dir).unwrap();
    assert!(store.pool_stats().is_none());
    assert_eq!(store.range_entries(&0, &Key::MAX), want);
    drop(store);
    let store = lazy.pac(&eager_dir).unwrap();
    assert_eq!(store.range_entries(&0, &Key::MAX), want);
    // With the log tail checkpointed away, a lazy open reads no leaf
    // record of the base *or* of its links, and a full scan stays
    // within the one budget they share.
    store.compact().unwrap();
    drop(store);
    let store = lazy.pac(&eager_dir).unwrap();
    assert_eq!(store.pool_stats().unwrap().misses, 0);
    assert_eq!(store.range_entries(&0, &Key::MAX), want);
    let s = store.pool_stats().unwrap();
    assert!(s.misses > 8 && s.evictions > 0, "{s:?}");
    assert!(s.resident_pages <= 8, "resident {} pages", s.resident_pages);
}

/// A planted bug: a store that silently drops the last op of every
/// commit of three or more.
struct DropsLastOp(ShardedStore<Key, Val>);

impl Target for DropsLastOp {
    fn engine(&self) -> &ShardedStore<Key, Val> {
        &self.0
    }
    fn commit(&self, mut ops: Vec<Op<Key, Val>>) -> Result<u64, String> {
        if ops.len() >= 3 {
            ops.pop();
        }
        self.0.commit(ops).map_err(|e| e.to_string())
    }
}

/// The harness is not vacuous: the planted bug is reported by `replay`
/// and shrunk to a handful of steps.
#[test]
fn the_world_finds_and_shrinks_a_planted_bug() {
    let cfg = Config {
        shards: 2,
        b: 8,
        pool_pages: None,
        history: 4,
    };
    let case = |script: &Script| {
        replay(script, &cfg, || {
            cfg.in_memory(IN_MEMORY.keys).map(DropsLastOp)
        })
        .map(drop)
    };
    let (script, error) = (0..100)
        .map(|seed| Script::generate(seed, &IN_MEMORY))
        .filter(|script| script.steps.len() >= 10)
        .find_map(|script| case(&script).err().map(|e| (script, e)))
        .expect("a long script meets the planted bug");
    assert!(error.contains("contents diverge"), "{error}");
    let (minimal, error) = shrink(script.clone(), error, &case);
    println!("{script}\nshrinks to {minimal}\nfailing with: {error}");
    assert!(minimal.steps.len() <= 10, "{minimal}");
    assert!(case(&minimal).is_err());
    // The same script passes on the real store.
    replay(&minimal, &cfg, || cfg.in_memory(IN_MEMORY.keys)).unwrap();
}
