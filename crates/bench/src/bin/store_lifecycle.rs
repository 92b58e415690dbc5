//! Store lifecycle under sustained writes: a durable sharded store
//! takes batched commits with periodic checkpoint-then-truncate
//! compaction, and the harness reports the three numbers the lifecycle
//! subsystem exists to bound:
//!
//! * **steady-state WAL size** — bytes in the store's one log right
//!   after each compaction (should stay flat), plus
//!   the peak reached between compactions (bounded by the cycle's
//!   batch volume, not by total history);
//! * **compaction pause** — p50/p99/max of the store's own
//!   `pacstore_compact_ns` histogram (the store times every `compact()`
//!   itself; the harness just windows the cumulative histogram), plus
//!   the truncate-phase percentiles — the only part that actually
//!   holds the commit path;
//! * **incremental vs full snapshot bytes** — average incremental page
//!   bytes per compaction against a full snapshot of the final state;
//!   the ratio is the payoff of diff-based checkpointing.
//!
//! The write pattern is 99.9% hot-range (a sliding window of 1% of the
//! keyspace) and 0.1% uniform: sustained workloads with locality are
//! exactly where incremental pages pay off. Uniform-random writes touch
//! a constant fraction of the leaf blocks per key (coupon-collector
//! style), so even a 10% uniform tail would drag most of the tree into
//! every "incremental" page by construction.
//!
//! Not a paper figure — this tracks the system claim behind
//! `ShardedStore::compact` (EXPERIMENTS.md §pacstore). Rewrites the
//! `store_lifecycle` section of `BENCH_store.json`, preserving the
//! `shard_throughput` section.

use std::path::Path;

use bench::{header, hist_now, hist_since, mib, ms, ns_window_ms, time, XorShift};
use store::{Op, Router, ShardedStore, StoreOptions, LOG_FILE};

const SHARDS: usize = 4;
const COMMITS_PER_CYCLE: usize = 8;
const CYCLES: usize = 12;

/// Log bytes on disk: the store's one log.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(LOG_FILE)).map(|m| m.len()).unwrap_or(0)
}

fn main() {
    header(
        "store_lifecycle",
        "sustained writes with periodic checkpoint-then-truncate compaction",
    );
    let n = bench::base_n();
    let total = (n / 2).max(20_000);
    let batch = (total / 200).max(500);
    let hot_span = (total / 100).max(1_000) as u64;
    println!(
        "keyspace = {total}, batch = {batch} puts (99.9% in a sliding {hot_span}-key hot range), \
         {COMMITS_PER_CYCLE} commits per compaction cycle, {CYCLES} cycles\n"
    );

    let dir = std::env::temp_dir().join(format!("store-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        history_limit: 2,
        ..StoreOptions::default()
    };
    let store: ShardedStore<u64, u64> =
        ShardedStore::open_or_create(&dir, Router::uniform_span(SHARDS, total as u64), opts)
            .expect("open store");

    // Preload the full keyspace and cut the initial full checkpoint the
    // incremental chain hangs off.
    for chunk in (0..total as u64).collect::<Vec<_>>().chunks(100_000) {
        store
            .commit(chunk.iter().map(|&k| Op::Put(k, 0)).collect())
            .expect("preload");
    }
    store.save().expect("initial checkpoint");
    let preload_stats = store.lifecycle_stats();

    let mut rng = XorShift(0x11FE_C7C1_E5EE_D001);
    let mut commit_secs = 0.0;
    let mut wal_peak = 0u64;
    let mut wal_after: Vec<u64> = Vec::with_capacity(CYCLES);
    // Pause and latency percentiles come from the store's own write-path
    // histograms (obs), windowed to the sustained phase: every compact()
    // and commit() records itself, the harness only takes snapshots.
    let compact_before = hist_now("pacstore_compact_ns");
    let truncate_before = hist_now("pacstore_compact_truncate_ns");
    let commit_before = hist_now("pacstore_commit_ns");
    for cycle in 0..CYCLES {
        let hot_base = (cycle as u64 * hot_span) % total as u64;
        let (_, secs) = time(|| {
            for _ in 0..COMMITS_PER_CYCLE {
                let ops: Vec<Op<u64, u64>> = (0..batch)
                    .map(|_| {
                        let r = rng.next_u64();
                        let k = if r % 1000 < 999 {
                            (hot_base + r % hot_span) % total as u64
                        } else {
                            r % total as u64
                        };
                        Op::Put(k, r)
                    })
                    .collect();
                store.commit(ops).expect("commit");
            }
        });
        commit_secs += secs;
        wal_peak = wal_peak.max(wal_bytes(&dir));
        store.compact().expect("compact");
        wal_after.push(wal_bytes(&dir));
    }
    let compact_window = hist_since("pacstore_compact_ns", &compact_before);
    let truncate_window = hist_since("pacstore_compact_truncate_ns", &truncate_before);
    let commit_window = hist_since("pacstore_commit_ns", &commit_before);

    let stats = store.lifecycle_stats();
    let sustained = stats.delta(preload_stats);
    let incr_saves = sustained.incremental_saves.max(1);
    let incr_avg = sustained.incremental_page_bytes / incr_saves * SHARDS as u64;
    // A full snapshot of the *final* state, for a like-for-like
    // incremental-vs-full comparison at identical content.
    let before_full = store.lifecycle_stats().full_page_bytes;
    store.save().expect("final full snapshot");
    let full_bytes = store.lifecycle_stats().full_page_bytes - before_full;

    let puts = (CYCLES * COMMITS_PER_CYCLE * batch) as f64;
    let pause_mean = compact_window.mean() / 1e9;
    let (pause_p50, pause_p99, pause_max) = ns_window_ms(&compact_window);
    let (truncate_p50, truncate_p99, _) = ns_window_ms(&truncate_window);
    let (commit_p50, commit_p99, _) = ns_window_ms(&commit_window);
    let wal_steady = wal_after.iter().copied().max().unwrap_or(0);

    println!("sustained commit throughput = {:.0} puts/s", puts / commit_secs);
    println!(
        "commit latency: p50 = {commit_p50:.3} ms, p99 = {commit_p99:.3} ms \
         over {} commits",
        commit_window.count()
    );
    println!(
        "WAL bytes: peak between compactions = {}, max after compaction = {}",
        mib(wal_peak as usize),
        mib(wal_steady as usize)
    );
    println!(
        "compaction pause: mean = {}, p50 = {pause_p50:.3} ms, p99 = {pause_p99:.3} ms, \
         max = {pause_max:.3} ms over {CYCLES} cycles",
        ms(pause_mean),
    );
    println!(
        "  truncate phase (the part commits wait behind): p50 = {truncate_p50:.3} ms, \
         p99 = {truncate_p99:.3} ms",
    );
    println!(
        "snapshot bytes per cycle: incremental = {} vs full = {} ({:.1}x smaller)",
        mib(incr_avg as usize),
        mib(full_bytes as usize),
        full_bytes as f64 / incr_avg.max(1) as f64
    );
    println!(
        "lifecycle totals: {} incremental saves, {} full saves, {} WAL bytes truncated",
        stats.incremental_saves, stats.full_saves, stats.wal_bytes_truncated
    );

    let section = format!(
        "{{\n    \"threads\": {},\n    \"total_keys\": {},\n    \"batch_size\": {},\n    \
         \"cycles\": {CYCLES},\n    \"commits_per_cycle\": {COMMITS_PER_CYCLE},\n    \
         \"sustained_puts_per_sec\": {:.0},\n    \"commit_ms_p50\": {commit_p50:.3},\n    \
         \"commit_ms_p99\": {commit_p99:.3},\n    \"wal_peak_bytes\": {},\n    \
         \"wal_after_compact_bytes\": {},\n    \"compact_pause_ms_mean\": {:.3},\n    \
         \"compact_pause_ms_p50\": {pause_p50:.3},\n    \
         \"compact_pause_ms_p99\": {pause_p99:.3},\n    \
         \"compact_pause_ms_max\": {pause_max:.3},\n    \
         \"compact_truncate_ms_p50\": {truncate_p50:.3},\n    \
         \"compact_truncate_ms_p99\": {truncate_p99:.3},\n    \"incremental_saves\": {},\n    \
         \"incremental_bytes_per_cycle\": {},\n    \"full_snapshot_bytes\": {},\n    \
         \"full_to_incremental_ratio\": {:.1},\n    \"wal_bytes_truncated\": {}\n  }}",
        parlay::num_threads(),
        total,
        batch,
        puts / commit_secs,
        wal_peak,
        wal_steady,
        pause_mean * 1e3,
        stats.incremental_saves,
        incr_avg,
        full_bytes,
        full_bytes as f64 / incr_avg.max(1) as f64,
        stats.wal_bytes_truncated,
    );
    // Rewrite only this binary's section of the merged results file.
    bench::write_merged_section(
        "BENCH_store.json",
        "store_lifecycle",
        &section,
        &["shard_throughput"],
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
