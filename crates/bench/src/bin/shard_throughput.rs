//! Sharded-store throughput: batch-commit throughput vs shard count at
//! fixed total keys, plus a durable sweep with per-shard WALs.
//!
//! Not a paper figure — this tests the *system* claim behind
//! `ShardedStore` (EXPERIMENTS.md §pacstore): splitting a batch by key
//! range and applying the pieces to N smaller trees beats one big tree.
//! On a multi-core machine the per-shard updates also run in parallel
//! (`parlay::join`); on one core the win is algorithmic — smaller
//! batch sorts/collapses and shallower trees. Expected shape: puts/s
//! increases monotonically with shard count.
//!
//! Writes `BENCH_store.json` (machine-readable sweep results) into the
//! current directory.


use bench::{header, time, XorShift};
use store::{Op, Router, ShardedStore, StoreOptions};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Measurement {
    shards: usize,
    commits: usize,
    puts_per_sec: f64,
    versions: u64,
    /// Per-commit latency over the timed loop, from the global
    /// `pacstore_commit_ns` histogram window (ms).
    commit_ms_p50: f64,
    commit_ms_p99: f64,
}

/// One sweep point: preload `total` keys, then time `commits` batches
/// of `batch` random puts each.
fn sweep_point(
    shards: usize,
    total: usize,
    batch: usize,
    commits: usize,
    dir: Option<&std::path::Path>,
) -> Measurement {
    let router = Router::uniform_span(shards, total as u64);
    let opts = StoreOptions {
        history_limit: 2,
        ..StoreOptions::default()
    };
    let store: ShardedStore<u64, u64> = match dir {
        None => ShardedStore::in_memory_with(router, opts).expect("in-memory store"),
        Some(dir) => {
            let sub = dir.join(format!("shards-{shards}"));
            let _ = std::fs::remove_dir_all(&sub);
            ShardedStore::open_or_create(&sub, router, opts).expect("open store")
        }
    };
    // Preload in shard-count-independent chunks so every sweep point
    // starts from the identical logical state.
    for chunk in (0..total as u64).collect::<Vec<_>>().chunks(100_000) {
        store
            .commit(chunk.iter().map(|&k| Op::Put(k, 0)).collect())
            .expect("preload");
    }

    let mut rng = XorShift(0x5EED + shards as u64);
    // One untimed warmup commit so page-cache and allocator effects
    // don't land on the first sweep point.
    store
        .commit((0..batch).map(|i| Op::Put(i as u64 % total as u64, 1)).collect())
        .expect("warmup");
    // Window the cumulative commit-latency histogram to the timed loop.
    let commit_hist_before = bench::hist_now("pacstore_commit_ns");
    let (_, secs) = time(|| {
        for _ in 0..commits {
            let ops: Vec<Op<u64, u64>> = (0..batch)
                .map(|_| {
                    let k = rng.next_u64() % total as u64;
                    Op::Put(k, k)
                })
                .collect();
            store.commit(ops).expect("commit");
        }
    });
    let window = bench::hist_since("pacstore_commit_ns", &commit_hist_before);
    let (commit_ms_p50, commit_ms_p99, _) = bench::ns_window_ms(&window);
    Measurement {
        shards,
        commits,
        puts_per_sec: (commits * batch) as f64 / secs,
        versions: store.current_version(),
        commit_ms_p50,
        commit_ms_p99,
    }
}

fn print_sweep(rows: &[Measurement]) {
    println!(
        "{:>10} {:>14} {:>16} {:>12} {:>14} {:>14}",
        "shards", "commits", "puts/s", "versions", "commit p50", "commit p99"
    );
    for m in rows {
        println!(
            "{:>10} {:>14} {:>16.0} {:>12} {:>11.3} ms {:>11.3} ms",
            m.shards, m.commits, m.puts_per_sec, m.versions, m.commit_ms_p50, m.commit_ms_p99
        );
    }
    if let (Some(one), Some(four)) = (
        rows.iter().find(|m| m.shards == 1),
        rows.iter().find(|m| m.shards == 4),
    ) {
        println!(
            "  1 -> 4 shard throughput ratio = {:.2}x",
            four.puts_per_sec / one.puts_per_sec
        );
    }
    println!();
}

fn json_rows(rows: &[Measurement]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|m| {
            format!(
                "{{\"shards\": {}, \"commits\": {}, \"puts_per_sec\": {:.0}, \
                 \"versions\": {}, \"commit_ms_p50\": {:.3}, \"commit_ms_p99\": {:.3}}}",
                m.shards, m.commits, m.puts_per_sec, m.versions, m.commit_ms_p50, m.commit_ms_p99
            )
        })
        .collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    header("shard_throughput", "cross-shard batch-commit throughput vs shard count");
    let n = bench::base_n();
    // Fixed total keys for the whole sweep; batches are a tenth of the
    // keyspace so the batch sort/collapse cost is visible.
    let total = (2 * n).max(20_000);
    let batch = (total / 10).max(1_000);
    let commits = 12;
    println!("total keys = {total}, batch = {batch} random puts, {commits} commits\n");

    println!("--- in-memory (tree update + commit pipeline only) ---");
    let memory: Vec<Measurement> = SHARD_COUNTS
        .iter()
        .map(|&s| sweep_point(s, total, batch, commits, None))
        .collect();
    print_sweep(&memory);

    println!("--- durable (one log, one append per commit group, no fsync) ---");
    let dir = std::env::temp_dir().join(format!("shard-throughput-{}", std::process::id()));
    let durable_total = (total / 2).max(10_000);
    let durable_batch = (durable_total / 10).max(1_000);
    let durable: Vec<Measurement> = SHARD_COUNTS
        .iter()
        .map(|&s| sweep_point(s, durable_total, durable_batch, commits, Some(&dir)))
        .collect();
    print_sweep(&durable);
    let _ = std::fs::remove_dir_all(&dir);

    // Machine-readable results, seeding the bench trajectory.
    let ratio = |rows: &[Measurement]| -> f64 {
        let one = rows.iter().find(|m| m.shards == 1).map_or(1.0, |m| m.puts_per_sec);
        let four = rows.iter().find(|m| m.shards == 4).map_or(1.0, |m| m.puts_per_sec);
        four / one
    };
    let section = format!(
        "{{\n    \"threads\": {},\n    \"total_keys\": {},\n    \
         \"batch_size\": {},\n    \"memory_sweep\": {},\n    \"memory_ratio_1_to_4\": {:.3},\n    \
         \"durable_total_keys\": {},\n    \"durable_sweep\": {},\n    \"durable_ratio_1_to_4\": {:.3}\n  }}",
        parlay::num_threads(),
        total,
        batch,
        json_rows(&memory),
        ratio(&memory),
        durable_total,
        json_rows(&durable),
        ratio(&durable),
    );
    bench::write_merged_section(
        "BENCH_store.json",
        "shard_throughput",
        &section,
        &["store_lifecycle"],
    );
}
