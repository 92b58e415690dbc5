//! Thread-scaling sweep: the repo's multicore trajectory (PaC-trees
//! paper figs. 14–15 are *parallel* results; this harness measures how
//! the bulk operations and the store's commit path behave as the pool
//! grows).
//!
//! The pool size is fixed at first use (`PARLAY_NUM_THREADS` is read
//! once), so one process cannot sweep thread counts. The parent
//! re-executes itself as a child per thread count (`scaling_sweep child`)
//! with the environment set; each child runs every workload on its own
//! freshly-sized pool and prints its numbers as one whitespace-separated
//! line, which the parent collects into the printed table.
//!
//! Workloads (all self-relative: speedup is vs this sweep's own 1-thread
//! row, so the numbers stay honest on any host):
//! - `union`: PacSet union of n and n/2 random keys (tab02 bulk-op shape)
//! - `multi_insert`: batch insert of n/10 keys into an n-key PacSet
//! - `shard_commit`: `ShardedStore::commit` batches across 4 shards
//! - join-overhead microbench: ns per no-op `parlay::join` on a worker

use bench::time;
use cpam::PacSet;
use store::{Op, Router, ShardedStore, StoreOptions};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_n() -> usize {
    bench::base_n()
}

/// ns per no-op join, measured inside the pool (the `run` closure is on
/// a worker, so each iteration is the on-worker fork path).
fn join_overhead_ns() -> f64 {
    let reps = 2_000_000u64;
    let elapsed = parlay::run(|| {
        let start = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(parlay::join(
                || std::hint::black_box(0u64),
                || std::hint::black_box(1u64),
            ));
        }
        start.elapsed()
    });
    elapsed.as_nanos() as f64 / reps as f64
}

/// Entries merged per second by `PacSet::union` (best of `reps`).
fn union_ops_per_sec(n: usize) -> f64 {
    let mut rng = bench::XorShift(0xA11CE);
    let a: Vec<u64> = (0..n).map(|_| rng.next_u64() % (4 * n as u64)).collect();
    let b: Vec<u64> = (0..n / 2).map(|_| rng.next_u64() % (4 * n as u64)).collect();
    let sa = PacSet::<u64>::from_keys(a);
    let sb = PacSet::<u64>::from_keys(b);
    let entries = (sa.len() + sb.len()) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (u, secs) = time(|| parlay::run(|| sa.union(&sb)));
        std::hint::black_box(u.len());
        best = best.min(secs);
    }
    entries / best
}

/// Keys inserted per second by `PacSet::multi_insert` (best of `reps`).
fn multi_insert_ops_per_sec(n: usize) -> f64 {
    let mut rng = bench::XorShift(0xB0B);
    let base: Vec<u64> = (0..n).map(|_| rng.next_u64() % (4 * n as u64)).collect();
    let set = PacSet::<u64>::from_keys(base);
    let batch: Vec<u64> = (0..n / 10).map(|_| rng.next_u64() % (4 * n as u64)).collect();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (s, secs) = time(|| parlay::run(|| set.multi_insert(batch.clone())));
        std::hint::black_box(s.len());
        best = best.min(secs);
    }
    (batch.len().max(1)) as f64 / best
}

/// Puts committed per second through a 4-shard in-memory store.
fn shard_commit_ops_per_sec(n: usize) -> f64 {
    let total = n.max(10_000);
    let batch = (total / 10).max(1_000);
    let commits = 8;
    let router = Router::uniform_span(4, total as u64);
    let opts = StoreOptions {
        history_limit: 2,
        ..StoreOptions::default()
    };
    let store: ShardedStore<u64, u64> =
        ShardedStore::in_memory_with(router, opts).expect("in-memory store");
    for chunk in (0..total as u64).collect::<Vec<_>>().chunks(100_000) {
        store
            .commit(chunk.iter().map(|&k| Op::Put(k, 0)).collect())
            .expect("preload");
    }
    let mut rng = bench::XorShift(0x5EED);
    store
        .commit((0..batch).map(|i| Op::Put(i as u64, 1)).collect())
        .expect("warmup");
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
    (commits * batch) as f64 / secs
}

/// Child mode: run every workload on this process's pool and print one
/// line for the parent: ns per join, then the union, multi_insert and
/// shard_commit ops per second.
fn child() {
    let n = bench_n();
    let ns_per_join = join_overhead_ns();
    let union = union_ops_per_sec(n);
    let multi_insert = multi_insert_ops_per_sec(n);
    let shard_commit = shard_commit_ops_per_sec(n);
    println!("{ns_per_join:.1} {union:.0} {multi_insert:.0} {shard_commit:.0}");
}

struct Row {
    threads: usize,
    ns_per_join: f64,
    ops: [f64; 3],
}

fn parent() {
    bench::header("scaling_sweep", "thread-scaling sweep (self-relative)");
    let exe = std::env::current_exe().expect("current_exe");
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "host cores = {host_cores}, n = {}, sweeping PARLAY_NUM_THREADS {:?}\n",
        bench_n(),
        THREAD_COUNTS
    );

    let mut rows: Vec<Row> = Vec::new();
    for threads in THREAD_COUNTS {
        let out = std::process::Command::new(&exe)
            .arg("child")
            .env("PARLAY_NUM_THREADS", threads.to_string())
            .output()
            .expect("spawn sweep child");
        assert!(
            out.status.success(),
            "child (threads={threads}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<f64> = line
            .split_whitespace()
            .map(|f| f.parse().unwrap_or_else(|_| panic!("bad child output: {line}")))
            .collect();
        assert_eq!(fields.len(), 4, "child output has four fields: {line}");
        rows.push(Row {
            threads,
            ns_per_join: fields[0],
            ops: [fields[1], fields[2], fields[3]],
        });
    }

    println!(
        "{:>8} {:>12} {:>16} {:>10} {:>18} {:>10} {:>18} {:>10}",
        "threads", "ns/join", "union (e/s)", "spd", "multi_ins (k/s)", "spd", "shard_commit", "spd"
    );
    let base = &rows[0];
    for r in &rows {
        println!(
            "{:>8} {:>12.1} {:>16.0} {:>9.2}x {:>18.0} {:>9.2}x {:>18.0} {:>9.2}x",
            r.threads,
            r.ns_per_join,
            r.ops[0],
            r.ops[0] / base.ops[0],
            r.ops[1],
            r.ops[1] / base.ops[1],
            r.ops[2],
            r.ops[2] / base.ops[2],
        );
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("child") {
        child();
    } else {
        parent();
    }
}
