//! Observability tour: run a store through its whole lifecycle —
//! commits, reads, snapshots, GC, checkpoint, compaction — then scrape
//! the process-wide `obs` registry both ways (Prometheus text and
//! JSON).
//!
//! Nothing here configures anything: every `PacStore`/`ShardedStore`
//! records its write-path stages into `obs::global()` unconditionally
//! (relaxed atomics; the registry lock is never taken on a hot path),
//! so any binary can scrape latency percentiles after the fact.
//!
//! Run with: `cargo run --release --example metrics`

use store::{Op, PacStore, RetentionPolicy, Router, ShardedStore, StoreOptions};

fn main() {
    let dir = std::env::temp_dir().join(format!("pacstore-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Exercise the write path -------------------------------------
    let db: PacStore<u64, u64> = PacStore::open(dir.join("single")).expect("open");
    for i in 0..50u64 {
        db.commit((0..200).map(|k| Op::Put(i * 200 + k, i)).collect()).expect("commit");
    }
    let snap = db.snapshot();
    for k in (0..10_000u64).step_by(7) {
        std::hint::black_box(db.get(&k));
    }
    std::hint::black_box(db.range_entries(&100, &400));
    db.gc(RetentionPolicy { keep_last: 2 });
    db.save().expect("save");
    db.commit(vec![Op::Put(1, 99)]).expect("commit");
    db.compact().expect("compact");
    drop(snap);

    // A sharded store records the same schema; per-shard series (the
    // incremental-chain depth) carry a shard label.
    let sharded: ShardedStore<u64, u64> = ShardedStore::open_or_create(
        dir.join("sharded"),
        Router::uniform_span(4, 10_000),
        StoreOptions::default(),
    )
    .expect("open sharded");
    for i in 0..20u64 {
        sharded
            .commit((0..1_000).map(|k| Op::Put((k * 13 + i) % 10_000, i)).collect())
            .expect("commit");
    }
    sharded.compact().expect("compact");

    // --- Scrape: Prometheus text -------------------------------------
    println!("=== render_text() — grep-able, Prometheus exposition ===\n");
    let text = obs::global().render_text();
    // The full scrape is long; show the headline series.
    for line in text.lines() {
        if line.starts_with("pacstore_commit_ns")
            || line.starts_with("pacstore_compact")
            || line.starts_with("pacstore_wal_append_ns")
            || line.starts_with("cpam_")
            || line.starts_with("pacstore_incr_chain_")
        {
            println!("{line}");
        }
    }

    // --- Scrape: percentiles from a histogram snapshot ---------------
    println!("\n=== commit latency, straight from the registry ===\n");
    let commit = obs::global().histogram_snapshot("pacstore_commit_ns").expect("recorded");
    println!(
        "{} commits: p50 = {} ns, p99 = {} ns, max = {} ns",
        commit.count(),
        commit.p50(),
        commit.p99(),
        commit.max_value()
    );
    // Whatever the shard count, a commit group is one log append.
    let wal = obs::global().histogram_snapshot("pacstore_wal_append_ns").expect("recorded");
    println!("{} log appends, one per commit group: p99 = {} ns", wal.count(), wal.p99());

    // --- Scrape: JSON ------------------------------------------------
    let json = obs::global().snapshot_json();
    println!("\n=== snapshot_json() — first 400 bytes ===\n");
    println!("{}...", &json[..400.min(json.len())]);

    let _ = std::fs::remove_dir_all(&dir);
}
