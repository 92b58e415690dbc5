//! `store_durable`: a 4-shard durable `ShardedStore` with the default
//! (raw) codec and no buffer pool, driven by one client thread. The
//! data fits memory, so time goes to group-commit tickets, WAL and
//! manifest appends, `apply_ops`, checkpoint and truncate — the `store`
//! write path — and almost none to codec decode or the pool. It
//! exercises the `ShardedStore` engine, so a merge of the two store
//! engines has a no-regression referee here.

use std::path::Path;

use store::{Op, Router, ShardedStore};

use crate::common::{reopen, set_up_repeatedly, store_options, Check, Ctx, Outcome, Plan};
use crate::gen::{stable_keys, value_of, Rng, KEY_SPAN};
use crate::kv::{
    out_of_step, plan_commits, plan_gets, read_laps, BulkPhase, CommitWindows, ReadPhase,
    WindowPhase, WritePhase, COMMIT_OPS, POOL_WINDOWS,
};
use crate::measure::{dir_bytes, flush_dir, write_bytes, LAPS};
use crate::serve_mixed::SERVER_WINDOWS;
use crate::trace::Recorder;

pub type Store = ShardedStore<u64, u64>;

pub const SHARDS: usize = 4;
/// Keys preloaded before the first timed phase.
const N: usize = 1_000_000;
/// Puts per bulk commit.
const BULK_BATCH: usize = 100_000;
/// Compactions inside the write phase: one per ~1 800 commits.
const COMPACTIONS: usize = 4;

// Frozen per-second call rates at the seed commit on the 2-core
// reference box.
const COMMITS_PER_S: f64 = 770.0;
const GETS_PER_S: f64 = 720_000.0;
const WINDOWS_PER_S: f64 = 280_000.0;
const BULK_COMMITS_PER_S: f64 = 48.0;

/// Creates the store in `dir` and preloads `keys` at generation 0 in
/// commits of 100 000, then cuts the first full checkpoint.
pub fn preload(dir: &Path, keys: &[u64], check: &mut Check) -> Store {
    let store = Store::open_or_create(
        dir,
        Router::uniform_span(SHARDS, KEY_SPAN),
        store_options(None),
    )
    .expect("create the durable store");
    for chunk in keys.chunks(100_000) {
        check.ok(store
            .commit(chunk.iter().map(|&k| Op::Put(k, value_of(k, 0))).collect())
            .is_ok());
    }
    check.ok(store.save().is_ok());
    store
}

/// Closes a set-up's store and removes its directory.
pub fn discard(store: Store, dir: &Path) {
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// After the final compaction: the directory's bytes, the median of
/// `reopens` reopens, and the full compare of what reopens against the
/// oracle. Returns `(bytes_per_entry, open_ms)`.
pub fn close_and_verify(
    store: Store,
    dir: &Path,
    reopens: usize,
    plan: &Plan,
    check: &mut Check,
) -> (f64, f64) {
    check.ok(store.compact().is_ok());
    let bytes = dir_bytes(dir);
    drop(store);
    let (store, open_ms) = reopen(
        reopens,
        || Store::open_with(dir, store_options(None)),
        check,
    );
    let live = plan.oracle.compare(&store.snapshot().to_vec(), check);
    (bytes as f64 / live as f64, open_ms)
}

pub fn run(ctx: &Ctx, mut rec: Option<&mut Recorder>) -> Outcome {
    let mut out = Outcome {
        clients: 1,
        ..Outcome::default()
    };
    let mut check = Check::default();
    let scale = ctx.scale;
    let n = scale.size(N);

    // --- Set-up, into a fresh directory each time.
    let ((keys, store, dir), setup_s) = set_up_repeatedly(
        |round| {
            let dir = ctx.data_dir.join(format!("durable-{round}"));
            let keys = stable_keys(&mut Rng::new(ctx.seed, 1), n, None);
            let store = preload(&dir, &keys, &mut check);
            (keys, store, dir)
        },
        |(_, store, dir)| discard(store, &dir),
    );
    flush_dir(&dir);
    let mut plan = Plan::new(&keys);

    // --- Plans: everything the phases will do, generated before the
    // first timed call; each constructor runs its 1 % warm-up.
    let commits = scale.calls(COMMITS_PER_S, 0.4);
    let batches = plan_commits(
        &mut Rng::new(ctx.seed, 2),
        &keys,
        commits / 100 + commits,
        COMMIT_OPS,
        &mut plan,
    );
    let gets = scale.calls(GETS_PER_S, 0.3);
    let probes = plan_gets(
        &mut Rng::new(ctx.seed, 3),
        &keys,
        &keys,
        0,
        gets / 100 + gets,
        &mut plan.hash,
    );
    let windows = scale.calls(WINDOWS_PER_S, 0.3);
    // Bulk commits: traced runs only.
    let rounds = scale.calls(BULK_COMMITS_PER_S, 0.2);
    let mut bulk = rec.is_some().then(|| {
        BulkPhase::new(
            "bulk",
            &keys,
            &mut Rng::new(ctx.seed, 5),
            rounds,
            scale.size(BULK_BATCH),
            &mut plan,
        )
    });
    // A read may run after any write of the plan, so values are checked
    // against the plan's last generation.
    let max_gen = plan.max_gen;
    let mut write = WritePhase::new(
        &store,
        batches,
        commits / 100,
        COMPACTIONS,
        n,
        rec.is_some(),
        &mut check,
    );
    let mut read = ReadPhase::new("read", &store, &probes, gets / 100, n, max_gen, &mut check);
    let twin_probes = out_of_step(&probes, gets / 100);
    let mut traced_read = rec.is_some().then(|| {
        ReadPhase::new(
            "read_traced",
            &store,
            &twin_probes,
            gets / 100,
            n,
            max_gen,
            &mut check,
        )
    });
    let mut scan = WindowPhase::new(
        "scan",
        &store,
        &keys,
        &mut Rng::new(ctx.seed, 4),
        windows,
        &mut plan,
        &mut check,
    );

    // --- A hundred laps, one slice of every phase per lap. (Reads
    // before writes, each in its own half of the run, was tried to keep
    // the compactions' disk traffic away from the reads: every metric
    // then spread 18 % from run to run instead of 7 %. A phase is
    // steadiest when it samples the whole run.)
    let windows_obs = CommitWindows::open(store.lifecycle_stats());
    let mut written = 0u64;
    for lap in 0..LAPS {
        let bytes_before = write_bytes(store.lifecycle_stats().wal_bytes_truncated);
        write.lap(lap, &store, rec.as_deref_mut(), &mut check);
        written += write_bytes(store.lifecycle_stats().wal_bytes_truncated) - bytes_before;
        read_laps(
            &store,
            lap,
            &mut read,
            traced_read.as_mut(),
            rec.as_deref_mut(),
            &mut check,
        );
        scan.lap(lap, &store, rec.as_deref_mut(), &mut check);
        if let Some(bulk) = bulk.as_mut() {
            bulk.lap(lap, &store, rec.as_deref_mut(), &mut check);
        }
    }
    let life_after = store.lifecycle_stats();
    let (read, scan) = (read.phase, scan.phase);
    out.phases_done(&[&write.phase, &write.pauses, &read, &scan]);

    // --- Space after the final compaction, reopen, full compare.
    let reopens = if rec.is_some() { 5 } else { 1 };
    let (bytes_per_entry, open_ms) = close_and_verify(store, &dir, reopens, &plan, &mut check);

    out.e2e("setup_s", setup_s, "s");
    out.reads(&read);
    out.writes(&write.phase, Some(&write.pauses));
    out.e2e("scan_entries_per_s", scan.rate(), "entries/s");
    out.e2e("bytes_per_entry", bytes_per_entry, "B");

    if let (Some(traced), Some(bulk)) = (traced_read, bulk) {
        out.phases_done(&[&traced.phase, &bulk.phase]);
        out.trace_overhead(&read, &traced.phase);
        out.layer(
            "workload.bulk_entries_per_s",
            bulk.phase.rate(),
            "entries/s",
        );
        out.layer(
            "workload.write_amp",
            written as f64 / (16.0 * write.phase.units() as f64),
            "ratio",
        );
        out.layer("workload.open_ms", open_ms, "ms");
        windows_obs.report(life_after, write.phase.units(), &mut out);
        // No pool, no server.
        out.not_exercised(&POOL_WINDOWS);
        out.not_exercised(&SERVER_WINDOWS);
    }
    out.counts = vec![
        ("entries", n as u64),
        ("commits", commits as u64),
        ("gets", gets as u64),
        ("windows", windows as u64),
        ("bulk_commits", rounds as u64),
    ];
    out.check = check;
    out.op_hash = plan.hash.0;
    out
}
