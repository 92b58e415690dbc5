//! `store_paged`: a difference-encoded `PacStore` reopened lazily over
//! a buffer pool holding about 1 % of its leaf pages — the "larger than
//! the program's own cache" workload. Time goes to pool lookup and
//! eviction, page read + CRC, lazy-leaf materialisation and delta
//! decode. It exercises the *other* store engine and the other codec,
//! and puts writes beside reads on a lazy tree, so a page-layout or
//! read-ahead gain for scans that costs copy-on-write commits shows.

use codecs::DeltaCodec;
use store::{Op, PacStore, PoolStats};

use crate::common::{
    reopen, set_up_repeatedly, store_options, Check, Ctx, Outcome, Plan, BLOCK_SIZE,
};
use crate::gen::{stable_keys, value_of, value_ok, Rng};
use crate::kv::{
    out_of_step, plan_commits, plan_gets, read_laps, BulkPhase, CommitWindows, ReadPhase,
    WindowPhase, WritePhase,
};
use crate::measure::{dir_bytes, flush_dir, rate_of, write_bytes, Phase, LAPS};
use crate::serve_mixed::SERVER_WINDOWS;
use crate::trace::{Recorder, SpanName};

type Store = PacStore<u64, u64, DeltaCodec>;

/// Keys in the store: about 5 200 leaf pages.
const N: usize = 1_000_000;
/// Buffer-pool budget in pages: about 1.2 % of the leaves.
const POOL_PAGES: usize = 64;
/// Ops per small commit. A quarter of `store_durable`'s 64: a commit on
/// the lazy base faults and re-encodes a leaf per key, and the phase
/// has to fit a thousand commits for its p99 to have samples beyond it.
const COMMIT_OPS: usize = 16;
/// The hot set is a run of consecutive keys filling half the pool.
const HOT_KEYS: usize = POOL_PAGES / 2 * 128;
/// Puts per bulk commit.
const BULK_BATCH: usize = 20_000;
/// Compactions inside the write phase: one per ~1 000 commits.
const COMPACTIONS: usize = 10;

// Frozen per-second call rates at the seed commit on the 2-core
// reference box.
const GETS_PER_S: f64 = 230_000.0;
const WINDOWS_PER_S: f64 = 4_000.0;
const FULL_SCANS_PER_S: f64 = 9.0;
const COMMITS_PER_S: f64 = 1_100.0;
const BULK_COMMITS_PER_S: f64 = 27.0;

fn pool(store: &Store) -> PoolStats {
    store.pool_stats().expect("a paged store has a pool")
}

pub fn run(ctx: &Ctx, mut rec: Option<&mut Recorder>) -> Outcome {
    let mut out = Outcome {
        clients: 1,
        ..Outcome::default()
    };
    let mut check = Check::default();
    let scale = ctx.scale;
    let n = scale.size(N);
    let opts = || store_options(Some(POOL_PAGES));

    // --- Set-up: build through commits, save in the paged format, drop
    // the resident handle.
    let ((keys, dir), setup_s) = set_up_repeatedly(
        |round| {
            let dir = ctx.data_dir.join(format!("paged-{round}"));
            let keys = stable_keys(&mut Rng::new(ctx.seed, 1), n, None);
            let store = Store::open_with(&dir, opts()).expect("create the paged store");
            for chunk in keys.chunks(100_000) {
                check.ok(store
                    .commit(chunk.iter().map(|&k| Op::Put(k, value_of(k, 0))).collect())
                    .is_ok());
            }
            check.ok(store.save().is_ok());
            (keys, dir)
        },
        |(_, dir)| {
            let _ = std::fs::remove_dir_all(dir);
        },
    );
    flush_dir(&dir);
    let mut plan = Plan::new(&keys);

    // --- Lazy open: structure only, no data page is read.
    let store = Store::open_with(&dir, opts()).expect("the paged store reopens");
    check.ok(pool(&store).misses == 0);

    // --- Plans. Half the gets go into the hot set, half are uniform.
    let gets = scale.calls(GETS_PER_S, 0.3);
    let hot_len = HOT_KEYS.min(n / 4);
    let hot = &keys[n / 2..n / 2 + hot_len];
    let probes = plan_gets(
        &mut Rng::new(ctx.seed, 2),
        &keys,
        hot,
        5,
        gets / 100 + gets,
        &mut plan.hash,
    );
    let windows = scale.calls(WINDOWS_PER_S, 0.12);
    let full_scans = scale.calls(FULL_SCANS_PER_S, 0.18);
    let commits = scale.calls(COMMITS_PER_S, 0.4);
    let batches = plan_commits(
        &mut Rng::new(ctx.seed, 4),
        &keys,
        commits / 100 + commits,
        COMMIT_OPS,
        &mut plan,
    );
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
    let max_gen = plan.max_gen;

    // --- Read laps: gets, windows and full scans take turns on the lazy
    // tree. They all run before the first write: a commit leaves the
    // leaves it touches resident, and ten thousand commits would turn
    // the paged store into an in-memory one. (Giving the reads a copy of
    // the store, so that reads and writes could take turns through the
    // whole run, was tried: no steadier, and slower reads.)
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
    let mut scan_windows = WindowPhase::new(
        "scan_windows",
        &store,
        &keys,
        &mut Rng::new(ctx.seed, 3),
        windows,
        &mut plan,
        &mut check,
    );
    let mut scan_full = Phase::new("scan_full", full_scans);
    let (mut read_misses, mut scan_pages, mut scan_evictions, mut peak_bytes) =
        (0u64, 0u64, 0u64, 0usize);
    for lap in 0..LAPS {
        let before = pool(&store);
        read_laps(
            &store,
            lap,
            &mut read,
            traced_read.as_mut(),
            rec.as_deref_mut(),
            &mut check,
        );
        read_misses += pool(&store).misses - before.misses;
        scan_windows.lap(lap, &store, rec.as_deref_mut(), &mut check);
        let before = pool(&store);
        scan_full.lap(
            lap,
            |_| SpanName::Scan,
            None,
            |_| {
                let all = store.range_entries(&0, &u64::MAX);
                let bad = all
                    .iter()
                    .filter(|&&(k, v)| !value_ok(k, v, max_gen))
                    .count();
                check.ok(all.len() == n && bad == 0);
                peak_bytes = peak_bytes.max(pool(&store).resident_bytes);
                all.len() as u64
            },
        );
        let after = pool(&store);
        scan_pages += after.misses - before.misses;
        scan_evictions += after.evictions - before.evictions;
    }
    // Scan resistance: how much of the hot set survived the last scan.
    // One probe per leaf page, so a page the scan evicted costs its
    // one probe a miss.
    let before = pool(&store);
    for &k in hot.iter().step_by(BLOCK_SIZE) {
        check.ok(store.get(&k).is_some());
    }
    let after_hot = pool(&store);

    // --- Write laps: small commits on the lazy base and the
    // compactions between them (in a traced run, taking turns with bulk
    // commits).
    let mut write = WritePhase::new(
        &store,
        batches,
        commits / 100,
        COMPACTIONS,
        n,
        rec.is_some(),
        &mut check,
    );
    let windows_obs = CommitWindows::open(store.lifecycle_stats());
    let mut written = 0u64;
    for lap in 0..LAPS {
        let bytes_before = write_bytes(store.lifecycle_stats().wal_bytes_truncated);
        write.lap(lap, &store, rec.as_deref_mut(), &mut check);
        written += write_bytes(store.lifecycle_stats().wal_bytes_truncated) - bytes_before;
        if let Some(bulk) = bulk.as_mut() {
            bulk.lap(lap, &store, rec.as_deref_mut(), &mut check);
        }
    }
    let life_after = store.lifecycle_stats();
    let (read, scan_windows) = (read.phase, scan_windows.phase);
    out.phases_done(&[
        &read,
        &scan_windows,
        &scan_full,
        &write.phase,
        &write.pauses,
    ]);

    // --- Space after the final compaction, reopen, full compare.
    check.ok(store.compact().is_ok());
    let bytes = dir_bytes(&dir);
    drop(store);
    let reopens = if rec.is_some() { 5 } else { 1 };
    let (store, open_ms) = reopen(reopens, || Store::open_with(&dir, opts()), &mut check);
    let live = plan
        .oracle
        .compare(&store.range_entries(&0, &u64::MAX), &mut check);
    drop(store);

    out.e2e("setup_s", setup_s, "s");
    out.reads(&read);
    out.writes(&write.phase, Some(&write.pauses));
    out.e2e(
        "scan_entries_per_s",
        rate_of(&[&scan_windows, &scan_full]),
        "entries/s",
    );
    out.e2e("bytes_per_entry", bytes as f64 / live as f64, "B");

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
        // No server.
        out.not_exercised(&SERVER_WINDOWS);
        // Gets that read no page, over gets. Not the pool's own `hits`
        // counter: a re-read of a resident leaf goes through the leaf's
        // weak handle and never reaches the pool. (Both twins count.)
        let misses_per_get = read_misses as f64 / (2 * gets) as f64;
        out.layer("store.pool_hit_ratio", 1.0 - misses_per_get, "ratio");
        out.layer("store.pool_misses_per_get", misses_per_get, "count");
        // Cold minus warm: the mean uniform get over the mean hot get.
        let (hot_lo, hot_hi) = (hot[0], hot[hot.len() - 1]);
        let (mut cold, mut warm_ns, mut cold_n, mut warm_n) = (0f64, 0f64, 0u64, 0u64);
        for (&k, &ns) in probes[probes.len() - gets..].iter().zip(&read.samples_ns) {
            if (hot_lo..=hot_hi).contains(&k) {
                warm_ns += ns as f64;
                warm_n += 1;
            } else if k & 1 == 0 {
                cold += ns as f64;
                cold_n += 1;
            }
        }
        out.layer(
            "store.page_fault_us",
            (cold / cold_n.max(1) as f64 - warm_ns / warm_n.max(1) as f64) / 1e3,
            "us",
        );
        out.layer(
            "store.pool_evictions_per_scan_page",
            scan_evictions as f64 / scan_pages.max(1) as f64,
            "ratio",
        );
        let hot_gets = hot.iter().step_by(BLOCK_SIZE).count() as f64;
        out.layer(
            "store.hot_hit_ratio_after_scan",
            1.0 - (after_hot.misses - before.misses) as f64 / hot_gets,
            "ratio",
        );
        out.layer("store.resident_peak_bytes", peak_bytes as f64, "B");
    }
    out.counts = vec![
        ("entries", n as u64),
        ("pool_pages", POOL_PAGES as u64),
        ("gets", gets as u64),
        ("windows", windows as u64),
        ("full_scans", full_scans as u64),
        ("commits", commits as u64),
        ("bulk_commits", rounds as u64),
    ];
    out.check = check;
    out.op_hash = plan.hash.0;
    out
}
