//! `tree_inmem`: a difference-encoded `PacMap` called directly from one
//! harness thread. The paper's own Table-2 shape: all time goes to
//! `codecs` + `cpam` + `parlay`, none to `store` or `server`. It is the
//! only workload where a codec kernel or scheduler change does most of
//! the work, and where point writes (a whole-block re-encode per path
//! copy) sit beside point reads (cursor search, no decode) and scans
//! on the same tree. A traced run adds rounds of bulk operations.

use codecs::{Codec, DeltaCodec};
use cpam::{NoAug, PacMap};

use crate::common::{set_up_repeatedly, Check, Ctx, Outcome, Plan, BLOCK_SIZE};
use crate::gen::{bulk_target, small_target, stable_keys, value_of, value_ok, Rng, KEY_SPAN};
use crate::kv::{COMMIT_WINDOWS, POOL_WINDOWS};
use crate::measure::{rate_of, Phase, Step, LAPS};
use crate::serve_mixed::SERVER_WINDOWS;
use crate::trace::{Recorder, SpanName};

type Tree = PacMap<u64, u64, NoAug, DeltaCodec>;

/// Entries in the tree.
const N: usize = 2_000_000;
/// Entries of the second tree `union` merges in (odd keys, which the
/// main tree never stores, so the two key sets are disjoint).
const UNION_M: usize = 250_000;
/// Batches of 100 and entries of the one large batch per bulk round.
const SMALL_BATCHES: usize = 20;
const LARGE_BATCH: usize = 25_000;

// Frozen per-second call rates of each phase at the seed commit on the
// 2-core reference box; `Scale::calls` turns them into op counts.
const FINDS_PER_S: f64 = 600_000.0;
const WRITES_PER_S: f64 = 31_000.0;
const WINDOWS_PER_S: f64 = 175_000.0;
const FULL_SCANS_PER_S: f64 = 27.0;
const BULK_ROUNDS_PER_S: f64 = 2.0;

type Batch = Vec<(u64, u64)>;

/// The batch inserts of one bulk round.
struct BulkBatches {
    small: Vec<Batch>,
    large: Batch,
}

enum Write {
    Insert(u64, u64),
    Remove(u64),
}

/// The ~128 entries around `k`: the leaf block a point operation on `k`
/// has to search or re-encode.
fn block_around(tree: &Tree, k: u64, n: usize) -> Vec<(u64, u64)> {
    let half = 64 * (KEY_SPAN / n as u64);
    tree.range_entries(&k.saturating_sub(half), &k.saturating_add(half))
}

/// One bulk round; returns the entries it processed.
fn bulk_round(
    tree: &mut Tree,
    other: &Tree,
    BulkBatches { small, large }: BulkBatches,
    check: &mut Check,
) -> u64 {
    let n = tree.len();
    let mut processed = 0u64;

    let u = tree.union(other);
    check.ok(u.len() == n + other.len());
    processed += (n + other.len()) as u64;
    drop(u);

    // Overwrites of stable keys: the tree keeps its size, so every
    // round sees the same shape.
    let mut t = std::mem::take(tree);
    for batch in small {
        processed += batch.len() as u64;
        t = t.multi_insert_owned(batch);
    }
    processed += large.len() as u64;
    t = t.multi_insert_owned(large);
    check.ok(t.len() == n);
    *tree = t;

    let kept = tree.filter(|k, _| k & 4 == 0);
    check.ok(kept.len() > n / 3 && kept.len() < n * 2 / 3);
    processed += n as u64;
    drop(kept);

    let count = tree.map_reduce(|_, _| 1u64, |a, b| a + b, 0);
    check.ok(count == n as u64);
    processed += n as u64;
    processed
}

pub fn run(ctx: &Ctx, mut rec: Option<&mut Recorder>) -> Outcome {
    let mut out = Outcome {
        clients: 1,
        ..Outcome::default()
    };
    let mut check = Check::default();
    let scale = ctx.scale;
    let n = scale.size(N);

    // --- Set-up: generate the keys and build the tree.
    let ((keys, mut tree), setup_s) = set_up_repeatedly(
        |_| {
            let keys = stable_keys(&mut Rng::new(ctx.seed, 1), n, None);
            let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, value_of(k, 0))).collect();
            let tree = Tree::from_sorted_pairs(BLOCK_SIZE, &pairs);
            (keys, tree)
        },
        drop,
    );
    check.ok(tree.len() == n);
    let mut plan = Plan::new(&keys);

    // --- Plans. Everything the phases will do is generated here, before
    // the first timed call; the first 1 % of each plan is its warm-up.
    // Reads: finds, 80 % hits.
    let finds = scale.calls(FINDS_PER_S, 0.3);
    let mut rng = Rng::new(ctx.seed, 2);
    let probes: Vec<u64> = (0..finds / 100 + finds)
        .map(|_| {
            if rng.below(10) < 8 {
                keys[rng.below(n as u64) as usize]
            } else {
                rng.miss_key()
            }
        })
        .collect();
    plan.hash.mix_all(&probes);
    let (warm_probes, probes) = probes.split_at(finds / 100);

    // Writes: single inserts (half overwrite a stable key at a new
    // generation, half add a fresh volatile key) and removes of volatile
    // keys inserted earlier, 4 : 1.
    let writes = scale.calls(WRITES_PER_S, 0.3);
    let mut rng = Rng::new(ctx.seed, 3);
    let mut inserted: Vec<u64> = Vec::new();
    let ops: Vec<Write> = (0..writes / 100 + writes)
        .map(|_| {
            let gen = plan.next_gen();
            if rng.below(5) == 0 && !inserted.is_empty() {
                let k = inserted.swap_remove(rng.below(inserted.len() as u64) as usize);
                plan.delete(k);
                Write::Remove(k)
            } else if rng.below(2) == 0 {
                let k = small_target(&mut rng, &keys);
                Write::Insert(k, plan.put(k, gen))
            } else {
                let k = rng.volatile_key();
                inserted.push(k);
                Write::Insert(k, plan.put(k, gen))
            }
        })
        .collect();
    let (warm_ops, ops) = ops.split_at(writes / 100);

    // Scans: windows of ~100 entries, and full scans.
    let windows = scale.calls(WINDOWS_PER_S, 0.2);
    let mut rng = Rng::new(ctx.seed, 4);
    let starts: Vec<usize> = (0..windows / 100 + windows)
        .map(|_| rng.below((n - 100) as u64) as usize)
        .collect();
    plan.hash
        .mix_all(&starts.iter().map(|&s| s as u64).collect::<Vec<_>>());
    let (warm_starts, starts) = starts.split_at(windows / 100);
    let full_scans = scale.calls(FULL_SCANS_PER_S, 0.2);

    // Bulk (traced runs only): union, batch inserts at 10^2 and 2.5·10^4,
    // filter, map-reduce, once each per round.
    let rounds = if rec.is_some() {
        scale.calls(BULK_ROUNDS_PER_S, 0.6)
    } else {
        0
    };
    let other_keys: Vec<u64> = stable_keys(&mut Rng::new(ctx.seed, 5), scale.size(UNION_M), None)
        .iter()
        .map(|k| k | 1)
        .collect();
    plan.hash.mix_all(&other_keys);
    let other = Tree::from_sorted_pairs(
        BLOCK_SIZE,
        &other_keys
            .iter()
            .map(|&k| (k, value_of(k, 0)))
            .collect::<Vec<_>>(),
    );
    let mut rng = Rng::new(ctx.seed, 6);
    let large_batch = scale.size(LARGE_BATCH);
    let mut batches: Vec<BulkBatches> = (0..rounds)
        .map(|_| {
            let gen = plan.next_gen();
            let mut batch = |len: usize| -> Batch {
                (0..len)
                    .map(|_| {
                        let k = bulk_target(&mut rng, &keys);
                        (k, plan.put(k, gen))
                    })
                    .collect()
            };
            BulkBatches {
                small: (0..SMALL_BATCHES).map(|_| batch(100)).collect(),
                large: batch(large_batch),
            }
        })
        .collect();
    batches.reverse();
    let max_gen = plan.max_gen;

    // --- The calls. A read may run after any write of the plan, so
    // values are checked against the plan's last generation.
    let find = |tree: &Tree, k: u64, check: &mut Check| match tree.find(&k) {
        Some(v) => check.ok(k & 1 == 0 && value_ok(k, v, max_gen)),
        None => check.ok(k & 1 == 1),
    };
    let apply = |tree: &mut Tree, op: &Write| {
        let t = std::mem::take(tree);
        *tree = match *op {
            Write::Insert(k, v) => t.insert_owned(k, v),
            Write::Remove(k) => t.remove_owned(&k),
        };
    };
    let window = |tree: &Tree, s: usize, check: &mut Check| {
        let got = tree.range_entries(&keys[s], &keys[s + 99]);
        check.ok(got.len() >= 100 && got[0].0 == keys[s] && value_ok(got[0].0, got[0].1, max_gen));
        got.len() as u64
    };
    for &k in warm_probes {
        find(&tree, k, &mut check);
    }
    for op in warm_ops {
        apply(&mut tree, op);
    }
    for &s in warm_starts {
        window(&tree, s, &mut check);
    }

    // --- A hundred laps, one slice of every phase per lap. A traced
    // run also runs a traced twin of each read slice, and bulk rounds.
    let mut read = Phase::new("read", finds);
    let mut traced_read = rec.is_some().then(|| Phase::new("read_traced", finds));
    let mut write = Phase::new("write", writes);
    let mut scan_windows = Phase::new("scan_windows", windows);
    let mut scan_full = Phase::new("scan_full", full_scans);
    let mut bulk = rec.is_some().then(|| Phase::new("bulk", rounds));
    for lap in 0..LAPS {
        // The traced twin reads the same probes half a phase out of
        // step (cold, like its sibling's), and the two swap places every
        // lap so neither always inherits the other's warm structure.
        for traced_turn in [lap % 2 == 1, lap % 2 == 0] {
            match traced_read.as_mut() {
                Some(traced) if traced_turn => traced.lap(
                    lap,
                    |_| SpanName::Get,
                    rec.as_deref_mut(),
                    |step| {
                        match step {
                            Step::Call(i) => {
                                find(&tree, probes[(i + finds / 2) % finds], &mut check)
                            }
                            // Every 64th find is replayed as one block's
                            // codec search, around yet another probe.
                            Step::Replay(i, root, rec) => {
                                let k = probes[(i + finds / 4) % finds];
                                let block = DeltaCodec::encode(&block_around(&tree, k, n));
                                rec.child(SpanName::CodecSearch, root, || {
                                    std::hint::black_box(
                                        DeltaCodec::search_by(&block, |e: &(u64, u64)| e.0.cmp(&k))
                                            .is_ok(),
                                    )
                                });
                            }
                        }
                        1
                    },
                ),
                _ if !traced_turn => read.lap(
                    lap,
                    |_| SpanName::Get,
                    None,
                    |step| {
                        if let Step::Call(i) = step {
                            find(&tree, probes[i], &mut check);
                        }
                        1
                    },
                ),
                _ => {}
            }
        }
        write.lap(
            lap,
            |_| SpanName::Put,
            rec.as_deref_mut(),
            |step| {
                match step {
                    Step::Call(i) => apply(&mut tree, &ops[i]),
                    Step::Replay(i, root, rec) => {
                        let (Write::Insert(k, _) | Write::Remove(k)) =
                            ops[(i + writes / 2) % writes];
                        let entries = block_around(&tree, k, n);
                        rec.child(SpanName::CodecEncode, root, || {
                            std::hint::black_box(DeltaCodec::encode(&entries));
                        });
                    }
                }
                1
            },
        );
        scan_windows.lap(
            lap,
            |_| SpanName::Scan,
            rec.as_deref_mut(),
            |step| match step {
                Step::Call(i) => window(&tree, starts[i], &mut check),
                Step::Replay(i, root, rec) => {
                    let block = DeltaCodec::encode(
                        &tree.range_entries(&keys[starts[i]], &keys[starts[i] + 99]),
                    );
                    rec.child(SpanName::CodecScan, root, || {
                        let mut sum = 0u64;
                        DeltaCodec::for_each(&block, &mut |e: &(u64, u64)| {
                            sum = sum.wrapping_add(e.1)
                        });
                        std::hint::black_box(sum);
                    });
                    0
                }
            },
        );
        scan_full.lap(
            lap,
            |_| SpanName::Scan,
            None,
            |_| {
                let mut count = 0u64;
                let mut bad = 0u64;
                for (k, v) in tree.iter() {
                    count += 1;
                    bad += !value_ok(k, v, max_gen) as u64;
                }
                check.ok(count == tree.len() as u64 && bad == 0);
                count
            },
        );
        if let Some(bulk) = bulk.as_mut() {
            bulk.lap(
                lap,
                |_| SpanName::Bulk,
                rec.as_deref_mut(),
                |step| match step {
                    Step::Call(_) => {
                        let round = batches.pop().expect("one batch set per round");
                        bulk_round(&mut tree, &other, round, &mut check)
                    }
                    Step::Replay(..) => 0,
                },
            );
        }
    }
    out.phases_done(&[&read, &write, &scan_windows, &scan_full]);

    // --- Space, and the full compare.
    let space = tree.space_stats();
    plan.oracle.compare(&tree.to_vec(), &mut check);

    out.e2e("setup_s", setup_s, "s");
    out.reads(&read);
    out.writes(&write, None);
    out.e2e(
        "scan_entries_per_s",
        rate_of(&[&scan_windows, &scan_full]),
        "entries/s",
    );
    out.e2e(
        "bytes_per_entry",
        space.total_bytes as f64 / space.entries as f64,
        "B",
    );

    if let (Some(traced), Some(bulk)) = (traced_read, bulk) {
        out.phases_done(&[&traced, &bulk]);
        out.trace_overhead(&read, &traced);
        out.layer("workload.bulk_entries_per_s", bulk.rate(), "entries/s");
        // No directory, no store, no server.
        out.not_exercised(&["workload.write_amp", "workload.open_ms"]);
        out.not_exercised(&COMMIT_WINDOWS);
        out.not_exercised(&POOL_WINDOWS);
        out.not_exercised(&SERVER_WINDOWS);
    }
    out.counts = vec![
        ("entries", n as u64),
        ("finds", finds as u64),
        ("writes", writes as u64),
        ("windows", windows as u64),
        ("full_scans", full_scans as u64),
        ("bulk_rounds", rounds as u64),
    ];
    out.check = check;
    out.op_hash = plan.hash.0;
    out
}
