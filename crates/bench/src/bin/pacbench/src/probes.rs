//! Per-layer probes of a traced run: each times one layer's public
//! entry points on inputs drawn from the workload's key distribution
//! (sparse 40-bit keys, mixed 64-bit values, B = 128). The probes are
//! the same for every workload; what differs per workload are the
//! window metrics each workload file reports about its own phases.
//!
//! Times are means per call (the median of three rounds); counts are
//! deltas of the program's own public counters around the probe.

use std::path::Path;
use std::time::{Duration, Instant};

use codecs::{BlockIo, Codec, DeltaCodec, GammaCodec, RawCodec};
use cpam::{NoAug, PacMap};
use server::{
    read_frame, serve_pipe, write_frame, Client, ClientOptions, Request, Response, ServerOptions,
};
use store::{Op, PacStore, Router, ShardedStore, StoreOptions};

use crate::common::{store_options, Ctx, Outcome, BLOCK_SIZE};
use crate::gen::{stable_keys, value_of, Rng, KEY_SPAN};
use crate::measure::{hist_now, hist_p50_us, hist_since, median, quantile_ns, time};

type DeltaTree = PacMap<u64, u64, NoAug, DeltaCodec>;
type RawTree = PacMap<u64, u64, NoAug, RawCodec>;

/// Entries in the probe trees and stores.
const PROBE_N: usize = 400_000;

/// Mean nanoseconds per call of `f` over `iters` calls: the median of
/// three rounds.
fn per_call_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut rounds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut rounds)
}

fn pairs_of(keys: &[u64]) -> Vec<(u64, u64)> {
    keys.iter().map(|&k| (k, value_of(k, 0))).collect()
}

fn codecs_probes(keys: &[u64], out: &mut Outcome) {
    let blocks: Vec<Vec<(u64, u64)>> = keys
        .chunks_exact(BLOCK_SIZE)
        .take(256)
        .map(pairs_of)
        .collect();
    let key_blocks: Vec<Vec<u64>> = keys
        .chunks_exact(BLOCK_SIZE)
        .take(256)
        .map(<[u64]>::to_vec)
        .collect();
    let nb = blocks.len();
    let per_entry = BLOCK_SIZE as f64;
    let delta: Vec<_> = blocks.iter().map(|b| DeltaCodec::encode(b)).collect();
    let raw: Vec<_> = blocks.iter().map(|b| RawCodec::encode(b)).collect();
    let gamma: Vec<_> = key_blocks.iter().map(|b| GammaCodec::encode(b)).collect();

    out.layer(
        "codecs.delta_encode_ns_per_entry",
        per_call_ns(4 * nb, |i| {
            std::hint::black_box(DeltaCodec::encode(&blocks[i % nb]));
        }) / per_entry,
        "ns",
    );
    out.layer(
        "codecs.raw_encode_ns_per_entry",
        per_call_ns(4 * nb, |i| {
            std::hint::black_box(RawCodec::encode(&blocks[i % nb]));
        }) / per_entry,
        "ns",
    );
    let mut buf: Vec<(u64, u64)> = Vec::with_capacity(BLOCK_SIZE);
    out.layer(
        "codecs.delta_decode_ns_per_entry",
        per_call_ns(8 * nb, |i| {
            buf.clear();
            DeltaCodec::decode(&delta[i % nb], &mut buf);
            std::hint::black_box(buf.len());
        }) / per_entry,
        "ns",
    );
    out.layer(
        "codecs.delta_cursor_scan_ns_per_entry",
        per_call_ns(8 * nb, |i| {
            let mut sum = 0u64;
            DeltaCodec::for_each(&delta[i % nb], &mut |e: &(u64, u64)| {
                sum = sum.wrapping_add(e.1)
            });
            std::hint::black_box(sum);
        }) / per_entry,
        "ns",
    );
    let mut key_buf: Vec<u64> = Vec::with_capacity(BLOCK_SIZE);
    out.layer(
        "codecs.gamma_decode_ns_per_entry",
        per_call_ns(8 * nb, |i| {
            key_buf.clear();
            GammaCodec::decode(&gamma[i % nb], &mut key_buf);
            std::hint::black_box(key_buf.len());
        }) / per_entry,
        "ns",
    );
    // Search for a key at a position that moves through the block.
    let target = |i: usize| blocks[i % nb][(i * 37) % BLOCK_SIZE].0;
    out.layer(
        "codecs.delta_search_ns",
        per_call_ns(32 * nb, |i| {
            let k = target(i);
            std::hint::black_box(
                DeltaCodec::search_by(&delta[i % nb], |e: &(u64, u64)| e.0.cmp(&k)).is_ok(),
            );
        }),
        "ns",
    );
    out.layer(
        "codecs.raw_search_ns",
        per_call_ns(32 * nb, |i| {
            let k = target(i);
            std::hint::black_box(
                RawCodec::search_by(&raw[i % nb], |e: &(u64, u64)| e.0.cmp(&k)).is_ok(),
            );
        }),
        "ns",
    );
    let bytes = |total: usize| total as f64 / (nb * BLOCK_SIZE) as f64;
    out.layer(
        "codecs.delta_bytes_per_entry",
        bytes(
            delta
                .iter()
                .map(<DeltaCodec as Codec<(u64, u64)>>::heap_bytes)
                .sum(),
        ),
        "B",
    );
    out.layer(
        "codecs.gamma_bytes_per_entry",
        bytes(
            gamma
                .iter()
                .map(<GammaCodec as Codec<u64>>::heap_bytes)
                .sum(),
        ),
        "B",
    );
    let mut wire = Vec::new();
    out.layer(
        "codecs.blockio_write_ns_per_block",
        per_call_ns(8 * nb, |i| {
            wire.clear();
            <DeltaCodec as BlockIo<(u64, u64)>>::write_block(&delta[i % nb], &mut wire);
            std::hint::black_box(wire.len());
        }),
        "ns",
    );
    out.layer(
        "codecs.blockio_read_ns_per_block",
        per_call_ns(8 * nb, |_| {
            let mut pos = 0;
            std::hint::black_box(
                <DeltaCodec as BlockIo<(u64, u64)>>::read_block(&wire, &mut pos).is_ok(),
            );
        }),
        "ns",
    );
}

/// The bulk operations of `tree_inmem` on a probe-sized tree; returns
/// entries processed per second. Also run in a one-thread child
/// process for `parlay.bulk_speedup`.
pub fn bulk_rate(seed: u64, n: usize) -> f64 {
    let keys = stable_keys(&mut Rng::new(seed, 50), n, None);
    let tree = DeltaTree::from_sorted_pairs(BLOCK_SIZE, &pairs_of(&keys));
    let other = DeltaTree::from_sorted_pairs(
        BLOCK_SIZE,
        &pairs_of(&keys.iter().step_by(4).map(|k| k | 1).collect::<Vec<_>>()),
    );
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let (_, secs) = time(|| {
                std::hint::black_box(tree.union(&other).len());
                std::hint::black_box(tree.filter(|k, _| k & 4 == 0).len());
                std::hint::black_box(tree.map_reduce(|_, v| *v, u64::wrapping_add, 0));
            });
            (3 * n + other.len()) as f64 / secs
        })
        .collect();
    median(&mut rates)
}

fn cpam_probes(seed: u64, keys: &[u64], out: &mut Outcome) {
    let n = keys.len();
    let pairs = pairs_of(keys);
    let delta = DeltaTree::from_sorted_pairs(BLOCK_SIZE, &pairs);
    let raw = RawTree::from_sorted_pairs(BLOCK_SIZE, &pairs);
    let mut rng = Rng::new(seed, 51);
    let hits: Vec<u64> = (0..100_000.min(n))
        .map(|_| keys[rng.below(n as u64) as usize])
        .collect();

    let before = cpam::stats::read();
    let find_ns = per_call_ns(hits.len(), |i| {
        std::hint::black_box(delta.find(&hits[i]));
    });
    let finds = cpam::stats::read().delta(before);
    out.layer("cpam.find_ns", find_ns, "ns");
    out.layer(
        "cpam.cursor_ops_per_find",
        finds.cursor_ops as f64 / (3 * hits.len()) as f64,
        "count",
    );
    out.layer(
        "cpam.block_decodes_per_find",
        finds.block_decodes as f64 / (3 * hits.len()) as f64,
        "count",
    );
    out.layer(
        "cpam.find_raw_ns",
        per_call_ns(hits.len(), |i| {
            std::hint::black_box(raw.find(&hits[i]));
        }),
        "ns",
    );

    // Point writes. The owned variants run on trees nothing else holds,
    // so uniquely-owned nodes are rebuilt in place; the persistent one
    // keeps `delta` alive as a snapshot, so every insert copies a path.
    let writes = 4_000.min(n / 10);
    let fresh: Vec<u64> = (0..writes).map(|_| rng.volatile_key()).collect();
    let timed_writes = |f: &mut dyn FnMut(u64)| {
        let t = Instant::now();
        for &k in &fresh {
            f(k);
        }
        t.elapsed().as_nanos() as f64 / writes as f64
    };
    let mut owned = DeltaTree::from_sorted_pairs(BLOCK_SIZE, &pairs);
    let before = cpam::stats::read();
    let insert_ns =
        timed_writes(&mut |k| owned = std::mem::take(&mut owned).insert_owned(k, value_of(k, 1)));
    let inserts = cpam::stats::read().delta(before);
    out.layer("cpam.insert_owned_ns", insert_ns, "ns");
    out.layer(
        "cpam.block_encodes_per_insert",
        inserts.block_encodes as f64 / writes as f64,
        "count",
    );
    out.layer(
        "cpam.node_allocs_per_insert",
        inserts.node_allocs as f64 / writes as f64,
        "count",
    );
    out.layer("cpam.reuse_ratio", inserts.reuse_ratio(), "ratio");
    out.layer(
        "cpam.remove_owned_ns",
        timed_writes(&mut |k| owned = std::mem::take(&mut owned).remove_owned(&k)),
        "ns",
    );
    let mut owned_raw = RawTree::from_sorted_pairs(BLOCK_SIZE, &pairs);
    out.layer(
        "cpam.insert_owned_raw_ns",
        timed_writes(&mut |k| {
            owned_raw = std::mem::take(&mut owned_raw).insert_owned(k, value_of(k, 1))
        }),
        "ns",
    );
    drop(owned_raw);
    out.layer(
        "cpam.insert_persistent_ns",
        timed_writes(&mut |k| {
            std::hint::black_box(delta.insert(k, value_of(k, 1)).len());
        }),
        "ns",
    );

    // Batch writes, on the owned tree: overwrites of existing keys.
    let mut batch = |len: usize| -> Vec<(u64, u64)> {
        (0..len)
            .map(|_| (keys[rng.below(n as u64) as usize], 7))
            .collect()
    };
    let small: Vec<Vec<(u64, u64)>> = (0..30).map(|_| batch(100)).collect();
    let (_, secs) = time(|| {
        for b in small {
            owned = std::mem::take(&mut owned).multi_insert_owned(b);
        }
    });
    out.layer(
        "cpam.multi_insert_b100_ns_per_entry",
        secs * 1e9 / 3_000.0,
        "ns",
    );
    let large = batch(100_000.min(n / 4));
    let large_len = large.len() as f64;
    let (_, secs) = time(|| owned = std::mem::take(&mut owned).multi_insert_owned(large));
    out.layer(
        "cpam.multi_insert_b100k_ns_per_entry",
        secs * 1e9 / large_len,
        "ns",
    );
    drop(owned);

    // Bulk reads and set operations.
    let other = DeltaTree::from_sorted_pairs(
        BLOCK_SIZE,
        &pairs_of(&keys.iter().step_by(4).map(|k| k | 1).collect::<Vec<_>>()),
    );
    let half = delta.filter(|k, _| k & 4 == 0);
    let per_entry = |entries: usize, f: &mut dyn FnMut()| per_call_ns(1, |_| f()) / entries as f64;
    out.layer(
        "cpam.union_ns_per_entry",
        per_entry(n + other.len(), &mut || {
            std::hint::black_box(delta.union(&other).len());
        }),
        "ns",
    );
    out.layer(
        "cpam.intersect_ns_per_entry",
        per_entry(n + half.len(), &mut || {
            std::hint::black_box(delta.intersect_with(&half, |a, _| *a).len());
        }),
        "ns",
    );
    out.layer(
        "cpam.filter_ns_per_entry",
        per_entry(n, &mut || {
            std::hint::black_box(delta.filter(|k, _| k & 4 == 0).len());
        }),
        "ns",
    );
    out.layer(
        "cpam.map_reduce_ns_per_entry",
        per_entry(n, &mut || {
            std::hint::black_box(delta.map_reduce(|_, v| *v, u64::wrapping_add, 0));
        }),
        "ns",
    );
    out.layer(
        "cpam.build_sorted_ns_per_entry",
        per_entry(n, &mut || {
            std::hint::black_box(DeltaTree::from_sorted_pairs(BLOCK_SIZE, &pairs).len());
        }),
        "ns",
    );
    out.layer(
        "cpam.iter_ns_per_entry",
        per_entry(n, &mut || {
            std::hint::black_box(delta.iter().fold(0u64, |a, (_, v)| a.wrapping_add(v)));
        }),
        "ns",
    );
    let starts: Vec<usize> = (0..20_000.min(n / 4))
        .map(|_| rng.below((n - 100) as u64) as usize)
        .collect();
    out.layer(
        "cpam.range_ns_per_entry",
        per_call_ns(starts.len(), |i| {
            std::hint::black_box(
                delta
                    .range_entries(&keys[starts[i]], &keys[starts[i] + 99])
                    .len(),
            );
        }) / 100.0,
        "ns",
    );

    // Space: the paper's claim is PaC-Diff at about a quarter of PAM.
    let delta_bytes = delta.space_stats().total_bytes as f64;
    out.layer("cpam.heap_bytes_per_entry", delta_bytes / n as f64, "B");
    out.layer(
        "cpam.heap_bytes_per_entry_raw",
        raw.space_stats().total_bytes as f64 / n as f64,
        "B",
    );
    let pam_tree: pam::PamMap<u64, u64> = pam::PamMap::from_sorted_pairs(&pairs);
    out.layer(
        "cpam.pam_bytes_ratio",
        pam_tree.space_bytes() as f64 / delta_bytes,
        "ratio",
    );
}

fn parlay_probes(seed: u64, n: usize, out: &mut Outcome) {
    let joins = 200_000;
    let (_, secs) = time(|| {
        parlay::run(|| {
            for _ in 0..joins {
                parlay::join(|| std::hint::black_box(1u64), || std::hint::black_box(2u64));
            }
        })
    });
    out.layer("parlay.join_ns", secs * 1e9 / joins as f64, "ns");
    let mut rng = Rng::new(seed, 52);
    let unsorted: Vec<u64> = (0..2 * n).map(|_| rng.next_u64()).collect();
    let sort_ns = per_call_ns(1, |_| {
        let mut v = unsorted.clone();
        parlay::par_sort(&mut v);
        std::hint::black_box(v[0]);
    });
    out.layer("parlay.sort_ns_per_entry", sort_ns / (2 * n) as f64, "ns");

    // The same bulk operations at the pool's size here and on one
    // thread in a child process (the pool's size is fixed per process).
    let here = bulk_rate(seed, n);
    let one_thread = std::env::current_exe()
        .and_then(|exe| {
            std::process::Command::new(exe)
                .args(["bulk-rate", &seed.to_string(), &n.to_string()])
                .output()
        })
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<f64>()
                .ok()
        });
    out.layer(
        "parlay.bulk_speedup",
        one_thread.map_or(0.0, |one| here / one),
        "ratio",
    );
}

fn commit_batches(rng: &mut Rng, keys: &[u64], commits: usize, gen: u64) -> Vec<Vec<Op<u64, u64>>> {
    (0..commits)
        .map(|_| {
            (0..64)
                .map(|_| {
                    let k = keys[rng.below(keys.len() as u64) as usize];
                    Op::Put(k, value_of(k, gen))
                })
                .collect()
        })
        .collect()
}

/// Median latency in microseconds of committing each batch.
fn commit_p50_us(
    batches: Vec<Vec<Op<u64, u64>>>,
    mut commit: impl FnMut(Vec<Op<u64, u64>>) -> bool,
) -> f64 {
    let samples: Vec<u32> = batches
        .into_iter()
        .map(|b| {
            let t = Instant::now();
            assert!(commit(b), "probe commit failed");
            t.elapsed().as_nanos().min(u32::MAX as u128) as u32
        })
        .collect();
    quantile_ns(&samples, 0.5) / 1e3
}

fn store_probes(
    seed: u64,
    keys: &[u64],
    dir: &Path,
    smoke: bool,
    out: &mut Outcome,
) -> ShardedStore<u64, u64> {
    let n = keys.len();
    let mut rng = Rng::new(seed, 53);
    let preload = |commit: &dyn Fn(Vec<Op<u64, u64>>) -> bool| {
        for chunk in keys.chunks(100_000) {
            assert!(
                commit(chunk.iter().map(|&k| Op::Put(k, value_of(k, 0))).collect()),
                "probe preload failed"
            );
        }
    };

    // The 4-shard durable engine: reads, and the server probes' store.
    let sharded: ShardedStore<u64, u64> = ShardedStore::open_or_create(
        dir.join("probe-sharded"),
        Router::uniform_span(4, KEY_SPAN),
        store_options(None),
    )
    .expect("probe store");
    preload(&|ops| sharded.commit(ops).is_ok());
    let hits: Vec<u64> = (0..100_000.min(n))
        .map(|_| keys[rng.below(n as u64) as usize])
        .collect();
    out.layer(
        "store.snapshot_ns",
        per_call_ns(100_000, |_| {
            std::hint::black_box(sharded.snapshot().version());
        }),
        "ns",
    );
    out.layer(
        "store.get_ns",
        per_call_ns(hits.len(), |i| {
            std::hint::black_box(sharded.get(&hits[i]));
        }),
        "ns",
    );
    let starts: Vec<usize> = (0..20_000.min(n / 4))
        .map(|_| rng.below((n - 100) as u64) as usize)
        .collect();
    out.layer(
        "store.range_ns_per_entry",
        per_call_ns(starts.len(), |i| {
            std::hint::black_box(
                sharded
                    .range_entries(&keys[starts[i]], &keys[starts[i] + 99])
                    .len(),
            );
        }) / 100.0,
        "ns",
    );

    // The engine-merge referee: the same 64-op batches through
    // `PacStore` and through a one-shard `ShardedStore`.
    let commits = if smoke { 20 } else { 300 };
    let pac: PacStore<u64, u64> =
        PacStore::open_with(dir.join("probe-pac"), store_options(None)).expect("probe store");
    preload(&|ops| pac.commit(ops).is_ok());
    let single: ShardedStore<u64, u64> = ShardedStore::open_or_create(
        dir.join("probe-single"),
        Router::single(),
        store_options(None),
    )
    .expect("probe store");
    preload(&|ops| single.commit(ops).is_ok());
    let batches = commit_batches(&mut rng, keys, commits, 1);
    out.layer(
        "store.pacstore_commit_b64_us",
        commit_p50_us(batches.clone(), |b| pac.commit(b).is_ok()),
        "us",
    );
    out.layer(
        "store.sharded1_commit_b64_us",
        commit_p50_us(batches, |b| single.commit(b).is_ok()),
        "us",
    );
    drop(single);

    // Checkpoints: a full page, then an incremental one after 64 more
    // commits.
    let before = pac.lifecycle_stats();
    let (saved, secs) = time(|| pac.save());
    out.layer("store.save_ms", secs * 1e3, "ms");
    out.layer(
        "store.full_snapshot_bytes",
        pac.lifecycle_stats().delta(before).full_page_bytes as f64,
        "B",
    );
    for b in commit_batches(&mut rng, keys, 64, 2) {
        assert!(pac.commit(b).is_ok(), "probe commit failed");
    }
    let (_, secs) = time(|| {
        pac.save_incremental(saved.expect("probe save"))
            .expect("probe incremental save")
    });
    out.layer("store.save_incremental_ms", secs * 1e3, "ms");
    drop(pac);

    // The device flush, from the store's own histogram. Sandbox disk:
    // not a device figure.
    let fsync_opts = StoreOptions {
        fsync_commits: true,
        ..store_options(None)
    };
    let synced: PacStore<u64, u64> =
        PacStore::open_with(dir.join("probe-fsync"), fsync_opts).expect("probe store");
    let before = hist_now("pacstore_wal_fsync_ns");
    for b in commit_batches(&mut rng, keys, if smoke { 10 } else { 100 }, 1) {
        assert!(synced.commit(b).is_ok(), "probe commit failed");
    }
    out.layer(
        "store.wal_fsync_p50_us",
        hist_p50_us(&hist_since("pacstore_wal_fsync_ns", &before)),
        "us",
    );
    drop(synced);

    // Formats: a classic snapshot page and a log image, in memory.
    let tree = RawTree::from_sorted_pairs(BLOCK_SIZE, &pairs_of(keys));
    let mut page = Vec::new();
    out.layer(
        "store.encode_snapshot_ns_per_entry",
        per_call_ns(1, |_| page = store::encode_snapshot(&tree, 1)) / n as f64,
        "ns",
    );
    out.layer(
        "store.decode_snapshot_ns_per_entry",
        per_call_ns(1, |_| {
            std::hint::black_box(
                store::decode_snapshot::<RawTree>(&page)
                    .map(|(t, _)| t.len())
                    .unwrap_or(0),
            );
        }) / n as f64,
        "ns",
    );
    const SCHEMA: u32 = 0x5EED;
    let log: Vec<u8> = commit_batches(&mut rng, keys, if smoke { 50 } else { 2_000 }, 1)
        .iter()
        .enumerate()
        .flat_map(|(i, ops)| {
            store::wal::encode_record(i as u64 + 1, i as u64 + 1, &[], SCHEMA, ops)
        })
        .collect();
    let replay_ns = per_call_ns(1, |_| {
        std::hint::black_box(store::wal::replay::<u64, u64>(&log, SCHEMA).records.len());
    });
    out.layer(
        "store.replay_ms_per_mib",
        replay_ns / 1e6 / (log.len() as f64 / (1 << 20) as f64),
        "ms",
    );
    sharded
}

fn server_probes(
    seed: u64,
    keys: &[u64],
    store: ShardedStore<u64, u64>,
    smoke: bool,
    out: &mut Outcome,
) {
    let n = keys.len();
    let k = keys[n / 2];
    let req: Request<u64, u64> = Request::Get { key: k, at: None };
    let resp: Response<u64, u64> = Response::Value(Some(value_of(k, 0)));
    let (req_bytes, resp_bytes) = (req.encode(), resp.encode());
    let iters = 200_000;
    out.layer(
        "server.req_encode_ns",
        per_call_ns(iters, |_| {
            std::hint::black_box(req.encode());
        }),
        "ns",
    );
    out.layer(
        "server.req_decode_ns",
        per_call_ns(iters, |_| {
            std::hint::black_box(Request::<u64, u64>::decode(&req_bytes).is_ok());
        }),
        "ns",
    );
    out.layer(
        "server.resp_encode_ns",
        per_call_ns(iters, |_| {
            std::hint::black_box(resp.encode());
        }),
        "ns",
    );
    out.layer(
        "server.resp_decode_ns",
        per_call_ns(iters, |_| {
            std::hint::black_box(Response::<u64, u64>::decode(&resp_bytes).is_ok());
        }),
        "ns",
    );
    let mut wire = Vec::new();
    out.layer(
        "server.frame_write_ns",
        per_call_ns(iters, |_| {
            wire.clear();
            std::hint::black_box(write_frame(&mut wire, &req_bytes).is_ok());
        }),
        "ns",
    );
    out.layer(
        "server.frame_read_ns",
        per_call_ns(iters, |_| {
            std::hint::black_box(read_frame(&mut wire.as_slice()).is_ok());
        }),
        "ns",
    );

    let (mut handle, connector) = serve_pipe(store, ServerOptions::default());
    let dial = || {
        Client::<u64, u64>::connect_pipe(
            connector.clone(),
            ClientOptions {
                request_timeout: Duration::from_secs(60),
                ..ClientOptions::default()
            },
        )
    };
    let mut client = dial();
    assert!(client.get(k).is_ok(), "probe get failed");
    out.layer(
        "server.pipe_rtt_us",
        per_call_ns(if smoke { 200 } else { 5_000 }, |_| {
            std::hint::black_box(client.get(k).is_ok());
        }) / 1e3,
        "us",
    );
    drop(client);

    // ROADMAP's serialisation symptom: client-side put p50 at four
    // concurrent writers over put p50 at one.
    let puts = if smoke { 40 } else { 1_200 };
    let put_p50 = |writers: usize| -> f64 {
        let samples: Vec<u32> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..writers)
                .map(|w| {
                    let mut client = dial();
                    let mut rng = Rng::new(seed, 60 + w as u64);
                    scope.spawn(move || {
                        (0..puts)
                            .map(|_| {
                                let ops = (0..8)
                                    .map(|_| {
                                        let k = keys[rng.below(n as u64) as usize];
                                        Op::Put(k, value_of(k, 3))
                                    })
                                    .collect();
                                let t = Instant::now();
                                assert!(client.put_batch(ops).is_ok(), "probe put failed");
                                t.elapsed().as_nanos().min(u32::MAX as u128) as u32
                            })
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("probe writer"))
                .collect()
        });
        quantile_ns(&samples, 0.5)
    };
    let one = put_p50(1);
    out.layer(
        "server.put_p50_growth_c4_over_c1",
        put_p50(4) / one,
        "ratio",
    );
    handle.shutdown();
}

fn obs_probes(out: &mut Outcome) {
    let hist = obs::Histogram::new();
    let iters = 1_000_000;
    out.layer(
        "obs.hist_record_ns",
        per_call_ns(iters, |i| hist.record(i as u64 * 37)),
        "ns",
    );
    let counter = obs::global().counter("pacbench_probe_total");
    out.layer(
        "obs.counter_inc_ns",
        per_call_ns(iters, |_| counter.inc()),
        "ns",
    );
    out.layer(
        "obs.span_ns",
        per_call_ns(iters, |_| drop(obs::span!(hist))),
        "ns",
    );
    out.layer(
        "obs.snapshot_json_us",
        per_call_ns(20, |_| {
            std::hint::black_box(obs::global().snapshot_json().len());
        }) / 1e3,
        "us",
    );
}

/// Runs every probe and appends its metrics to `out.per_layer`.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let n = ctx.scale.size(PROBE_N);
    let keys = stable_keys(&mut Rng::new(ctx.seed, 50), n, None);
    codecs_probes(&keys, out);
    cpam_probes(ctx.seed, &keys, out);
    parlay_probes(ctx.seed, n, out);
    let store = store_probes(ctx.seed, &keys, &ctx.data_dir, ctx.scale.smoke, out);
    server_probes(ctx.seed, &keys, store, ctx.scale.smoke, out);
    obs_probes(out);
}
