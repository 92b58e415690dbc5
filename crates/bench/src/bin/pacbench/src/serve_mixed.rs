//! `serve_mixed`: an in-process `serve_pipe` server over a durable
//! 4-shard `ShardedStore`, driven by `min(nproc, 4)` closed-loop
//! clients with a 60 % get / 30 % `put_batch` of 8 / 10 % range mix.
//! The only workload that pays `server` framing, proto encode/decode,
//! transport wake-ups and cross-client group commit; the tree work per
//! request is tiny, so a `cpam` kernel gain should *not* move it and a
//! batching or framing gain should move only it. Latency is timed
//! client-side.
//!
//! Pipe, not TCP, is the transport: it is always available in a
//! sandbox, is the identical framed byte stream, and measures the
//! program rather than loopback scheduling.

use std::time::Duration;

use server::{
    read_frame, serve_pipe, write_frame, Client, ClientOptions, PipeConnector, Request, Response,
    ServerOptions,
};
use store::Op;

use crate::common::{set_up_repeatedly, Check, Ctx, Outcome, Plan};
use crate::gen::{stable_keys, value_ok, Rng};
use crate::kv::{block_half_width, CommitWindows, Kv, POOL_WINDOWS};
use crate::measure::{
    counter_now, flush_dir, hist_now, hist_p50_us, hist_since, median, quantile_ns, write_bytes,
    Phase, Step, REPLAY_EVERY,
};
use crate::store_durable::{close_and_verify, discard, preload, Store};
use crate::trace::{Recorder, SpanName};
use codecs::{Codec, RawCodec};

/// Most closed-loop clients: there are `min(nproc, MAX_CLIENTS)`, so
/// the harness never runs more threads than the box has cores.
const MAX_CLIENTS: usize = 4;
/// Keys preloaded, shared evenly among the clients.
const N: usize = 1_000_000;
/// Puts per `put_batch` of the mix.
const PUT_BATCH: usize = 8;
/// Entries a range request covers and its `limit`.
const RANGE_LEN: usize = 64;

// Frozen per-second call rate at the seed commit on the 2-core
// reference box: requests of all clients together.
const REQUESTS_PER_S: f64 = 11_800.0;

/// What the mixed phase's windows report: a workload without a server
/// declares these not exercised.
pub const SERVER_WINDOWS: [&str; 7] = [
    "server.handler_get_p50_us",
    "server.handler_put_p50_us",
    "server.client_overhead_get_us",
    "server.client_overhead_put_us",
    "server.bytes_in_per_req",
    "server.bytes_out_per_req",
    "server.versions_per_put_request",
];

enum Req {
    Get(u64),
    Put(Vec<Op<u64, u64>>),
    Range(u64, u64),
}

impl Req {
    fn span(&self) -> SpanName {
        match self {
            Req::Get(_) => SpanName::Get,
            Req::Put(_) => SpanName::Put,
            Req::Range(..) => SpanName::Scan,
        }
    }
}

fn client(connector: &PipeConnector) -> Client<u64, u64> {
    Client::connect_pipe(
        connector.clone(),
        ClientOptions {
            request_timeout: Duration::from_secs(60),
            ..ClientOptions::default()
        },
    )
}

/// One client's request stream: gets over everyone's keys, puts to its
/// own keys only (so every read stays checkable), ranges over 64
/// consecutive keys.
fn plan_stream(rng: &mut Rng, all: &[u64], own: &[u64], count: usize, plan: &mut Plan) -> Vec<Req> {
    (0..count)
        .map(|_| match rng.below(10) {
            0..=5 => {
                let k = if rng.below(5) == 0 {
                    rng.miss_key()
                } else {
                    all[rng.below(all.len() as u64) as usize]
                };
                plan.hash.mix(k);
                Req::Get(k)
            }
            6..=8 => {
                let gen = plan.next_gen();
                Req::Put(
                    (0..PUT_BATCH)
                        .map(|_| {
                            let k = own[rng.below(own.len() as u64) as usize];
                            Op::Put(k, plan.put(k, gen))
                        })
                        .collect(),
                )
            }
            _ => {
                let s = rng.below((all.len() - RANGE_LEN) as u64) as usize;
                plan.hash.mix(s as u64);
                Req::Range(all[s], all[s + RANGE_LEN - 1])
            }
        })
        .collect()
}

/// Performs one request and checks its answer.
fn perform(client: &mut Client<u64, u64>, req: &mut Req, max_gen: u64, check: &mut Check) {
    match req {
        Req::Get(k) => match client.get(*k) {
            Ok(Some(v)) => check.ok(*k & 1 == 0 && value_ok(*k, v, max_gen)),
            Ok(None) => check.ok(*k & 1 == 1),
            Err(_) => check.ok(false),
        },
        Req::Put(ops) => check.ok(client.put_batch(std::mem::take(ops)).is_ok()),
        Req::Range(lo, hi) => match client.range(*lo, *hi, RANGE_LEN as u64, None) {
            Ok(got) => check.ok(got.len() == RANGE_LEN
                && got[0].0 == *lo
                && value_ok(got[0].0, got[0].1, max_gen)),
            Err(_) => check.ok(false),
        },
    }
}

/// One direction of the wire, replayed on an in-memory buffer: proto
/// encode, frame write, frame read, proto decode.
fn replay_wire(
    rec: &mut Recorder,
    root: u32,
    (encode_span, decode_span): (SpanName, SpanName),
    encode: impl FnOnce() -> Vec<u8>,
    decode: impl FnOnce(&[u8]) -> bool,
) {
    let (_, payload) = rec.child(encode_span, root, encode);
    let mut wire = Vec::new();
    rec.child(SpanName::ServerFrameWrite, root, || {
        write_frame(&mut wire, &payload).is_ok()
    });
    let (_, framed) = rec.child(SpanName::ServerFrameRead, root, || {
        read_frame(&mut wire.as_slice()).unwrap_or_default()
    });
    rec.child(decode_span, root, || decode(&framed));
}

const REQUEST: (SpanName, SpanName) = (SpanName::ServerReqEncode, SpanName::ServerReqDecode);
const RESPONSE: (SpanName, SpanName) = (SpanName::ServerRespEncode, SpanName::ServerRespDecode);

/// Replays a get's path layer by layer: the request's wire steps, the
/// store read (with the tree and codec beneath it), the response's wire
/// steps.
fn replay_get(store: &Store, k: u64, n: usize, root: u32, rec: &mut Recorder) {
    let req: Request<u64, u64> = Request::Get { key: k, at: None };
    replay_wire(
        rec,
        root,
        REQUEST,
        || req.encode(),
        |b| Request::<u64, u64>::decode(b).is_ok(),
    );
    let (store_span, value) = rec.child(SpanName::StoreGet, root, || store.snapshot().get(&k));
    store.with_map(k, |map| {
        let (find, _) = rec.child(SpanName::CpamFind, store_span, || {
            std::hint::black_box(map.find(&k))
        });
        let half = block_half_width(n);
        let block =
            RawCodec::encode(&map.range_entries(&k.saturating_sub(half), &k.saturating_add(half)));
        rec.child(SpanName::CodecSearch, find, || {
            std::hint::black_box(RawCodec::search_by(&block, |e: &(u64, u64)| e.0.cmp(&k)).is_ok())
        });
    });
    let resp: Response<u64, u64> = Response::Value(value);
    replay_wire(
        rec,
        root,
        RESPONSE,
        || resp.encode(),
        |b| Response::<u64, u64>::decode(b).is_ok(),
    );
}

/// Replays a `put_batch`'s path. The store step commits the same ops
/// again: the values are a function of key and generation, and only
/// this client writes these keys, so the store's contents do not change.
fn replay_put(store: &Store, ops: &[Op<u64, u64>], n: usize, root: u32, rec: &mut Recorder) {
    let req: Request<u64, u64> = Request::PutBatch(ops.to_vec());
    replay_wire(
        rec,
        root,
        REQUEST,
        || req.encode(),
        |b| Request::<u64, u64>::decode(b).is_ok(),
    );
    let (commit, version) = rec.child(SpanName::StoreCommit, root, || {
        store.commit(ops.to_vec()).unwrap_or(0)
    });
    let batch: Vec<(u64, u64)> = ops
        .iter()
        .filter_map(|op| {
            if let Op::Put(k, v) = *op {
                Some((k, v))
            } else {
                None
            }
        })
        .collect();
    if let Some(&(k, _)) = batch.first() {
        store.with_map(k, |map| {
            let (insert, _) = rec.child(SpanName::CpamInsert, commit, || {
                std::hint::black_box(map.multi_insert(batch).len())
            });
            let half = block_half_width(n);
            let entries = map.range_entries(&k.saturating_sub(half), &k.saturating_add(half));
            rec.child(SpanName::CodecEncode, insert, || {
                std::hint::black_box(RawCodec::encode(&entries));
            });
        });
    }
    let resp: Response<u64, u64> = Response::Committed(version);
    replay_wire(
        rec,
        root,
        RESPONSE,
        || resp.encode(),
        |b| Response::<u64, u64>::decode(b).is_ok(),
    );
}

/// What the mixed phase measured, over all clients: a rate is the
/// median slice's (see `measure.rs`), a percentile is over all samples.
struct Mixed {
    gets_per_s: f64,
    put_keys_per_s: f64,
    range_entries_per_s: f64,
    /// `[p50, p99]` in microseconds.
    get_us: [f64; 2],
    put_us: [f64; 2],
    gets: u64,
    puts: u64,
    seconds: f64,
    /// Requests per second of all clients together: the median slice's.
    requests_per_s: f64,
}

/// Runs every client's stream concurrently, each a closed loop on its
/// own connection. The first 1 % of each stream is an untimed warm-up
/// (it also dials the connection). Client 0 carries the recorder.
fn mixed_phase(
    connector: &PipeConnector,
    store: &Store,
    plans: Vec<Vec<Req>>,
    n: usize,
    max_gen: u64,
    mut rec: Option<&mut Recorder>,
    check: &mut Check,
) -> Mixed {
    let results: Vec<(Vec<Req>, Phase, Check)> = std::thread::scope(|scope| {
        let workers: Vec<_> = plans
            .into_iter()
            .enumerate()
            .map(|(c, mut reqs)| {
                let rec = if c == 0 { rec.take() } else { None };
                scope.spawn(move || {
                    let mut check = Check::default();
                    let mut client = client(connector);
                    let warm = reqs.len() / 101;
                    let timed = reqs.split_off(warm);
                    for mut req in reqs {
                        perform(&mut client, &mut req, max_gen, &mut check);
                    }
                    // Replays read the request after `perform` emptied
                    // a put's ops, so puts keep a copy when traced.
                    let copies: Vec<Option<Vec<Op<u64, u64>>>> = timed
                        .iter()
                        .enumerate()
                        .map(|(i, r)| match r {
                            Req::Put(ops) if rec.is_some() && i % REPLAY_EVERY == 0 => {
                                Some(ops.clone())
                            }
                            _ => None,
                        })
                        .collect();
                    let mut timed = timed;
                    let names: Vec<SpanName> = timed.iter().map(Req::span).collect();
                    let mut phase = Phase::new("mixed", timed.len());
                    phase.run(
                        |i| names[i],
                        rec,
                        |step| {
                            match step {
                                Step::Call(i) => {
                                    perform(&mut client, &mut timed[i], max_gen, &mut check)
                                }
                                Step::Replay(i, root, rec) => match (&timed[i], &copies[i]) {
                                    (Req::Get(_), _) => {
                                        // The key of a get half a stream away, which this
                                        // client has not just read (see `kv::read_phase`).
                                        let far = (i + timed.len() / 2) % timed.len();
                                        let key = (far..timed.len()).chain(0..far).find_map(|j| {
                                            match timed[j] {
                                                Req::Get(k) => Some(k),
                                                _ => None,
                                            }
                                        });
                                        if let Some(k) = key {
                                            replay_get(store, k, n, root, rec);
                                        }
                                    }
                                    (Req::Put(_), Some(ops)) => {
                                        replay_put(store, ops, n, root, rec)
                                    }
                                    _ => {}
                                },
                            }
                            1
                        },
                    );
                    (timed, phase, check)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });

    // Per slice, each op type's rate is the sum of the clients' rates;
    // latency samples are the clients' pooled.
    let slices = results.first().map_or(0, |(_, phase, _)| phase.slices());
    let mut rates = vec![vec![0f64; slices]; 4];
    let (mut get_ns, mut put_ns) = (Vec::new(), Vec::new());
    let mut seconds = 0f64;
    for (reqs, phase, client_check) in results {
        check.absorb(client_check);
        for s in 0..slices {
            let mut units = [0u64; 4];
            for (req, &ns) in reqs[phase.bounds(s)]
                .iter()
                .zip(&phase.samples_ns[phase.bounds(s)])
            {
                match req {
                    Req::Get(_) => {
                        units[0] += 1;
                        get_ns.push(ns);
                    }
                    Req::Put(_) => {
                        units[1] += PUT_BATCH as u64;
                        put_ns.push(ns);
                    }
                    Req::Range(..) => units[2] += RANGE_LEN as u64,
                }
                units[3] += 1;
            }
            for t in 0..4 {
                rates[t][s] += units[t] as f64 / phase.done[s].1;
            }
        }
        seconds = seconds.max(phase.seconds());
    }
    let [gets_per_s, put_keys_per_s, range_entries_per_s, requests_per_s] =
        [0, 1, 2, 3].map(|t| median(&mut rates[t]));
    let quantiles = |ns: &[u32]| [0.50, 0.99].map(|q| quantile_ns(ns, q) / 1e3);
    Mixed {
        gets_per_s,
        put_keys_per_s,
        range_entries_per_s,
        get_us: quantiles(&get_ns),
        put_us: quantiles(&put_ns),
        gets: get_ns.len() as u64,
        puts: put_ns.len() as u64,
        seconds,
        requests_per_s,
    }
}

pub fn run(ctx: &Ctx, rec: Option<&mut Recorder>) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.min(MAX_CLIENTS);
    let mut out = Outcome {
        clients,
        ..Outcome::default()
    };
    let mut check = Check::default();
    let scale = ctx.scale;
    let n = scale.size(N) / clients * clients;

    // --- Set-up: each client's keys, merged and preloaded.
    let ((own, all, store, dir), setup_s) = set_up_repeatedly(
        |round| {
            let dir = ctx.data_dir.join(format!("serve-{round}"));
            let own: Vec<Vec<u64>> = (0..clients)
                .map(|c| {
                    stable_keys(
                        &mut Rng::new(ctx.seed, 10 + c as u64),
                        n / clients,
                        Some((c as u64, clients as u64)),
                    )
                })
                .collect();
            let mut all: Vec<u64> = own.iter().flatten().copied().collect();
            all.sort_unstable();
            let store = preload(&dir, &all, &mut check);
            (own, all, store, dir)
        },
        |(_, _, store, dir)| discard(store, &dir),
    );
    flush_dir(&dir);
    let mut plan = Plan::new(&all);
    let (mut handle, connector) = serve_pipe(store.clone(), ServerOptions::default());

    // --- Mixed phase. A traced run does it twice, untraced first: the
    // pair gives the tracing overhead.
    let per_client = scale.calls(REQUESTS_PER_S / clients as f64, 1.0);
    let streams = |round: u64, plan: &mut Plan| -> Vec<Vec<Req>> {
        (0..clients)
            .map(|c| {
                let mut rng = Rng::new(ctx.seed, 100 * round + 20 + c as u64);
                plan_stream(&mut rng, &all, &own[c], per_client + per_client / 100, plan)
            })
            .collect()
    };
    let first = streams(1, &mut plan);
    let second = rec.is_some().then(|| streams(2, &mut plan));
    let max_gen = plan.max_gen;
    // Generations are handed out before either round runs, so a read
    // may not yet see the latest; the bound still holds for all.
    let hists = ["get", "put_batch"].map(|op| obs::labeled("pacserve_request_ns", &[("op", op)]));
    let windows = CommitWindows::open(store.lifecycle_stats());
    let hists_before: Vec<_> = hists.iter().map(|h| hist_now(h)).collect();
    let counters = [
        "pacserve_bytes_in_total",
        "pacserve_bytes_out_total",
        "pacserve_requests_total",
    ];
    let counters_before: Vec<u64> = counters.iter().map(|c| counter_now(c)).collect();
    let version_before = store.current_version();
    let bytes_before = write_bytes(store.lifecycle_stats().wal_bytes_truncated);
    let mixed = mixed_phase(&connector, &store, first, n, max_gen, None, &mut check);
    let written = write_bytes(store.lifecycle_stats().wal_bytes_truncated) - bytes_before;
    let versions = store.current_version() - version_before;
    let life_after = store.lifecycle_stats();
    let handler: Vec<_> = hists
        .iter()
        .zip(&hists_before)
        .map(|(h, b)| hist_since(h, b))
        .collect();
    let counted: Vec<u64> = counters
        .iter()
        .zip(&counters_before)
        .map(|(c, b)| counter_now(c) - b)
        .collect();
    out.phases.push((
        "mixed",
        per_client * clients,
        mixed.seconds,
        (per_client * clients) as f64 / mixed.requests_per_s,
    ));
    let traced =
        second.map(|plans| mixed_phase(&connector, &store, plans, n, max_gen, rec, &mut check));

    // --- Shut the server down, compact, measure space, reopen, compare.
    handle.shutdown();
    drop(handle);
    let reopens = if traced.is_some() { 5 } else { 1 };
    let (bytes_per_entry, open_ms) = close_and_verify(store, &dir, reopens, &plan, &mut check);

    out.e2e("setup_s", setup_s, "s");
    out.e2e("get_ops_per_s", mixed.gets_per_s, "ops/s");
    out.layer("workload.get_p50_us", mixed.get_us[0], "us");
    out.layer("workload.get_p99_us", mixed.get_us[1], "us");
    out.e2e("put_keys_per_s", mixed.put_keys_per_s, "keys/s");
    out.layer("workload.put_p50_us", mixed.put_us[0], "us");
    out.layer("workload.put_p99_us", mixed.put_us[1], "us");
    out.samples.push(("workload.get_p50_us", mixed.gets));
    out.samples.push(("workload.put_p50_us", mixed.puts));
    out.e2e("scan_entries_per_s", mixed.range_entries_per_s, "entries/s");
    out.e2e("bytes_per_entry", bytes_per_entry, "B");

    if let Some(traced) = traced {
        out.layer(
            "workload.write_amp",
            written as f64 / (16.0 * (mixed.puts * PUT_BATCH as u64) as f64),
            "ratio",
        );
        out.layer("workload.open_ms", open_ms, "ms");
        // No bulk phase (a large `put_batch` is one more commit), no pool.
        out.not_exercised(&["workload.bulk_entries_per_s"]);
        out.not_exercised(&POOL_WINDOWS);
        out.layer(
            "obs.trace_overhead_pct",
            (mixed.gets_per_s - traced.gets_per_s) / mixed.gets_per_s * 100.0,
            "%",
        );
        windows.report(life_after, mixed.puts * PUT_BATCH as u64, &mut out);
        let (handler_get, handler_put) = (hist_p50_us(&handler[0]), hist_p50_us(&handler[1]));
        out.layer("server.handler_get_p50_us", handler_get, "us");
        out.layer("server.handler_put_p50_us", handler_put, "us");
        out.layer(
            "server.client_overhead_get_us",
            mixed.get_us[0] - handler_get,
            "us",
        );
        out.layer(
            "server.client_overhead_put_us",
            mixed.put_us[0] - handler_put,
            "us",
        );
        let requests = counted[2].max(1) as f64;
        out.layer("server.bytes_in_per_req", counted[0] as f64 / requests, "B");
        out.layer(
            "server.bytes_out_per_req",
            counted[1] as f64 / requests,
            "B",
        );
        // 1.0 means every put request got a version of its own: no two
        // clients' batches were ever committed as one group.
        out.layer(
            "server.versions_per_put_request",
            versions as f64 / mixed.puts.max(1) as f64,
            "ratio",
        );
    }
    out.counts = vec![
        ("entries", n as u64),
        ("requests_per_client", per_client as u64),
    ];
    out.check = check;
    out.op_hash = plan.hash.0;
    out
}
