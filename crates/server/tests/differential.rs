//! Differential tests for the wire protocol: random op sequences
//! driven through a *live* in-process server — real frames, real
//! connection threads, real group commit — and checked request-by-
//! request against a `BTreeMap` oracle.
//!
//! Every sequence also exercises the two failure paths a network
//! client actually hits: a mid-sequence reconnect (the client drops
//! its connection and redials; no state may leak across the redial)
//! and one torn-frame injection (a bit-flipped frame written on a raw
//! connection must come back as a typed `MalformedRequest` error and
//! kill only that connection, never the server).
//!
//! Any divergence panics with the exact reproducing seed, and setting
//! `PROPTEST_SEED=<n>` replays just that sequence. `DIFF_SERVER_CASES`
//! overrides the default volume (40 sequences).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::{
    serve_pipe, serve_tcp, Client, ClientError, ClientOptions, Dialer, ErrorCode, Request,
    Response, ServerHandle, ServerOptions,
};
use store::{Op, Router, ShardedStore, StoreOptions};

/// Keys are drawn a little past the routed span so the last shard's
/// open upper range is exercised through the wire too.
const KEY_SPAN: u64 = 96;

fn cases() -> u64 {
    std::env::var("DIFF_SERVER_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

fn env_seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse().ok())
}

fn client_opts() -> ClientOptions {
    ClientOptions {
        request_timeout: Duration::from_secs(10),
        ..ClientOptions::default()
    }
}

/// Flips a payload bit in an otherwise valid frame and writes it on a
/// raw connection: the server must answer with a typed
/// `MalformedRequest` error, then drop that connection (frame
/// boundaries are unrecoverable after a CRC failure).
fn inject_torn_frame(connector: &server::PipeConnector) -> Result<(), String> {
    let mut raw = connector.connect().map_err(|e| e.to_string())?;
    raw.set_read_timeout(Some(Duration::from_secs(10)));
    let mut bytes = store::wal::frame(&Request::<u64, u32>::Snapshot.encode());
    bytes[1] ^= 0x01; // first payload byte: CRC no longer matches
    raw.write_all(&bytes).map_err(|e| e.to_string())?;
    match server::read_frame(&mut raw) {
        Ok(payload) => match Response::<u64, u32>::decode(&payload) {
            Ok(Response::Error { code: ErrorCode::MalformedRequest, .. }) => {}
            other => return Err(format!("torn frame: unexpected response {other:?}")),
        },
        Err(e) => return Err(format!("torn frame: no error response ({e})")),
    }
    // The server hangs up after a framing error.
    match server::read_frame(&mut raw) {
        Err(server::FrameError::Closed) => Ok(()),
        other => Err(format!("torn frame: connection not dropped ({other:?})")),
    }
}

/// One randomized sequence through a live pipe server.
fn run_one(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = StoreOptions {
        block_size: 4,
        history_limit: 4,
        ..StoreOptions::default()
    };
    let shards = 1 + rng.gen_range(0..4usize);
    let store: ShardedStore<u64, u32> =
        ShardedStore::in_memory_with(Router::uniform_span(shards, KEY_SPAN), opts)
            .map_err(|e| e.to_string())?;
    let (mut handle, connector) = serve_pipe(store, ServerOptions::default());
    let mut client: Client<u64, u32> = Client::connect_pipe(connector.clone(), client_opts());

    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
    // Oracle state at the moment we pinned, for end-of-run `get_at`.
    let mut pinned: Option<(u64, BTreeMap<u64, u32>)> = None;

    let commits = 2 + rng.gen_range(0..6usize);
    let reconnect_at = rng.gen_range(0..commits);
    let torn_at = rng.gen_range(0..commits);
    let pin_at = rng.gen_range(0..commits);

    for c in 0..commits {
        if c == reconnect_at {
            client.reconnect();
        }
        if c == torn_at {
            inject_torn_frame(&connector)?;
        }

        let len = rng.gen_range(1..16usize);
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let k = rng.gen_range(0..KEY_SPAN + KEY_SPAN / 4);
            if rng.gen_range(0..10) < 7 {
                let v = rng.gen_range(0..1_000u32);
                oracle.insert(k, v);
                ops.push(Op::Put(k, v));
            } else {
                oracle.remove(&k);
                ops.push(Op::Delete(k));
            }
        }
        let version = client.put_batch(ops).map_err(|e| format!("commit {c}: {e}"))?;
        if version != c as u64 + 1 {
            return Err(format!("commit {c}: version {version}, expected {}", c + 1));
        }

        if c == pin_at {
            client.pin(version).map_err(|e| format!("pin {version}: {e}"))?;
            pinned = Some((version, oracle.clone()));
        }

        // Point probes, including misses.
        for _ in 0..4 {
            let k = rng.gen_range(0..KEY_SPAN + KEY_SPAN / 4);
            let got = client.get(k).map_err(|e| format!("get({k}): {e}"))?;
            if got != oracle.get(&k).copied() {
                return Err(format!(
                    "after commit {c}: get({k}) = {got:?}, oracle {:?}",
                    oracle.get(&k)
                ));
            }
        }

        // A random inclusive range, spanning shard boundaries, with a
        // random limit (0 = unlimited).
        let a = rng.gen_range(0..KEY_SPAN);
        let z = rng.gen_range(0..KEY_SPAN);
        let (lo, hi) = (a.min(z), a.max(z));
        let limit = rng.gen_range(0..8u64);
        let got = client
            .range(lo, hi, limit, None)
            .map_err(|e| format!("range [{lo},{hi}]: {e}"))?;
        let mut want: Vec<(u64, u32)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        if limit != 0 && want.len() as u64 > limit {
            want.truncate(limit as usize);
        }
        if got != want {
            return Err(format!(
                "after commit {c}: range [{lo}, {hi}] limit {limit} diverges\n  \
                 server: {got:?}\n  oracle: {want:?}"
            ));
        }

        // The version vector is consistent: the global version equals
        // the commit count, and each local is at most the global.
        let (global, locals) = client.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        if global != c as u64 + 1 {
            return Err(format!("after commit {c}: global {global} != {}", c + 1));
        }
        if locals.len() != shards || locals.iter().any(|&l| l > global) {
            return Err(format!(
                "after commit {c}: inconsistent version vector {locals:?} (global {global})"
            ));
        }
    }

    // The pinned version still reads exactly its commit-time contents,
    // even though history_limit=4 evicted its unpinned contemporaries.
    if let Some((version, ref at_pin)) = pinned {
        for _ in 0..6 {
            let k = rng.gen_range(0..KEY_SPAN + KEY_SPAN / 4);
            let got = client
                .get_at(k, Some(version))
                .map_err(|e| format!("get_at({k}, {version}): {e}"))?;
            if got != at_pin.get(&k).copied() {
                return Err(format!(
                    "pinned get_at({k}, {version}) = {got:?}, oracle-at-pin {:?}",
                    at_pin.get(&k)
                ));
            }
        }
        client.unpin(version).map_err(|e| format!("unpin {version}: {e}"))?;
    }

    // A version that fell off the (tiny) retained history is a typed
    // VersionNotFound through the wire, not a hang or a wrong answer.
    if commits as u64 > 4 + 1 {
        let evicted = 1u64;
        if pinned.as_ref().map(|(v, _)| *v) != Some(evicted) {
            match client.get_at(0, Some(evicted)) {
                Err(ClientError::Server { code: ErrorCode::VersionNotFound, .. }) => {}
                other => {
                    return Err(format!("evicted version read: expected typed miss, got {other:?}"))
                }
            }
        }
    }

    // The metrics scrape flows through the same wire path.
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    if !stats.contains("pacserve_requests_total") {
        return Err("stats scrape is missing pacserve_requests_total".into());
    }

    handle.shutdown();
    Ok(())
}

#[test]
fn server_matches_btreemap_oracle() {
    let (start, n) = match env_seed() {
        Some(seed) => (seed, 1),
        None => (0xD1FF_5E2Bu64.wrapping_mul(0x9E37_79B9_7F4A_7C15), cases()),
    };
    for case in 0..n {
        let seed = start.wrapping_add(case);
        if let Err(msg) = run_one(seed) {
            panic!(
                "server differential divergence: {msg}\n\
                 reproduce with: PROPTEST_SEED={seed} cargo test -p server --test differential"
            );
        }
    }
}

/// Garbage *inside* a valid frame (CRC passes, message does not parse)
/// must produce a typed error and keep the connection alive — the
/// stream is still framed, so the next request on the same connection
/// succeeds.
#[test]
fn malformed_message_keeps_the_connection() {
    let store: ShardedStore<u64, u32> = ShardedStore::in_memory_with(
        Router::uniform_span(2, KEY_SPAN),
        StoreOptions::default(),
    )
    .unwrap();
    let (mut handle, connector) = serve_pipe(store, ServerOptions::default());

    let mut raw = connector.connect().unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10)));
    // A framed message with a bogus opcode: intact on the wire,
    // nonsense at the protocol layer.
    raw.write_all(&store::wal::frame(&[server::WIRE_FORMAT, 0x7E])).unwrap();
    let payload = server::read_frame(&mut raw).unwrap();
    match Response::<u64, u32>::decode(&payload).unwrap() {
        Response::Error { code: ErrorCode::MalformedRequest, .. } => {}
        other => panic!("expected MalformedRequest, got {other:?}"),
    }
    // Same connection, now a well-formed request: still served.
    raw.write_all(&store::wal::frame(&Request::<u64, u32>::Snapshot.encode())).unwrap();
    let payload = server::read_frame(&mut raw).unwrap();
    match Response::<u64, u32>::decode(&payload).unwrap() {
        Response::Snapshot { global: 0, .. } => {}
        other => panic!("expected empty snapshot, got {other:?}"),
    }

    handle.shutdown();
}

/// A reader holding a pinned snapshot observes its version's exact
/// contents while concurrent writers commit through the same server,
/// over each transport: the in-process pipe and TCP on loopback.
#[test]
fn pinned_reader_is_isolated_from_concurrent_writers() {
    for serve in [serve_over_pipe, serve_over_tcp] {
        pinned_reader_isolation(serve);
    }
}

/// Serves `store` over the in-process pipe transport.
fn serve_over_pipe(store: ShardedStore<u64, u64>) -> (ServerHandle, Dialer) {
    let (handle, connector) = serve_pipe(store, ServerOptions::default());
    (handle, Dialer::Pipe(connector))
}

/// Serves `store` over TCP on an ephemeral loopback port. A failed bind
/// fails the test.
fn serve_over_tcp(store: ShardedStore<u64, u64>) -> (ServerHandle, Dialer) {
    let handle = serve_tcp(store, "127.0.0.1:0", ServerOptions::default())
        .expect("bind 127.0.0.1:0");
    let addr = handle.addr().expect("a tcp server has an address");
    (handle, Dialer::Tcp(addr))
}

/// A client on `dialer`, through the transport's own constructor.
fn connect(dialer: &Dialer) -> Client<u64, u64> {
    match dialer {
        Dialer::Tcp(addr) => Client::connect_tcp(*addr, client_opts()),
        Dialer::Pipe(connector) => Client::connect_pipe(connector.clone(), client_opts()),
    }
}

fn pinned_reader_isolation(serve: fn(ShardedStore<u64, u64>) -> (ServerHandle, Dialer)) {
    let store: ShardedStore<u64, u64> = ShardedStore::in_memory_with(
        Router::uniform_span(4, KEY_SPAN),
        StoreOptions { history_limit: 8, ..StoreOptions::default() },
    )
    .unwrap();
    let (mut handle, dialer) = serve(store);

    // Seed a known state and pin it.
    let mut writer = connect(&dialer);
    let base = writer
        .put_batch((0..KEY_SPAN).map(|k| Op::Put(k, k * 10)).collect())
        .unwrap();
    let mut reader = connect(&dialer);
    reader.pin(base).unwrap();

    // Writers hammer the same keys from four connections.
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let dialer = dialer.clone();
            std::thread::spawn(move || {
                let mut client = connect(&dialer);
                for i in 0..50u64 {
                    client
                        .put_batch(vec![Op::Put((w * 13 + i) % KEY_SPAN, w * 1_000 + i)])
                        .unwrap();
                }
            })
        })
        .collect();

    // Meanwhile the pinned view never moves.
    for probe in 0..40u64 {
        let k = (probe * 7) % KEY_SPAN;
        assert_eq!(
            reader.get_at(k, Some(base)).unwrap(),
            Some(k * 10),
            "pinned read of key {k} drifted while writers committed"
        );
    }
    for w in writers {
        w.join().unwrap();
    }

    // After the dust settles the live view has advanced past the pin.
    // (Concurrent batches share commit groups, so the global version
    // grows by the number of *groups*, not the number of batches.)
    let (global, locals) = reader.snapshot().unwrap();
    assert!(
        global > base && global <= base + 200,
        "global {global} outside (base, base+200] with base {base}"
    );
    assert!(locals.iter().all(|&l| l <= global));
    reader.unpin(base).unwrap();

    handle.shutdown();
}
