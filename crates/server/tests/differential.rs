//! Differential tests for the wire protocol: seeded scripts of the
//! store world (`store/tests/world/mod.rs`) through a *live* in-process
//! server — real frames, connection threads and group commit — checked
//! step by step against the world's oracle. The server's target adds the
//! two failure paths a network client hits: a mid-script reconnect (no
//! state may leak across the redial) and a torn frame on a raw
//! connection, which must get a typed `MalformedRequest` and kill only
//! that connection, never the server.

#[path = "../../store/tests/world/mod.rs"]
mod world;

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Duration;

use server::{
    serve_pipe, serve_tcp, Client, ClientError, ClientOptions, Dialer, ErrorCode, PipeConnector,
    Request, Response, ServerHandle, ServerOptions,
};
use store::{Op, Router, ShardedStore, StoreOptions};
use world::{check, replay, AtVersion, Config, Entries, Key, Mix, Script, Target, Val, NONE};

/// Keys are drawn a little past the routed span so the last shard's
/// open upper range is exercised through the wire too.
const KEY_SPAN: u64 = 96;

const SERVER: Mix = Mix {
    commit: 45,
    pin: 10,
    unpin: 5,
    probe: 40,
    steps: 4..14,
    keys: KEY_SPAN,
    batch: 1..16,
    ..NONE
};

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
fn inject_torn_frame(connector: &PipeConnector) -> Result<(), String> {
    let mut raw = connector.connect().map_err(|e| e.to_string())?;
    raw.set_read_timeout(Some(Duration::from_secs(10)));
    let mut bytes = store::wal::frame(&Request::<u64, u32>::Snapshot.encode());
    bytes[1] ^= 0x01; // first payload byte: CRC no longer matches
    raw.write_all(&bytes).map_err(|e| e.to_string())?;
    match server::read_frame(&mut raw) {
        Ok(payload) => match Response::<u64, u32>::decode(&payload) {
            Ok(Response::Error {
                code: ErrorCode::MalformedRequest,
                ..
            }) => {}
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

/// A pipe client of a live server over an in-memory store: every read
/// and write goes through the wire.
struct Wire {
    store: ShardedStore<Key, Val>,
    client: RefCell<Client<Key, Val>>,
    connector: PipeConnector,
    _server: ServerHandle,
    /// State checks so far: the reconnect and the torn frame come
    /// before the ones the seed picks.
    checks: Cell<u64>,
    reconnect_at: u64,
    torn_at: u64,
}

impl Wire {
    fn start(cfg: &Config, seed: u64) -> Result<Wire, String> {
        let store = cfg.in_memory(KEY_SPAN)?;
        let (server, connector) = serve_pipe(store.clone(), ServerOptions::default());
        Ok(Wire {
            store,
            client: RefCell::new(Client::connect_pipe(connector.clone(), client_opts())),
            connector,
            _server: server,
            checks: Cell::new(0),
            reconnect_at: 1 + seed % 3,
            torn_at: 1 + (seed >> 16) % 3,
        })
    }

    fn call<T>(
        &self,
        what: &str,
        f: impl FnOnce(&mut Client<Key, Val>) -> Result<T, ClientError>,
    ) -> Result<T, String> {
        f(&mut self.client.borrow_mut()).map_err(|e| format!("{what}: {e}"))
    }

    /// A read at a version, `VersionNotFound` through the wire as `None`.
    fn at<T>(
        &self,
        what: &str,
        f: impl FnOnce(&mut Client<Key, Val>) -> Result<T, ClientError>,
    ) -> AtVersion<T> {
        match f(&mut self.client.borrow_mut()) {
            Ok(t) => Ok(Some(t)),
            Err(ClientError::Server {
                code: ErrorCode::VersionNotFound,
                ..
            }) => Ok(None),
            Err(e) => Err(format!("{what}: {e}")),
        }
    }
}

impl Target for Wire {
    /// The served store: only the list of retained versions, which the
    /// protocol does not carry, comes from it.
    fn engine(&self) -> &ShardedStore<Key, Val> {
        &self.store
    }
    fn commit(&self, ops: Vec<Op<Key, Val>>) -> Result<u64, String> {
        self.call("put_batch", |c| c.put_batch(ops))
    }
    /// Also checks the version vector: one local per shard, none past
    /// the global version.
    fn current_version(&self) -> Result<u64, String> {
        let n = self.checks.replace(self.checks.get() + 1);
        if n == self.reconnect_at {
            self.client.borrow_mut().reconnect();
        }
        if n == self.torn_at {
            inject_torn_frame(&self.connector)?;
        }
        let (global, locals) = self.call("snapshot", |c| c.snapshot())?;
        if locals.len() != self.store.shard_count() || locals.iter().any(|&l| l > global) {
            return Err(format!(
                "inconsistent version vector {locals:?} (global {global})"
            ));
        }
        Ok(global)
    }
    fn len(&self) -> Result<usize, String> {
        Ok(self.range(0, Key::MAX, None)?.len())
    }
    fn entries(&self, at: Option<u64>) -> AtVersion<Entries> {
        self.at("range", |c| c.range(0, Key::MAX, 0, at))
    }
    fn get(&self, key: Key, at: Option<u64>) -> AtVersion<Option<Val>> {
        self.at("get", |c| c.get_at(key, at))
    }
    fn range(&self, lo: Key, hi: Key, limit: Option<usize>) -> Result<Entries, String> {
        self.call("range", |c| {
            c.range(lo, hi, limit.map_or(0, |n| n as u64), None)
        })
    }
    fn pin(&self, version: u64) -> Result<(), String> {
        self.call("pin", |c| c.pin(version))
    }
    fn unpin(&self, version: u64) -> Result<(), String> {
        self.call("unpin", |c| c.unpin(version))
    }
}

#[test]
fn server_matches_btreemap_oracle() {
    for shards in 1..=4 {
        let cfg = Config {
            shards,
            b: 4,
            pool_pages: None,
            history: 4,
        };
        check(
            &format!("server_matches_btreemap_oracle, {shards} shards"),
            10,
            |seed| Script::generate(seed, &SERVER),
            |script| {
                let done = replay(script, &cfg, || Wire::start(&cfg, script.seed))?;
                // The metrics scrape flows through the same wire path.
                let stats = done.target.call("stats", |c| c.stats())?;
                if stats.contains("pacserve_requests_total") {
                    Ok(())
                } else {
                    Err("stats scrape is missing pacserve_requests_total".into())
                }
            },
        );
    }
}

/// Garbage *inside* a valid frame (CRC passes, message does not parse)
/// must produce a typed error and keep the connection alive — the
/// stream is still framed, so the next request on the same connection
/// succeeds.
#[test]
fn malformed_message_keeps_the_connection() {
    let store: ShardedStore<u64, u32> =
        ShardedStore::in_memory_with(Router::uniform_span(2, KEY_SPAN), StoreOptions::default())
            .unwrap();
    let (mut handle, connector) = serve_pipe(store, ServerOptions::default());

    let mut raw = connector.connect().unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10)));
    // A framed message with a bogus opcode: intact on the wire,
    // nonsense at the protocol layer.
    raw.write_all(&store::wal::frame(&[server::WIRE_FORMAT, 0x7E]))
        .unwrap();
    let payload = server::read_frame(&mut raw).unwrap();
    match Response::<u64, u32>::decode(&payload).unwrap() {
        Response::Error {
            code: ErrorCode::MalformedRequest,
            ..
        } => {}
        other => panic!("expected MalformedRequest, got {other:?}"),
    }
    // Same connection, now a well-formed request: still served.
    raw.write_all(&store::wal::frame(&Request::<u64, u32>::Snapshot.encode()))
        .unwrap();
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
    let handle =
        serve_tcp(store, "127.0.0.1:0", ServerOptions::default()).expect("bind 127.0.0.1:0");
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
        StoreOptions {
            history_limit: 8,
            ..StoreOptions::default()
        },
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
