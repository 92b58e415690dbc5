//! The serving loop: connection-per-thread request dispatch into a
//! [`ShardedStore`], with graceful drain on shutdown.
//!
//! Threading model: one accept thread per server plus one thread per
//! live connection. Writers funnel into the store's group-commit
//! pipeline — concurrent `put_batch` requests from different
//! connections land in one commit group, so the WAL sees one append
//! per *group*, not per request. Readers never block writers: every
//! read request pins a consistent version-vector snapshot
//! ([`ShardedStore::snapshot`] is one `Arc` clone) and serves from it.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] stops the
//! accept loop, then every connection thread finishes the request it
//! is serving (connection loops poll the shutdown flag between
//! frames) and exits; the handle waits for that drain up to
//! [`ServerOptions::drain_timeout`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codecs::BlockIo;
use obs::{Counter, Gauge, Histogram};
use store::{ShardedStore, StoreKey, StoreValue};

use crate::frame::{self, FrameError};
use crate::proto::{ErrorCode, ProtoError, Request, Response};
use crate::transport::{pipe_channel, PipeConnector, Transport};

/// Tuning knobs for a server.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// How long a connection thread blocks waiting for the next frame
    /// before re-checking the shutdown flag. Lower = faster shutdown,
    /// higher = fewer wakeups.
    pub read_poll: Duration,
    /// How long [`ServerHandle::shutdown`] waits for in-flight
    /// requests to drain before giving up on stragglers.
    pub drain_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            read_poll: Duration::from_millis(25),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Pre-resolved [`obs::global`] handles for the request path, same
/// zero-overhead policy as `store::metrics`: the registry lock is
/// never touched after construction. All series are prefixed
/// `pacserve_`.
struct ServerMetrics {
    /// Per-op request latency, `pacserve_request_ns{op=...}` — frame
    /// read to response flushed.
    put_batch: Arc<Histogram>,
    get: Arc<Histogram>,
    range: Arc<Histogram>,
    snapshot: Arc<Histogram>,
    pin: Arc<Histogram>,
    unpin: Arc<Histogram>,
    stats: Arc<Histogram>,
    /// Requests currently being served, across all connections.
    in_flight: Arc<Gauge>,
    /// Wire bytes received / sent (frame overhead included).
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// Requests served (errors included) and error responses sent.
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    /// Connections ever accepted.
    connections: Arc<Counter>,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let r = obs::global();
        let op_hist =
            |op: &str| r.histogram(&obs::labeled("pacserve_request_ns", &[("op", op)]));
        ServerMetrics {
            put_batch: op_hist("put_batch"),
            get: op_hist("get"),
            range: op_hist("range"),
            snapshot: op_hist("snapshot"),
            pin: op_hist("pin"),
            unpin: op_hist("unpin"),
            stats: op_hist("stats"),
            in_flight: r.gauge("pacserve_in_flight_requests"),
            bytes_in: r.counter("pacserve_bytes_in_total"),
            bytes_out: r.counter("pacserve_bytes_out_total"),
            requests: r.counter("pacserve_requests_total"),
            errors: r.counter("pacserve_request_errors_total"),
            connections: r.counter("pacserve_connections_total"),
        }
    }

    fn request_hist(&self, req_op: &str) -> &Arc<Histogram> {
        match req_op {
            "put_batch" => &self.put_batch,
            "get" => &self.get,
            "range" => &self.range,
            "snapshot" => &self.snapshot,
            "pin" => &self.pin,
            "unpin" => &self.unpin,
            _ => &self.stats,
        }
    }
}

/// Shutdown flag plus live-connection accounting, shared by the
/// accept loop, every connection thread, and the handle.
struct Control {
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    drained: Mutex<()>,
    drained_cv: Condvar,
}

impl Control {
    fn new() -> Arc<Control> {
        Arc::new(Control {
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            drained: Mutex::new(()),
            drained_cv: Condvar::new(),
        })
    }

    fn conn_started(&self) {
        self.active_conns.fetch_add(1, Ordering::SeqCst);
    }

    fn conn_finished(&self) {
        self.active_conns.fetch_sub(1, Ordering::SeqCst);
        self.drained_cv.notify_all();
    }
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (stop accepting, drain in-flight requests).
pub struct ServerHandle {
    control: Arc<Control>,
    accept_thread: Option<JoinHandle<()>>,
    addr: Option<std::net::SocketAddr>,
    drain_timeout: Duration,
}

impl ServerHandle {
    /// The bound socket address (TCP servers only).
    pub fn addr(&self) -> Option<std::net::SocketAddr> {
        self.addr
    }

    /// Stops accepting, lets in-flight requests finish, and waits for
    /// every connection thread to exit (bounded by
    /// [`ServerOptions::drain_timeout`]). Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.control.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + self.drain_timeout;
        let mut guard = self.control.drained.lock().unwrap_or_else(|e| e.into_inner());
        while self.control.active_conns.load(Ordering::SeqCst) > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, _) = self
                .control
                .drained_cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard = next;
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves `store` over TCP on `addr` (use port 0 for an ephemeral
/// port, then read [`ServerHandle::addr`]).
///
/// # Errors
///
/// Any socket bind/configure error.
pub fn serve_tcp<K, V, C>(
    store: ShardedStore<K, V, C>,
    addr: impl std::net::ToSocketAddrs,
    opts: ServerOptions,
) -> std::io::Result<ServerHandle>
where
    K: StoreKey + Send + Sync + 'static,
    V: StoreValue + Send + Sync + 'static,
    C: BlockIo<(K, V)> + Send + Sync + 'static,
{
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let control = Control::new();
    let metrics = Arc::new(ServerMetrics::new());
    let accept_control = Arc::clone(&control);
    let accept_opts = opts.clone();
    let accept_thread = std::thread::spawn(move || {
        while !accept_control.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((sock, _peer)) => {
                    let _ = sock.set_nodelay(true);
                    let _ = sock.set_read_timeout(Some(accept_opts.read_poll));
                    spawn_conn(
                        store.clone(),
                        Transport::Tcp(sock),
                        Arc::clone(&accept_control),
                        Arc::clone(&metrics),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(accept_opts.read_poll.min(Duration::from_millis(10)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    });
    Ok(ServerHandle {
        control,
        accept_thread: Some(accept_thread),
        addr: Some(local),
        drain_timeout: opts.drain_timeout,
    })
}

/// Serves `store` over an in-process pipe; clients dial through the
/// returned [`PipeConnector`]. No sockets involved — the whole framed
/// wire path still runs.
pub fn serve_pipe<K, V, C>(
    store: ShardedStore<K, V, C>,
    opts: ServerOptions,
) -> (ServerHandle, PipeConnector)
where
    K: StoreKey + Send + Sync + 'static,
    V: StoreValue + Send + Sync + 'static,
    C: BlockIo<(K, V)> + Send + Sync + 'static,
{
    let (listener, connector) = pipe_channel();
    let control = Control::new();
    let metrics = Arc::new(ServerMetrics::new());
    let accept_control = Arc::clone(&control);
    let accept_opts = opts.clone();
    let accept_thread = std::thread::spawn(move || {
        while !accept_control.shutdown.load(Ordering::SeqCst) {
            match listener.accept(accept_opts.read_poll) {
                Ok(Some(mut end)) => {
                    end.set_read_timeout(Some(accept_opts.read_poll));
                    spawn_conn(
                        store.clone(),
                        Transport::Pipe(end),
                        Arc::clone(&accept_control),
                        Arc::clone(&metrics),
                    );
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
    });
    (
        ServerHandle {
            control,
            accept_thread: Some(accept_thread),
            addr: None,
            drain_timeout: opts.drain_timeout,
        },
        connector,
    )
}

fn spawn_conn<K, V, C>(
    store: ShardedStore<K, V, C>,
    conn: Transport,
    control: Arc<Control>,
    metrics: Arc<ServerMetrics>,
) where
    K: StoreKey + Send + Sync + 'static,
    V: StoreValue + Send + Sync + 'static,
    C: BlockIo<(K, V)> + Send + Sync + 'static,
{
    control.conn_started();
    metrics.connections.inc();
    std::thread::spawn(move || {
        serve_conn(&store, conn, &control, &metrics);
        control.conn_finished();
    });
}

/// One connection's request loop. Exits on peer close, on an
/// unrecoverable stream error, or once shutdown is flagged (after
/// finishing the frame being served, never mid-request).
fn serve_conn<K, V, C>(
    store: &ShardedStore<K, V, C>,
    mut conn: Transport,
    control: &Control,
    metrics: &ServerMetrics,
) where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    loop {
        if control.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match frame::read_frame(&mut conn) {
            Ok(p) => p,
            Err(FrameError::TimedOut) => continue,
            Err(FrameError::Closed) => return,
            Err(err @ (FrameError::TooLarge(_) | FrameError::BadCrc { .. })) => {
                // The stream framing itself is broken; after telling
                // the peer (best effort) the only safe move is to
                // drop the connection — frame boundaries are gone.
                metrics.errors.inc();
                let resp: Response<K, V> = Response::Error {
                    code: ErrorCode::MalformedRequest,
                    message: err.to_string(),
                };
                let _ = frame::write_frame(&mut conn, &resp.encode());
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        metrics
            .bytes_in
            .add(payload.len() as u64 + codecs::bytecode::varint_len(payload.len() as u64) as u64 + 4);

        let started = Instant::now();
        metrics.in_flight.add(1);
        metrics.requests.inc();
        let (op, resp) = match Request::<K, V>::decode(&payload) {
            Ok(req) => {
                let op = req.op_name();
                (op, handle_request(store, req))
            }
            Err(e @ (ProtoError::Malformed(_) | ProtoError::Opcode(_) | ProtoError::Format(_))) => {
                // The frame was intact (CRC passed) but the message
                // inside is nonsense; the stream is still framed, so
                // answer typed and keep the connection.
                (
                    "malformed",
                    Response::Error {
                        code: ErrorCode::MalformedRequest,
                        message: e.to_string(),
                    },
                )
            }
        };
        if matches!(resp, Response::Error { .. }) {
            metrics.errors.inc();
        }
        let write = frame::write_frame(&mut conn, &resp.encode());
        metrics.request_hist(op).record(started.elapsed().as_nanos() as u64);
        metrics.in_flight.add(-1);
        match write {
            Ok(n) => metrics.bytes_out.add(n),
            Err(_) => return,
        }
    }
}

/// Maps one decoded request onto the store. Reads pin a consistent
/// version-vector snapshot per request; writes go through the group
/// commit pipeline.
fn handle_request<K, V, C>(store: &ShardedStore<K, V, C>, req: Request<K, V>) -> Response<K, V>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    fn store_err<K: StoreKey, V: StoreValue>(e: &store::StoreError) -> Response<K, V> {
        Response::Error { code: ErrorCode::of(e), message: e.to_string() }
    }

    match req {
        Request::PutBatch(ops) => match store.commit(ops) {
            Ok(version) => Response::Committed(version),
            Err(e) => store_err(&e),
        },
        Request::Get { key, at } => match read_snapshot(store, at) {
            Ok(snap) => Response::Value(snap.get(&key)),
            Err(e) => store_err(&e),
        },
        Request::Range { lo, hi, limit, at } => match read_snapshot(store, at) {
            Ok(snap) => {
                let mut entries = snap.range_entries(&lo, &hi);
                if limit != 0 && (entries.len() as u64) > limit {
                    entries.truncate(limit as usize);
                }
                Response::Entries(entries)
            }
            Err(e) => store_err(&e),
        },
        Request::Snapshot => {
            let snap = store.snapshot();
            Response::Snapshot {
                global: snap.version(),
                locals: snap.version_vector().to_vec(),
            }
        }
        Request::Pin(v) => match store.pin_version(v) {
            Ok(()) => Response::Pinned(v),
            Err(e) => store_err(&e),
        },
        Request::Unpin(v) => match store.unpin_version(v) {
            Ok(()) => Response::Unpinned(v),
            Err(e) => store_err(&e),
        },
        Request::Stats => Response::Stats(obs::global().render_text()),
    }
}

fn read_snapshot<K, V, C>(
    store: &ShardedStore<K, V, C>,
    at: Option<u64>,
) -> Result<store::ShardedSnapshot<K, V, C>, store::StoreError>
where
    K: StoreKey,
    V: StoreValue,
    C: BlockIo<(K, V)>,
{
    match at {
        None => Ok(store.snapshot()),
        Some(v) => store.snapshot_at(v),
    }
}
