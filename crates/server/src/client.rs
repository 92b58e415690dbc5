//! The pacserve client: a synchronous request/response handle with
//! per-request timeouts, bounded jittered-backoff retry, and explicit
//! reconnect.
//!
//! Retry policy: only requests whose replay is harmless are retried.
//! Reads (`get`, `range`, `snapshot`, `stats`) retry on connection
//! errors and timeouts. Writes and pin-count mutations (`put_batch`,
//! `pin`, `unpin`) are *not* retried once the request may have reached
//! the server — a replayed batch would commit twice and a replayed pin
//! would leak a count — so those fail fast with the transport error
//! and leave the retry decision to the caller, who knows whether the
//! operation is idempotent at their layer.

use std::io::Write as _;
use std::time::Duration;

use store::{Op, StoreKey, StoreValue};

use crate::frame::{self, FrameError};
use crate::proto::{ErrorCode, ProtoError, Request, Response};
use crate::transport::{PipeConnector, Transport};

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// How long one request may wait for its response frame.
    pub request_timeout: Duration,
    /// Additional attempts after the first failure (idempotent
    /// requests only).
    pub retries: u32,
    /// Base backoff between attempts; attempt `n` sleeps
    /// `base * 2^n` plus up to 50% jitter.
    pub backoff: Duration,
    /// Seed for the jitter generator, so a replayed test run backs
    /// off identically.
    pub jitter_seed: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            request_timeout: Duration::from_secs(5),
            retries: 3,
            backoff: Duration::from_millis(5),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

/// Why a request failed client-side.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (dial, send, or receive).
    Io(std::io::Error),
    /// The response frame was corrupt or the connection broke
    /// mid-frame.
    Frame(FrameError),
    /// The response frame was intact but the message inside did not
    /// decode.
    Proto(ProtoError),
    /// The server answered with a typed error.
    Server {
        /// Stable error category.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
    /// Every attempt failed; `last` is the final attempt's error.
    RetriesExhausted {
        /// Attempts made (first try included).
        attempts: u32,
        /// The last attempt's failure, stringified.
        last: String,
    },
    /// The server answered with a response type the request cannot
    /// produce (protocol confusion; the connection was dropped).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o: {e}"),
            ClientError::Frame(e) => write!(f, "client frame: {e}"),
            ClientError::Proto(e) => write!(f, "client decode: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempts: {last}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Where a client dials. Cloneable so one address can mint many
/// clients.
#[derive(Clone)]
pub enum Dialer {
    /// A TCP endpoint.
    Tcp(std::net::SocketAddr),
    /// An in-process pipe listener.
    Pipe(PipeConnector),
}

impl Dialer {
    fn dial(&self, timeout: Duration) -> std::io::Result<Transport> {
        match self {
            Dialer::Tcp(addr) => {
                let sock = std::net::TcpStream::connect_timeout(addr, timeout)?;
                sock.set_nodelay(true)?;
                Ok(Transport::Tcp(sock))
            }
            Dialer::Pipe(connector) => Ok(Transport::Pipe(connector.connect()?)),
        }
    }
}

/// A synchronous pacserve connection. One in-flight request at a
/// time; `&mut self` throughout. Reconnects lazily after any
/// transport failure.
pub struct Client<K, V> {
    dialer: Dialer,
    conn: Option<Transport>,
    opts: ClientOptions,
    jitter: u64,
    _types: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K: StoreKey, V: StoreValue> Client<K, V> {
    /// A client dialing `addr` over TCP. Connects lazily on first
    /// request.
    pub fn connect_tcp(addr: std::net::SocketAddr, opts: ClientOptions) -> Client<K, V> {
        Client::new(Dialer::Tcp(addr), opts)
    }

    /// A client dialing an in-process [`crate::serve_pipe`] server.
    pub fn connect_pipe(connector: PipeConnector, opts: ClientOptions) -> Client<K, V> {
        Client::new(Dialer::Pipe(connector), opts)
    }

    /// A client over any [`Dialer`].
    pub fn new(dialer: Dialer, opts: ClientOptions) -> Client<K, V> {
        let jitter = opts.jitter_seed | 1;
        Client { dialer, conn: None, opts, jitter, _types: std::marker::PhantomData }
    }

    /// Drops the current connection; the next request re-dials. Used
    /// by tests to exercise mid-sequence reconnects, and by callers
    /// that know the peer restarted.
    pub fn reconnect(&mut self) {
        self.conn = None;
    }

    /// Commits a batch; returns the global commit id. Not retried
    /// once the request may have reached the server (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::CommitFailed`] when
    /// the group failed; transport errors otherwise.
    pub fn put_batch(&mut self, ops: Vec<Op<K, V>>) -> Result<u64, ClientError> {
        match self.call(&Request::PutBatch(ops), false)? {
            Response::Committed(v) => Ok(v),
            _ => Err(self.confused("put_batch")),
        }
    }

    /// Point read against the current version.
    ///
    /// # Errors
    ///
    /// Transport errors after retries; server-side typed errors.
    pub fn get(&mut self, key: K) -> Result<Option<V>, ClientError> {
        self.get_at(key, None)
    }

    /// Point read at retained version `at` (`None` = current).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::VersionNotFound`] when `at` is not retained.
    pub fn get_at(&mut self, key: K, at: Option<u64>) -> Result<Option<V>, ClientError> {
        match self.call(&Request::Get { key, at }, true)? {
            Response::Value(v) => Ok(v),
            _ => Err(self.confused("get")),
        }
    }

    /// Range read over `[lo, hi]`, at most `limit` entries (0 = all),
    /// at retained version `at` (`None` = current).
    ///
    /// # Errors
    ///
    /// See [`Client::get_at`].
    pub fn range(
        &mut self,
        lo: K,
        hi: K,
        limit: u64,
        at: Option<u64>,
    ) -> Result<Vec<(K, V)>, ClientError> {
        match self.call(&Request::Range { lo, hi, limit, at }, true)? {
            Response::Entries(entries) => Ok(entries),
            _ => Err(self.confused("range")),
        }
    }

    /// The server's current consistent version vector:
    /// `(global, per-shard locals)`.
    ///
    /// # Errors
    ///
    /// Transport errors after retries.
    pub fn snapshot(&mut self) -> Result<(u64, Vec<u64>), ClientError> {
        match self.call(&Request::Snapshot, true)? {
            Response::Snapshot { global, locals } => Ok((global, locals)),
            _ => Err(self.confused("snapshot")),
        }
    }

    /// Pins global commit `version` on the server. Not retried (a
    /// replayed pin would leak a pin count).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::VersionNotFound`] when the version was already
    /// evicted.
    pub fn pin(&mut self, version: u64) -> Result<(), ClientError> {
        match self.call(&Request::Pin(version), false)? {
            Response::Pinned(_) => Ok(()),
            _ => Err(self.confused("pin")),
        }
    }

    /// Releases one pin on `version`. Not retried.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NotPinned`] when no pin is held.
    pub fn unpin(&mut self, version: u64) -> Result<(), ClientError> {
        match self.call(&Request::Unpin(version), false)? {
            Response::Unpinned(_) => Ok(()),
            _ => Err(self.confused("unpin")),
        }
    }

    /// A metrics scrape of the server process (Prometheus text).
    ///
    /// # Errors
    ///
    /// Transport errors after retries.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats, true)? {
            Response::Stats(text) => Ok(text),
            _ => Err(self.confused("stats")),
        }
    }

    /// One request/response exchange, with bounded retry for
    /// idempotent requests.
    fn call(
        &mut self,
        req: &Request<K, V>,
        idempotent: bool,
    ) -> Result<Response<K, V>, ClientError> {
        let payload = req.encode();
        let attempts = self.opts.retries + 1;
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            // Dial failures never reached the server, so even
            // non-idempotent requests may redial freely.
            let conn = match self.ensure_conn() {
                Ok(conn) => conn,
                Err(e) => {
                    if attempt + 1 == attempts {
                        return Err(ClientError::Io(e));
                    }
                    last = e.to_string();
                    continue;
                }
            };
            if let Err(e) = frame::write_frame(conn, &payload).and_then(|_| conn.flush()) {
                // The request may have partially reached the server;
                // from here on only idempotent requests retry.
                self.conn = None;
                if !idempotent {
                    return Err(ClientError::Io(e));
                }
                last = e.to_string();
                continue;
            }
            match frame::read_frame(self.conn.as_mut().expect("just used")) {
                Ok(bytes) => {
                    let resp = Response::decode(&bytes)?;
                    if let Response::Error { code, message } = resp {
                        // A typed server error is deterministic;
                        // retrying would re-fail.
                        return Err(ClientError::Server { code, message });
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.conn = None;
                    if !idempotent {
                        return Err(ClientError::Frame(e));
                    }
                    last = e.to_string();
                }
            }
        }
        Err(ClientError::RetriesExhausted { attempts, last })
    }

    fn ensure_conn(&mut self) -> std::io::Result<&mut Transport> {
        if self.conn.is_none() {
            let mut conn = self.dialer.dial(self.opts.request_timeout)?;
            conn.set_read_timeout(Some(self.opts.request_timeout))?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just set"))
    }

    /// Exponential backoff with multiplicative xorshift jitter:
    /// `base * 2^(attempt-1)` scaled by a factor in `[1.0, 1.5)`.
    fn backoff(&mut self, attempt: u32) {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let base = self.opts.backoff.as_nanos() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(10));
        let jittered = exp + (self.jitter % (exp / 2 + 1));
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    fn confused(&mut self, what: &'static str) -> ClientError {
        // A mismatched response type means request/response framing
        // slipped; the connection cannot be trusted for the next call.
        self.conn = None;
        ClientError::Unexpected(what)
    }
}
