//! Request/response message layer: what goes inside a wire frame.
//!
//! Every payload leads with [`WIRE_FORMAT`] (so a peer speaking a
//! different protocol revision is a typed error, mirroring
//! [`store::wal::LOG_FORMAT`]) and an opcode byte; fields follow in
//! [`codecs::ByteEncode`] encoding: a list is a `Vec` (a put batch is
//! the log's op list, byte for byte), an optional field an `Option`.
//! Decoding goes exclusively through the fallible `try_read` path — the
//! frame CRC only proves the bytes are what the peer sent, not that the
//! peer is honest, so every count is checked against the bytes left
//! before it becomes an allocation.

use codecs::ByteEncode;
use store::{Op, StoreError, StoreKey, StoreValue};

/// Format byte of every message this build writes and reads (revision
/// 1 of the pacserve wire protocol). Distinct from
/// [`store::wal::LOG_FORMAT`] so a log image piped at a server (or
/// vice versa) fails typed.
pub const WIRE_FORMAT: u8 = 0xB3;

const REQ_PUT_BATCH: u8 = 0x01;
const REQ_GET: u8 = 0x02;
const REQ_RANGE: u8 = 0x03;
const REQ_SNAPSHOT: u8 = 0x04;
const REQ_PIN: u8 = 0x05;
const REQ_UNPIN: u8 = 0x06;
const REQ_STATS: u8 = 0x07;

const RESP_COMMITTED: u8 = 0x81;
const RESP_VALUE: u8 = 0x82;
const RESP_ENTRIES: u8 = 0x83;
const RESP_SNAPSHOT: u8 = 0x84;
const RESP_PINNED: u8 = 0x85;
const RESP_UNPINNED: u8 = 0x86;
const RESP_STATS: u8 = 0x87;
const RESP_ERROR: u8 = 0xFF;

/// Why a message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The leading format byte is not [`WIRE_FORMAT`].
    Format(u8),
    /// Unknown opcode for this message direction.
    Opcode(u8),
    /// The payload ended inside the named field, or a count/length
    /// described more elements than the payload could hold. A list is
    /// named by its count.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Format(b) => {
                write!(
                    f,
                    "wire format {b:#04x}, this build speaks {WIRE_FORMAT:#04x}"
                )
            }
            ProtoError::Opcode(b) => write!(f, "unknown opcode {b:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Stable error codes carried by [`Response::Error`], so clients can
/// react without parsing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The requested version is neither current nor retained.
    VersionNotFound = 1,
    /// Unpin of a version that holds no pin.
    NotPinned = 2,
    /// The commit (or its group) failed; nothing was published.
    CommitFailed = 3,
    /// The request decoded as a frame but not as a message.
    MalformedRequest = 4,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown = 5,
    /// Any other store-side failure; see the message text.
    Internal = 6,
}

impl ErrorCode {
    /// The code for a store-side failure.
    pub fn of(err: &StoreError) -> ErrorCode {
        match err {
            StoreError::VersionNotFound(_) => ErrorCode::VersionNotFound,
            StoreError::NotPinned(_) => ErrorCode::NotPinned,
            StoreError::CommitFailed(_) => ErrorCode::CommitFailed,
            _ => ErrorCode::Internal,
        }
    }

    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::VersionNotFound,
            2 => ErrorCode::NotPinned,
            3 => ErrorCode::CommitFailed,
            4 => ErrorCode::MalformedRequest,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<K, V> {
    /// Commit a batch through the store's group-commit pipeline.
    PutBatch(Vec<Op<K, V>>),
    /// Point read — against the current version, or against retained
    /// version `at` (as pinned by [`Request::Pin`]).
    Get {
        /// Key to look up.
        key: K,
        /// Retained global commit id to read at; `None` = current.
        at: Option<u64>,
    },
    /// Range read over `[lo, hi]`, at most `limit` entries (0 = all).
    Range {
        /// Inclusive lower bound.
        lo: K,
        /// Inclusive upper bound.
        hi: K,
        /// Entry cap; 0 means unlimited.
        limit: u64,
        /// Retained global commit id to read at; `None` = current.
        at: Option<u64>,
    },
    /// The current consistent version vector.
    Snapshot,
    /// Pin a global commit id against eviction.
    Pin(u64),
    /// Release one pin.
    Unpin(u64),
    /// A metrics scrape of the server process.
    Stats,
}

impl<K: StoreKey, V: StoreValue> Request<K, V> {
    /// The operation label, used for metrics and logs.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::PutBatch(_) => "put_batch",
            Request::Get { .. } => "get",
            Request::Range { .. } => "range",
            Request::Snapshot => "snapshot",
            Request::Pin(_) => "pin",
            Request::Unpin(_) => "unpin",
            Request::Stats => "stats",
        }
    }

    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_FORMAT];
        match self {
            Request::PutBatch(ops) => {
                out.push(REQ_PUT_BATCH);
                ops.write(&mut out);
            }
            Request::Get { key, at } => {
                out.push(REQ_GET);
                key.write(&mut out);
                at.write(&mut out);
            }
            Request::Range { lo, hi, limit, at } => {
                out.push(REQ_RANGE);
                lo.write(&mut out);
                hi.write(&mut out);
                limit.write(&mut out);
                at.write(&mut out);
            }
            Request::Snapshot => out.push(REQ_SNAPSHOT),
            Request::Pin(v) => {
                out.push(REQ_PIN);
                v.write(&mut out);
            }
            Request::Unpin(v) => {
                out.push(REQ_UNPIN);
                v.write(&mut out);
            }
            Request::Stats => out.push(REQ_STATS),
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// See [`ProtoError`]; hostile counts and truncated fields are
    /// always typed, never panics.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let (opcode, body) = split_header(buf)?;
        let mut pos = 0usize;
        let req = match opcode {
            REQ_PUT_BATCH => Request::PutBatch(field(body, &mut pos, "op count")?),
            REQ_GET => {
                let key = field(body, &mut pos, "get key")?;
                let at = field(body, &mut pos, "get at")?;
                Request::Get { key, at }
            }
            REQ_RANGE => {
                let lo = field(body, &mut pos, "range lo")?;
                let hi = field(body, &mut pos, "range hi")?;
                let limit = field(body, &mut pos, "range limit")?;
                let at = field(body, &mut pos, "range at")?;
                Request::Range { lo, hi, limit, at }
            }
            REQ_SNAPSHOT => Request::Snapshot,
            REQ_PIN => Request::Pin(field(body, &mut pos, "pin version")?),
            REQ_UNPIN => Request::Unpin(field(body, &mut pos, "unpin version")?),
            REQ_STATS => Request::Stats,
            other => return Err(ProtoError::Opcode(other)),
        };
        ensure_consumed(body, pos)?;
        Ok(req)
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response<K, V> {
    /// The batch committed as this global commit id.
    Committed(u64),
    /// Point-read result.
    Value(Option<V>),
    /// Range-read result, in key order.
    Entries(Vec<(K, V)>),
    /// A consistent version vector: the global commit id and the
    /// per-shard local versions it pins.
    Snapshot {
        /// Global commit id.
        global: u64,
        /// Per-shard local versions, in shard order.
        locals: Vec<u64>,
    },
    /// Pin acknowledged for this version.
    Pinned(u64),
    /// Unpin acknowledged for this version.
    Unpinned(u64),
    /// Metrics scrape (Prometheus text exposition).
    Stats(String),
    /// The request failed server-side.
    Error {
        /// Stable error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl<K: StoreKey, V: StoreValue> Response<K, V> {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_FORMAT];
        match self {
            Response::Committed(v) => {
                out.push(RESP_COMMITTED);
                v.write(&mut out);
            }
            Response::Value(v) => {
                out.push(RESP_VALUE);
                v.write(&mut out);
            }
            Response::Entries(entries) => {
                out.push(RESP_ENTRIES);
                entries.write(&mut out);
            }
            Response::Snapshot { global, locals } => {
                out.push(RESP_SNAPSHOT);
                global.write(&mut out);
                locals.write(&mut out);
            }
            Response::Pinned(v) => {
                out.push(RESP_PINNED);
                v.write(&mut out);
            }
            Response::Unpinned(v) => {
                out.push(RESP_UNPINNED);
                v.write(&mut out);
            }
            Response::Stats(text) => {
                out.push(RESP_STATS);
                text.write(&mut out);
            }
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                out.push(*code as u8);
                message.write(&mut out);
            }
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// See [`ProtoError`].
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let (opcode, body) = split_header(buf)?;
        let mut pos = 0usize;
        let resp = match opcode {
            RESP_COMMITTED => Response::Committed(field(body, &mut pos, "committed version")?),
            RESP_VALUE => Response::Value(field(body, &mut pos, "value")?),
            RESP_ENTRIES => Response::Entries(field(body, &mut pos, "entry count")?),
            RESP_SNAPSHOT => {
                let global = field(body, &mut pos, "snapshot global")?;
                let locals = field(body, &mut pos, "shard count")?;
                Response::Snapshot { global, locals }
            }
            RESP_PINNED => Response::Pinned(field(body, &mut pos, "pinned version")?),
            RESP_UNPINNED => Response::Unpinned(field(body, &mut pos, "unpinned version")?),
            RESP_STATS => Response::Stats(field(body, &mut pos, "stats text")?),
            RESP_ERROR => {
                let code = *body.get(pos).ok_or(ProtoError::Malformed("error code"))?;
                pos += 1;
                let code = ErrorCode::from_u8(code).ok_or(ProtoError::Malformed("error code"))?;
                let message = field(body, &mut pos, "error message")?;
                Response::Error { code, message }
            }
            other => return Err(ProtoError::Opcode(other)),
        };
        ensure_consumed(body, pos)?;
        Ok(resp)
    }
}

fn split_header(buf: &[u8]) -> Result<(u8, &[u8]), ProtoError> {
    match buf {
        [] => Err(ProtoError::Malformed("empty payload")),
        [format, ..] if *format != WIRE_FORMAT => Err(ProtoError::Format(*format)),
        [_] => Err(ProtoError::Malformed("missing opcode")),
        [_, opcode, body @ ..] => Ok((*opcode, body)),
    }
}

/// Reads one field, or names it in the error.
fn field<T: ByteEncode>(body: &[u8], pos: &mut usize, what: &'static str) -> Result<T, ProtoError> {
    T::try_read(body, pos).ok_or(ProtoError::Malformed(what))
}

fn ensure_consumed(body: &[u8], pos: usize) -> Result<(), ProtoError> {
    if pos == body.len() {
        Ok(())
    } else {
        Err(ProtoError::Malformed("trailing bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecs::bytecode;

    fn roundtrip_req(req: Request<u64, String>) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response<u64, String>) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip_req(Request::PutBatch(vec![
            Op::Put(1, "one".into()),
            Op::Delete(2),
            Op::Put(u64::MAX, String::new()),
        ]));
        roundtrip_req(Request::Get { key: 7, at: None });
        roundtrip_req(Request::Get {
            key: 7,
            at: Some(3),
        });
        roundtrip_req(Request::Range {
            lo: 1,
            hi: 100,
            limit: 0,
            at: None,
        });
        roundtrip_req(Request::Range {
            lo: 0,
            hi: u64::MAX,
            limit: 10,
            at: Some(9),
        });
        roundtrip_req(Request::Snapshot);
        roundtrip_req(Request::Pin(42));
        roundtrip_req(Request::Unpin(42));
        roundtrip_req(Request::Stats);

        roundtrip_resp(Response::Committed(17));
        roundtrip_resp(Response::Value(None));
        roundtrip_resp(Response::Value(Some("v".into())));
        roundtrip_resp(Response::Entries(vec![(1, "a".into()), (2, "b".into())]));
        roundtrip_resp(Response::Snapshot {
            global: 5,
            locals: vec![3, 1, 5],
        });
        roundtrip_resp(Response::Pinned(5));
        roundtrip_resp(Response::Unpinned(5));
        roundtrip_resp(Response::Stats("pacserve_requests_total 9\n".into()));
        roundtrip_resp(Response::Error {
            code: ErrorCode::VersionNotFound,
            message: "version 3 not retained".into(),
        });
    }

    #[test]
    fn hostile_messages_are_typed_errors() {
        // Wrong format byte (a WAL record aimed at the server).
        assert_eq!(
            Request::<u64, u64>::decode(&[store::wal::LOG_FORMAT, REQ_STATS]),
            Err(ProtoError::Format(store::wal::LOG_FORMAT))
        );
        // Unknown opcodes, both directions.
        assert_eq!(
            Request::<u64, u64>::decode(&[WIRE_FORMAT, 0x7E]),
            Err(ProtoError::Opcode(0x7E))
        );
        assert_eq!(
            Response::<u64, u64>::decode(&[WIRE_FORMAT, 0x02]),
            Err(ProtoError::Opcode(0x02))
        );
        // Hostile op count: claims 2^33 ops in a tiny payload.
        let mut buf = vec![WIRE_FORMAT, REQ_PUT_BATCH];
        bytecode::write_varint(1 << 33, &mut buf);
        assert_eq!(
            Request::<u64, u64>::decode(&buf),
            Err(ProtoError::Malformed("op count"))
        );
        // Truncated mid-field.
        let full = Request::<u64, u64>::PutBatch(vec![Op::Put(300, 400)]).encode();
        for cut in 2..full.len() {
            assert!(Request::<u64, u64>::decode(&full[..cut]).is_err());
        }
        // Trailing garbage after a complete message.
        let mut padded = Request::<u64, u64>::Snapshot.encode();
        padded.push(0xAB);
        assert_eq!(
            Request::<u64, u64>::decode(&padded),
            Err(ProtoError::Malformed("trailing bytes"))
        );
        // List counts equal to the bytes left whose items then run out,
        // and counts one past the bytes left.
        for (count, items) in [(2u8, [1u8, 5]), (3, [1, 5])] {
            let batch = [WIRE_FORMAT, REQ_PUT_BATCH, count, items[0], items[1]];
            assert_eq!(
                Request::<u64, u64>::decode(&batch),
                Err(ProtoError::Malformed("op count"))
            );
        }
        for (count, items) in [(2u8, [1u8, 2]), (3, [1, 2])] {
            let entries = [WIRE_FORMAT, RESP_ENTRIES, count, items[0], items[1]];
            assert_eq!(
                Response::<u64, u64>::decode(&entries),
                Err(ProtoError::Malformed("entry count"))
            );
        }
        for (count, items) in [(2u8, [1u8, 0x80]), (3, [1, 2])] {
            let snapshot = [WIRE_FORMAT, RESP_SNAPSHOT, 5, count, items[0], items[1]];
            assert_eq!(
                Response::<u64, u64>::decode(&snapshot),
                Err(ProtoError::Malformed("shard count"))
            );
        }
    }

    /// Lowercase hex of `bytes`.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn every_message_keeps_its_bytes() {
        // Pinned byte for byte: a change to any of these literals is a
        // wire format change, and needs a new `WIRE_FORMAT`.
        let requests: [(Request<u64, String>, &str); 7] = [
            (
                Request::PutBatch(vec![
                    Op::Put(1, "one".into()),
                    Op::Delete(300),
                    Op::Put(u64::MAX, String::new()),
                ]),
                "b301030001036f6e6501ac0200ffffffffffffffffff0100",
            ),
            (
                Request::Get {
                    key: 7,
                    at: Some(3),
                },
                "b302070103",
            ),
            (
                Request::Range {
                    lo: 1,
                    hi: 100_000,
                    limit: 10,
                    at: None,
                },
                "b30301a08d060a00",
            ),
            (Request::Snapshot, "b304"),
            (Request::Pin(42), "b3052a"),
            (Request::Unpin(300), "b306ac02"),
            (Request::Stats, "b307"),
        ];
        for (req, golden) in requests {
            assert_eq!(hex(&req.encode()), golden, "{req:?}");
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let responses: [(Response<u64, String>, &str); 9] = [
            (Response::Committed(17), "b38111"),
            (Response::Value(None), "b38200"),
            (Response::Value(Some("v".into())), "b382010176"),
            (
                Response::Entries(vec![(1, "a".into()), (300, "bc".into())]),
                "b38302010161ac02026263",
            ),
            (
                Response::Snapshot {
                    global: 5,
                    locals: vec![3, 1, 500],
                },
                "b38405030301f403",
            ),
            (Response::Pinned(5), "b38505"),
            (Response::Unpinned(5), "b38605"),
            (
                Response::Stats("pacserve_requests_total 9\n".into()),
                "b3871a70616373657276655f72657175657374735f746f74616c20390a",
            ),
            (
                Response::Error {
                    code: ErrorCode::VersionNotFound,
                    message: "version 3".into(),
                },
                "b3ff010976657273696f6e2033",
            ),
        ];
        for (resp, golden) in responses {
            assert_eq!(hex(&resp.encode()), golden, "{resp:?}");
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }
}
