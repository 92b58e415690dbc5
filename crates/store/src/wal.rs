//! The append-only batch log (write-ahead log).
//!
//! A store has one log. Every commit group appends one *group*: one
//! self-delimiting record per participating shard, in ascending shard
//! order, written by one [`append_bytes`] call, so the group's last byte
//! is its commit point. On open the store replays every record its
//! checkpoint pages do not already reach. Record layout (see DESIGN.md
//! §"pacstore on-disk formats"):
//!
//! ```text
//! length   varint    byte length of the payload that follows
//! payload  length    format byte (0xA2, this revision),
//!                    varint version, schema (4 bytes LE),
//!                    varint global commit id,
//!                    varint participant count + participant shard ids,
//!                    varint op count, then ops
//! crc32    4 bytes   little-endian, over the payload
//! ```
//!
//! The leading format byte pins the record layout: a checksum-valid
//! record with a different format byte is a typed error at open, not a
//! silently truncated "torn tail" — the hazard any future payload
//! change would otherwise reintroduce.
//!
//! The participants and the ops are `Vec`s in the
//! [`codecs::ByteEncode`] grammar (a varint count, then the items): a
//! participant is a varint `u32`, an op is [`Op`]'s encoding — a tag
//! byte (`0` put, `1` delete), the key, then the value of a put — the
//! same bytes the wire carries in a put batch. The schema field
//! is the entry-type fingerprint ([`crate::checksum::schema_id`]):
//! replaying a log with mismatched key/value types is a typed error,
//! not a misparse.
//!
//! The global commit id and participant list make a group
//! self-describing: every record of a group carries the group's global
//! id and the full participant list, and the k-th record belongs to the
//! k-th participant, so a reader knows how many records complete the
//! group. Two kinds of record carry no ops: an empty commit is one
//! record with no participants, and a checkpoint's *head* is one record
//! per shard at the checkpointed local versions (see
//! [`crate::ShardedStore`]).
//!
//! Torn-write policy: replay stops at the first record whose framing or
//! checksum fails, or whose global id is smaller than its
//! predecessor's (versions are per shard, so they are not ordered
//! across the file). If that happens anywhere before the end of the
//! file the log is *torn*; the store either truncates the bad tail
//! (default, the standard WAL recovery) or refuses to open
//! (`strict_log`).

use std::fs::File;
use std::io::Write;

use codecs::{bytecode, write_list, ByteEncode};

use crate::checksum::crc32;
use crate::mvcc::Op;

/// Format byte of every record payload this build writes and reads
/// (revision 2 of the WAL record layout: global id + participants).
pub const LOG_FORMAT: u8 = 0xA2;

/// One replayed log record: one shard's part of a commit group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord<K, V> {
    /// The shard's local version after the group (0 in an empty
    /// commit's record, which belongs to no shard).
    pub version: u64,
    /// Global commit id of the group this record belongs to.
    pub global: u64,
    /// The group's participant shards, ascending; this record belongs
    /// to the k-th of them when it is the group's k-th record.
    pub participants: Vec<u32>,
    /// The shard's operations, in submission order.
    pub ops: Vec<Op<K, V>>,
}

/// Encodes one record (framing + checksum included). `schema` is the
/// entry-type fingerprint the replayer will demand; `global` and
/// `participants` tag the record with the group it belongs to.
pub fn encode_record<K: ByteEncode, V: ByteEncode>(
    version: u64,
    global: u64,
    participants: &[u32],
    schema: u32,
    ops: &[Op<K, V>],
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ops.len() * 8 + 24);
    payload.push(LOG_FORMAT);
    bytecode::write_varint(version, &mut payload);
    payload.extend_from_slice(&schema.to_le_bytes());
    bytecode::write_varint(global, &mut payload);
    write_list(participants, &mut payload);
    write_list(ops, &mut payload);
    frame(&payload)
}

/// A failed [`append_bytes`]: the original I/O error, and whether the
/// partial bytes could not be rolled back. Stranded bytes would make
/// every later successful append unreachable at replay (torn-tail
/// truncation stops at the first bad frame) — the caller must cut them
/// away or stop using the log until it is reset.
#[derive(Debug)]
pub struct AppendError {
    /// The I/O error that failed the append.
    pub error: std::io::Error,
    /// True when the rollback failed too.
    pub stranded: bool,
}

/// A successful [`append_bytes`]: the write-vs-fsync stage timings the
/// observability layer records into per-stage histograms
/// (`pacstore_wal_append_ns` / `pacstore_wal_fsync_ns`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Appended {
    /// Time spent in `write_all` + `flush`.
    pub write_ns: u64,
    /// Time spent in `sync_data` (0 when `fsync` was not requested).
    pub sync_ns: u64,
}

/// Appends already-encoded bytes (one commit group) to a log whose
/// length is `prior_len`, all-or-nothing: on a failed or partial write
/// — or a failed `fsync` when requested — the file is truncated back to
/// `prior_len`. Without the rollback, the records of a *failed*
/// (unacknowledged) group would linger in the log ahead of the next
/// successful group, and replay would apply the failed group or stop
/// before the acknowledged one. The caller keeps the length, so an
/// append costs no `stat`.
///
/// # Errors
///
/// [`AppendError`]; check its `stranded` flag before reusing the log.
pub fn append_bytes(
    file: &mut File,
    prior_len: u64,
    bytes: &[u8],
    fsync: bool,
) -> Result<Appended, AppendError> {
    let mut appended = Appended::default();
    let write_start = std::time::Instant::now();
    let result = file
        .write_all(bytes)
        .and_then(|()| file.flush())
        .and_then(|()| {
            appended.write_ns = write_start.elapsed().as_nanos() as u64;
            if fsync {
                let sync_start = std::time::Instant::now();
                let r = file.sync_data();
                appended.sync_ns = sync_start.elapsed().as_nanos() as u64;
                r
            } else {
                Ok(())
            }
        });
    match result {
        Ok(()) => Ok(appended),
        Err(error) => {
            // Under fsync, the rollback truncation must itself be
            // durable: a resurrected group from this *failed* append
            // would collide with (and at replay, displace) the next
            // acknowledged group that reuses its global id.
            let rolled_back =
                file.set_len(prior_len).is_ok() && (!fsync || file.sync_data().is_ok());
            Err(AppendError {
                error,
                stranded: !rolled_back,
            })
        }
    }
}

/// A reader over the length-prefixed, CRC-trailed frame stream shared
/// by log and pacserve wire records:
/// `varint len ++ payload ++ crc32 (LE)`.
/// `pos` always sits on a frame boundary, so when [`Frames::next`]
/// returns `None` it is the byte length of the valid prefix.
pub struct Frames<'a> {
    bytes: &'a [u8],
    /// Current frame-boundary offset; writable so a replayer can roll
    /// back to the start of a rejected frame.
    pub pos: usize,
}

impl<'a> Frames<'a> {
    /// A reader positioned at the first frame of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Frames { bytes, pos: 0 }
    }

    /// The next checksum-valid payload, or `None` at end-of-input *or*
    /// at the first bad frame (`pos < bytes.len()` distinguishes the
    /// torn case, and is then the truncation point).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&'a [u8]> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let mut at = self.pos;
        // The length is validated in the u64 domain before narrowing to
        // usize: a hostile 2^33 length must fail here, not truncate to
        // something small on a 32-bit target and slice the wrong bytes.
        let len = usize::try_from(bytecode::try_read_varint(self.bytes, &mut at)?).ok()?;
        let end = at.checked_add(len)?;
        if end.checked_add(4)? > self.bytes.len() {
            return None;
        }
        let payload = &self.bytes[at..end];
        let stored = u32::from_le_bytes(self.bytes[end..end + 4].try_into().expect("4 bytes"));
        if crc32(payload) != stored {
            return None;
        }
        self.pos = end + 4;
        Some(payload)
    }
}

/// Frames `payload` for appending: `varint len ++ payload ++ crc32`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    bytecode::write_varint(payload.len() as u64, &mut out);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Result of replaying a log image.
#[derive(Debug)]
pub struct Replay<K, V> {
    /// All records of the longest valid prefix, in order.
    pub records: Vec<LogRecord<K, V>>,
    /// Starting byte offset of each record in `records` — so a caller
    /// dropping an incomplete last group knows where to truncate.
    pub offsets: Vec<usize>,
    /// Byte length of that valid prefix.
    pub valid_len: usize,
    /// True if bytes remained after the valid prefix (torn or corrupt
    /// tail).
    pub torn: bool,
    /// Set when a checksum-valid record carried a different entry-type
    /// fingerprint than `expected_schema` — the log belongs to a store
    /// with different key/value types. Replay stops there.
    pub schema_mismatch: Option<u32>,
    /// Set when a checksum-valid record carried a different format byte
    /// than [`LOG_FORMAT`] — the log was written by a build with a
    /// different record layout. Replay stops there.
    pub format_mismatch: Option<u8>,
}

/// Replays a log image, stopping at the first invalid record (bad
/// framing or checksum, a global id going backwards, or — reported
/// separately — a mismatched format byte or entry-type fingerprint).
/// Records of one group share a global id; whether each group is
/// complete is the caller's to judge.
pub fn replay<K: ByteEncode, V: ByteEncode>(bytes: &[u8], expected_schema: u32) -> Replay<K, V> {
    let mut records: Vec<LogRecord<K, V>> = Vec::new();
    let mut offsets: Vec<usize> = Vec::new();
    let mut frames = Frames::new(bytes);
    let (mut schema_mismatch, mut format_mismatch) = (None, None);
    loop {
        let start = frames.pos;
        let Some(payload) = frames.next() else { break };
        match parse_payload::<K, V>(payload, expected_schema) {
            Parse::Ok(rec) => {
                if records.last().is_some_and(|prev| prev.global > rec.global) {
                    frames.pos = start;
                    break;
                }
                records.push(rec);
                offsets.push(start);
            }
            Parse::SchemaMismatch { found } => {
                schema_mismatch = Some(found);
                frames.pos = start;
                break;
            }
            Parse::FormatMismatch { found } => {
                format_mismatch = Some(found);
                frames.pos = start;
                break;
            }
            Parse::Bad => {
                frames.pos = start;
                break;
            }
        }
    }
    Replay {
        records,
        offsets,
        valid_len: frames.pos,
        torn: schema_mismatch.is_none() && format_mismatch.is_none() && frames.pos < bytes.len(),
        schema_mismatch,
        format_mismatch,
    }
}

enum Parse<K, V> {
    Ok(LogRecord<K, V>),
    SchemaMismatch { found: u32 },
    FormatMismatch { found: u8 },
    Bad,
}

/// Parses one checksum-verified record payload; [`Parse::Bad`] when it
/// is malformed.
///
/// Every field read is fallible ([`bytecode::try_read_varint`] /
/// [`ByteEncode::try_read`]): a CRC-valid frame only proves the payload
/// is what its writer framed, not that the writer was honest, so a
/// crafted record whose counts or op bytes lie must land in
/// [`Parse::Bad`] — never a panic or an allocation past the payload.
fn parse_payload<K: ByteEncode, V: ByteEncode>(
    payload: &[u8],
    expected_schema: u32,
) -> Parse<K, V> {
    let parse = || -> Option<Parse<K, V>> {
        let mut at = 0;
        let format = *payload.get(at)?;
        at += 1;
        if format != LOG_FORMAT {
            return Some(Parse::FormatMismatch { found: format });
        }
        let version = bytecode::try_read_varint(payload, &mut at)?;
        let found = u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?);
        at += 4;
        if found != expected_schema {
            return Some(Parse::SchemaMismatch { found });
        }
        let global = bytecode::try_read_varint(payload, &mut at)?;
        let participants = Vec::<u32>::try_read(payload, &mut at)?;
        let ops = Vec::<Op<K, V>>::try_read(payload, &mut at)?;
        if at != payload.len() {
            return None;
        }
        Some(Parse::Ok(LogRecord {
            version,
            global,
            participants,
            ops,
        }))
    };
    parse().unwrap_or(Parse::Bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::schema_id;
    use crate::mvcc::OP_PUT;

    const SCHEMA: u32 = 0xD00D_F00D;

    fn sample() -> Vec<u8> {
        let mut log = Vec::new();
        log.extend(encode_record::<u64, u64>(
            1,
            1,
            &[],
            SCHEMA,
            &[Op::Put(1, 10), Op::Put(2, 20)],
        ));
        log.extend(encode_record::<u64, u64>(
            2,
            2,
            &[],
            SCHEMA,
            &[Op::Delete(1)],
        ));
        log.extend(encode_record::<u64, u64>(
            3,
            3,
            &[],
            SCHEMA,
            &[Op::Put(3, 30)],
        ));
        log
    }

    #[test]
    fn replay_roundtrips_records() {
        let log = sample();
        let replay = replay::<u64, u64>(&log, SCHEMA);
        assert!(!replay.torn);
        assert_eq!(replay.valid_len, log.len());
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0].version, 1);
        assert_eq!(replay.records[1].ops, vec![Op::Delete(1)]);
        assert_eq!(replay.records[2].ops, vec![Op::Put(3, 30)]);
        // Offsets point at each record's framing byte.
        assert_eq!(replay.offsets.len(), 3);
        assert_eq!(replay.offsets[0], 0);
        for (i, &off) in replay.offsets.iter().enumerate().skip(1) {
            let r = super::replay::<u64, u64>(&log[off..], SCHEMA);
            assert_eq!(r.records.len(), 3 - i, "offset {off} of record {i}");
        }
    }

    #[test]
    fn global_and_participants_roundtrip() {
        // One record of a group: local version 5, global commit 9,
        // across shards {0, 2, 3}.
        let rec = encode_record::<u64, u64>(5, 9, &[0, 2, 3], SCHEMA, &[Op::Put(1, 1)]);
        let r = replay::<u64, u64>(&rec, SCHEMA);
        assert!(!r.torn);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].version, 5);
        assert_eq!(r.records[0].global, 9);
        assert_eq!(r.records[0].participants, vec![0, 2, 3]);
    }

    #[test]
    fn a_backwards_global_stops_replay() {
        // A group's records share its global id and replay together;
        // a record whose id is below its predecessor's stops replay.
        let mut log = Vec::new();
        for shard_op in [Op::Put(1, 1), Op::Put(900, 1)] {
            log.extend(encode_record::<u64, u64>(
                1,
                7,
                &[0, 1],
                SCHEMA,
                &[shard_op],
            ));
        }
        let clean = log.len();
        log.extend(encode_record::<u64, u64>(
            2,
            6,
            &[0],
            SCHEMA,
            &[Op::Put(2, 2)],
        ));
        let r = replay::<u64, u64>(&log, SCHEMA);
        assert!(r.torn);
        assert_eq!(r.valid_len, clean);
        assert_eq!(r.records.len(), 2);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let log = sample();
        let first_two = replay::<u64, u64>(&log, SCHEMA).records[..2].to_vec();
        // Cut anywhere inside the third record: first two survive.
        let second_end =
            log.len() - encode_record::<u64, u64>(3, 3, &[], SCHEMA, &[Op::Put(3, 30)]).len();
        for cut in second_end + 1..log.len() {
            let r = replay::<u64, u64>(&log[..cut], SCHEMA);
            assert!(r.torn, "cut {cut}");
            assert_eq!(r.valid_len, second_end);
            assert_eq!(r.records, first_two);
        }
    }

    #[test]
    fn bit_flip_invalidates_record() {
        let mut log = sample();
        let n = log.len();
        log[n - 10] ^= 0x40; // somewhere in the last record
        let r = replay::<u64, u64>(&log, SCHEMA);
        assert!(r.torn);
        assert_eq!(r.records.len(), 2);
    }

    #[test]
    fn schema_mismatch_is_reported_not_misparsed() {
        // A log written with (u64, u64) entries replayed expecting a
        // different fingerprint: typed signal, no misparse, no panic.
        let log = sample();
        let r = replay::<u64, u64>(&log, schema_id::<(u64, String)>());
        assert!(!r.torn);
        assert_eq!(r.records.len(), 0);
        assert_eq!(r.schema_mismatch, Some(SCHEMA));
    }

    #[test]
    fn foreign_format_byte_is_reported_not_truncated() {
        // A checksum-valid record whose payload leads with a different
        // format byte: typed signal, not a silent torn-tail truncation.
        let mut rec = encode_record::<u64, u64>(1, 1, &[], SCHEMA, &[Op::Put(1, 1)]);
        // Rewrite the format byte (first payload byte, after the
        // 1-byte length varint) and refresh the trailer CRC.
        rec[1] = 0x01;
        let payload_len = rec.len() - 4;
        let crc = crate::checksum::crc32(&rec[1..payload_len]).to_le_bytes();
        rec.truncate(payload_len);
        rec.extend_from_slice(&crc);
        let r = replay::<u64, u64>(&rec, SCHEMA);
        assert_eq!(r.format_mismatch, Some(0x01));
        assert!(!r.torn);
        assert_eq!(r.records.len(), 0);
        assert_eq!(r.valid_len, 0);
    }

    /// Reframe `payload` with a fresh (valid) CRC trailer — the shape
    /// of a record from a hostile writer: framing intact, content lies.
    fn hostile_frame(payload: &[u8]) -> Vec<u8> {
        frame(payload)
    }

    #[test]
    fn crc_valid_truncated_ops_are_bad_not_panic() {
        // A CRC-valid record that *claims* one put but ends mid-key:
        // the checksum vouches for the writer's bytes, not the writer.
        // Pre-hardening this panicked inside the infallible
        // `ByteEncode::read`; it must be a typed torn stop.
        let mut payload = vec![LOG_FORMAT];
        bytecode::write_varint(1, &mut payload); // version
        payload.extend_from_slice(&SCHEMA.to_le_bytes());
        bytecode::write_varint(1, &mut payload); // global
        bytecode::write_varint(0, &mut payload); // participants
        bytecode::write_varint(1, &mut payload); // one op...
        payload.push(OP_PUT);
        payload.push(0x80); // ...whose key varint never terminates
        let log = hostile_frame(&payload);
        let r = replay::<u64, u64>(&log, SCHEMA);
        assert!(r.torn);
        assert_eq!(r.records.len(), 0);
        assert_eq!(r.valid_len, 0);
    }

    #[test]
    fn crc_valid_hostile_counts_are_bad_not_panic() {
        // Op/participant counts far beyond the payload (including ones
        // that would truncate on a 32-bit usize) must be rejected in
        // the u64 domain, without pre-allocating.
        for count in [1u64 << 20, 1 << 33, u64::MAX] {
            let mut payload = vec![LOG_FORMAT];
            bytecode::write_varint(1, &mut payload);
            payload.extend_from_slice(&SCHEMA.to_le_bytes());
            bytecode::write_varint(1, &mut payload);
            bytecode::write_varint(0, &mut payload);
            bytecode::write_varint(count, &mut payload);
            let r = replay::<u64, u64>(&hostile_frame(&payload), SCHEMA);
            assert!(r.torn, "count {count}");
            assert_eq!(r.records.len(), 0, "count {count}");
        }
        // Participant and op counts equal to the bytes left whose items
        // then run out, and counts one past the bytes left.
        let lists: [&[u8]; 4] = [
            &[2, 1, 0x80],
            &[3, 1, 2],
            &[0, 2, OP_PUT, 5],
            &[0, 3, OP_PUT, 5],
        ];
        for lists in lists {
            let mut payload = vec![LOG_FORMAT];
            bytecode::write_varint(1, &mut payload);
            payload.extend_from_slice(&SCHEMA.to_le_bytes());
            bytecode::write_varint(1, &mut payload);
            payload.extend_from_slice(lists);
            let r = replay::<u64, u64>(&hostile_frame(&payload), SCHEMA);
            assert!(r.torn, "lists {lists:?}");
            assert_eq!(r.records.len(), 0, "lists {lists:?}");
        }
    }

    #[test]
    fn hostile_frame_length_is_torn_not_panic() {
        // A frame whose length varint claims 2^33 bytes: rejected by
        // the u64-domain bounds check (on any pointer width), leaving
        // the valid prefix intact.
        let mut log = sample();
        let clean = log.len();
        bytecode::write_varint(1 << 33, &mut log);
        log.extend_from_slice(&[0xAB; 64]);
        let r = replay::<u64, u64>(&log, SCHEMA);
        assert!(r.torn);
        assert_eq!(r.valid_len, clean);
        assert_eq!(r.records.len(), 3);
    }

    #[test]
    fn fuzz_mutated_frames_never_panic() {
        // Random single- and multi-byte mutations over a valid log:
        // every outcome must be a normal `Replay` (possibly torn, or a
        // typed schema/format signal) — never a panic. CRC catches most
        // mutations; the interesting survivors are mutations that CRC
        // can't see (length byte rewrites) and re-CRC'd payload edits.
        let log = sample();
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..2000 {
            let mut m = log.clone();
            for _ in 0..=(next() % 3) {
                let i = (next() % m.len() as u64) as usize;
                m[i] ^= (next() % 255 + 1) as u8;
            }
            let r = replay::<u64, u64>(&m, SCHEMA);
            assert!(r.valid_len <= m.len());
        }
        // Same, but with the trailer CRC refreshed so the mutated
        // payload *passes* the checksum and reaches the parser.
        for _ in 0..2000 {
            let mut payload = Vec::new();
            let mut frames = Frames::new(&log);
            payload.extend_from_slice(frames.next().expect("first record"));
            let i = (next() % payload.len() as u64) as usize;
            payload[i] ^= (next() % 255 + 1) as u8;
            if next() % 2 == 0 {
                payload.truncate(1 + (next() % payload.len() as u64) as usize);
            }
            let r = replay::<u64, u64>(&hostile_frame(&payload), SCHEMA);
            assert!(r.records.len() <= 1);
        }
    }

    #[test]
    fn versions_are_per_shard_and_do_not_stop_replay() {
        // Shards 0 and 1 both reach version 1 in group 1, then shard 0
        // alone reaches version 2 in group 2 while shard 1's record of
        // group 3 is its version 2: versions repeat and go down across
        // the file, global ids only go up.
        let mut log = Vec::new();
        log.extend(encode_record::<u64, u64>(
            1,
            1,
            &[0, 1],
            SCHEMA,
            &[Op::Put(1, 1)],
        ));
        log.extend(encode_record::<u64, u64>(
            1,
            1,
            &[0, 1],
            SCHEMA,
            &[Op::Put(900, 1)],
        ));
        log.extend(encode_record::<u64, u64>(
            2,
            2,
            &[0],
            SCHEMA,
            &[Op::Put(2, 2)],
        ));
        log.extend(encode_record::<u64, u64>(
            3,
            3,
            &[0, 1],
            SCHEMA,
            &[Op::Put(3, 3)],
        ));
        log.extend(encode_record::<u64, u64>(
            2,
            3,
            &[0, 1],
            SCHEMA,
            &[Op::Put(901, 3)],
        ));
        let r = replay::<u64, u64>(&log, SCHEMA);
        assert!(!r.torn);
        assert_eq!(r.valid_len, log.len());
        assert_eq!(
            r.records
                .iter()
                .map(|rec| (rec.version, rec.global))
                .collect::<Vec<_>>(),
            vec![(1, 1), (1, 1), (2, 2), (3, 3), (2, 3)]
        );
    }
}
