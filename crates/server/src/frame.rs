//! Streaming wire frames: the WAL's `varint len ++ payload ++ crc32`
//! layout ([`store::wal::frame`]) read incrementally off a byte
//! stream.
//!
//! The on-disk log and the wire share one framing discipline on
//! purpose: both face the same hostile-input problem (a torn tail on
//! disk, a misbehaving peer on the wire), and both answer it the same
//! way — every length is bounds-checked before anything is allocated
//! or sliced, and the CRC is verified before the payload is parsed.
//! A corrupt frame is a typed [`FrameError`], never a panic and never
//! a silent truncation.
//!
//! What the CRC does *not* buy: integrity of intent. A frame that
//! checks out is exactly what the peer sent, but the peer may be
//! hostile, so [`crate::proto`] decoding still goes through the
//! fallible [`codecs::ByteEncode::try_read`] path.

use std::io::{Read, Write};

use codecs::bytecode;
use store::checksum::crc32;

/// Largest payload a peer may send, well above any real request
/// (a full commit group is split client-side long before this).
/// A length past it is rejected *before* allocation — a hostile
/// 16 EiB length must not become a 16 EiB `Vec`.
pub const MAX_FRAME: u64 = 16 << 20;

/// How one frame failed to arrive.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF *inside* a frame —
    /// the peer died mid-send).
    Io(std::io::Error),
    /// Clean EOF on a frame boundary: the peer closed the connection.
    Closed,
    /// No byte arrived within the stream's read timeout while waiting
    /// *between* frames (a timeout mid-frame is [`FrameError::Io`]:
    /// the peer stalled mid-send, which is indistinguishable from a
    /// dead peer).
    TimedOut,
    /// The length prefix exceeds [`MAX_FRAME`] (or does not fit in
    /// 64 bits at all).
    TooLarge(u64),
    /// The payload arrived but its checksum does not match.
    BadCrc {
        /// Checksum read from the frame trailer.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TimedOut => write!(f, "timed out waiting for a frame"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::BadCrc { stored, computed } => write!(
                f,
                "frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length, payload, CRC) and flushes; returns the
/// bytes put on the wire.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<u64> {
    let bytes = store::wal::frame(payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len() as u64)
}

/// Reads one frame off `r`, verifying length and CRC; returns the
/// payload.
///
/// # Errors
///
/// See [`FrameError`]. After [`FrameError::Closed`] or
/// [`FrameError::TimedOut`] the stream is still positioned on a frame
/// boundary and may be read again; after any other error the stream
/// state is unknown and the connection should be dropped.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    // The first byte tells an idle stream from a frame: a close or a
    // poll timeout before it leaves the stream on a frame boundary.
    let mut prefix = [0u8; 10];
    loop {
        match r.read(&mut prefix[..1]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_stall(&e) => return Err(FrameError::TimedOut),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    // From here on the frame has started: the rest of the length
    // prefix, the payload and the trailer share one stall budget. The
    // prefix is read one byte at a time until the bytes so far decode;
    // a `u64` varint is at most ten bytes, so a prefix that has not
    // decoded by the tenth is an overflow.
    let mut stalls = 0;
    let mut n = 1;
    let len = loop {
        if let Some(len) = bytecode::try_read_varint(&prefix[..n], &mut 0) {
            break len;
        }
        if n == prefix.len() {
            return Err(FrameError::TooLarge(u64::MAX));
        }
        read_mid_frame(r, &mut prefix[n..=n], &mut stalls)?;
        n += 1;
    };
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_mid_frame(r, &mut payload, &mut stalls)?;
    let mut trailer = [0u8; 4];
    read_mid_frame(r, &mut trailer, &mut stalls)?;
    let stored = u32::from_le_bytes(trailer);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(FrameError::BadCrc { stored, computed });
    }
    Ok(payload)
}

/// A poll timeout: the read found no byte in time.
fn is_stall(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// `read_exact` for the inside of a frame: it keeps going across
/// `Interrupted` and across poll-timeout wakeups while `stalls`, the
/// frame's count of them so far, is under budget — once a frame has
/// started arriving, a between-bytes timeout usually means "peer is
/// slow", not "no request yet". A peer stalled past the budget is
/// indistinguishable from a dead one and becomes an I/O error.
fn read_mid_frame<R: Read>(
    r: &mut R,
    mut buf: &mut [u8],
    stalls: &mut u32,
) -> Result<(), FrameError> {
    // With the server's default 25 ms poll timeout this tolerates
    // ~10 s of mid-frame stall before giving up on the peer.
    const MAX_STALLS: u32 = 400;
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside a frame",
                )))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_stall(&e) && *stalls < MAX_STALLS => *stalls += 1,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAAu8; 1000]).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xAAu8; 1000]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn corrupt_frames_are_typed_errors_not_panics() {
        // Flipped payload bit: CRC mismatch.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire[3] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(FrameError::BadCrc { .. })
        ));

        // Hostile length: 1 << 33, rejected before allocation.
        let mut wire = Vec::new();
        codecs::bytecode::write_varint(1 << 33, &mut wire);
        wire.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(FrameError::TooLarge(_))
        ));

        // Length varint that overflows 64 bits entirely.
        let wire = [0xFFu8; 16];
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(FrameError::TooLarge(_))
        ));

        // Truncated mid-payload: the peer died mid-send.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"truncated-later").unwrap();
        wire.truncate(wire.len() - 6);
        assert!(matches!(read_frame(&mut &wire[..]), Err(FrameError::Io(_))));
    }

    /// Yields `.0`, then fails every read with `.1` (`None`: EOF).
    struct Then<'a>(&'a [u8], Option<std::io::ErrorKind>);

    impl Read for Then<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.is_empty(), self.1) {
                (false, _) => self.0.read(buf),
                (true, None) => Ok(0),
                (true, Some(kind)) => Err(kind.into()),
            }
        }
    }

    /// Yields its chunks in order with a `WouldBlock` before each one
    /// after the first, then EOF.
    struct Stalls<'a>(Vec<&'a [u8]>);

    impl Read for Stalls<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.first_mut() {
                None => Ok(0),
                Some([]) => {
                    self.0.remove(0);
                    Err(std::io::ErrorKind::WouldBlock.into())
                }
                Some(chunk) => chunk.read(buf),
            }
        }
    }

    #[test]
    fn a_length_prefix_fails_by_where_it_stops() {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        let read = |bytes: &[u8], end| read_frame(&mut Then(bytes, end));
        // Before the first byte: a clean close or an idle timeout.
        assert!(matches!(read(&[], None), Err(FrameError::Closed)));
        assert!(matches!(
            read(&[], Some(WouldBlock)),
            Err(FrameError::TimedOut)
        ));
        assert!(matches!(
            read(&[], Some(TimedOut)),
            Err(FrameError::TimedOut)
        ));
        // Inside the length: EOF, or stalling past the budget, is a dead peer.
        for end in [None, Some(WouldBlock)] {
            assert!(matches!(read(&[0x80], end), Err(FrameError::Io(_))));
            assert!(matches!(read(&[0x80; 9], end), Err(FrameError::Io(_))));
        }
        // A tenth byte whose bits fall off the `u64`, or that continues.
        let mut tenth = [0x80u8; 10];
        tenth[9] = 0x02;
        assert!(matches!(
            read(&tenth, None),
            Err(FrameError::TooLarge(u64::MAX))
        ));
        assert!(matches!(
            read(&[0x80; 10], None),
            Err(FrameError::TooLarge(u64::MAX))
        ));
        // A stall after the first length byte is a slow peer, not a dead
        // one: the read goes on to the frame.
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0x5Au8; 128]).unwrap();
        assert_eq!(wire[..2], [0x80, 0x01], "a two-byte length");
        let mut slow = Stalls(vec![&wire[..1], &wire[1..]]);
        assert_eq!(read_frame(&mut slow).unwrap(), vec![0x5Au8; 128]);
        // A ten-byte length that fits still decodes, to a length over the cap.
        let mut top = Vec::new();
        bytecode::write_varint(1 << 63, &mut top);
        assert!(matches!(read(&top, None), Err(FrameError::TooLarge(n)) if n == 1 << 63));
    }
}
