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
    // The varint length prefix, one byte at a time, until the bytes so
    // far decode. A `u64` varint is at most ten bytes, so a prefix that
    // has not decoded by the tenth is an overflow.
    let mut prefix = [0u8; 10];
    let mut n = 0;
    let len = loop {
        match r.read(&mut prefix[n..=n]) {
            Ok(0) if n == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length",
                )))
            }
            Ok(_) => n += 1,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if n == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(FrameError::TimedOut)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
        if let Some(len) = bytecode::try_read_varint(&prefix[..n], &mut 0) {
            break len;
        }
        if n == prefix.len() {
            return Err(FrameError::TooLarge(u64::MAX));
        }
    };
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_uninterrupted(r, &mut payload)?;
    let mut trailer = [0u8; 4];
    read_exact_uninterrupted(r, &mut trailer)?;
    let stored = u32::from_le_bytes(trailer);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(FrameError::BadCrc { stored, computed });
    }
    Ok(payload)
}

/// `read_exact` that keeps going across `Interrupted` and across a
/// bounded number of poll-timeout wakeups — once a frame has started
/// arriving, a between-bytes timeout usually means "peer is slow", not
/// "no request yet". A peer stalled past the stall budget is
/// indistinguishable from a dead one and becomes an I/O error.
fn read_exact_uninterrupted<R: Read>(r: &mut R, mut buf: &mut [u8]) -> Result<(), FrameError> {
    // With the server's default 25 ms poll timeout this tolerates
    // ~10 s of mid-frame stall before giving up on the peer.
    const MAX_STALLS: u32 = 400;
    let mut stalls = 0u32;
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
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && stalls < MAX_STALLS =>
            {
                stalls += 1;
            }
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
        // Inside the length: EOF or a stall is a dead peer.
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
        // A ten-byte length that fits still decodes, to a length over the cap.
        let mut top = Vec::new();
        bytecode::write_varint(1 << 63, &mut top);
        assert!(matches!(read(&top, None), Err(FrameError::TooLarge(n)) if n == 1 << 63));
    }
}
