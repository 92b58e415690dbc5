//! Variable-length byte codes (LEB128-style varints) and zigzag mapping.
//!
//! These are the "byte codes" of the paper (Section 3, "Encoding
//! schemes"), chosen because they are cheap to encode and decode while
//! wasting little space compared to bit-level codes such as gamma codes.
//!
//! Every varint in the crate, and in the store's and server's formats
//! built on it, is written by [`write_varint`] and read by
//! [`try_read_varint`]: one writer, one reader, each working on one
//! 16-byte word with no branch on the value's length. The writer spreads
//! the value's 7-bit groups into the word and stores it whole; the
//! reader decodes from one 8-byte little-endian word plus the two bytes
//! after it, and within the last 15 bytes of a buffer it loads those
//! bytes padded with zeros. The reader refuses a varint cut off by the
//! end of the buffer and one that overflows 64 bits (a 10th byte other
//! than `0` or `1`).

use std::ops::Range;

/// Appends `v` to `out` as a varint (7 bits per byte, MSB = continue):
/// the one varint encoder.
///
/// It builds the whole code in one 16-byte word: the low 56 bits are
/// spread into eight 7-bit groups in three mask-and-shift steps (the
/// inverse of [`try_read_varint`]'s pack), bits 56–62 and bit 63 become
/// the 9th and 10th bytes, and one mask, looked up with the length by
/// the value's leading zeros, sets the continuation bit of every byte
/// before the last. The word is appended whole, as two 8-byte stores,
/// and `out` is cut back to the code's length, so a value's length costs
/// no data-dependent branch. When `out` has fewer than 16 bytes of
/// spare capacity only the code's bytes are copied, so the writer never
/// grows a buffer the byte-at-a-time one would not have grown.
///
/// ```
/// let mut buf = Vec::new();
/// codecs::bytecode::write_varint(300, &mut buf);
/// assert_eq!(buf, vec![0b1010_1100, 0b0000_0010]);
/// ```
#[inline(always)]
pub fn write_varint(v: u64, out: &mut Vec<u8>) {
    let (lo, hi, len) = spread(v);
    if out.capacity() - out.len() >= 16 {
        // The word goes out as its two register halves: a 16-byte array
        // assembled from them would be stored to the stack and loaded
        // back whole, a load that store forwarding cannot serve.
        let end = out.len() + len;
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
        out.truncate(end);
    } else {
        append_cold(&code(lo, hi)[..len], out);
    }
}

/// [`write_varint`]'s append into a buffer without 16 spare bytes, out
/// of line so that the word store inlines small.
#[cold]
#[inline(never)]
fn append_cold(code: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(code);
}

/// Appends the bytes `body` writes to `out`, preceded by their count as
/// a varint, and returns where they sit in `out`.
///
/// The count is known only once `body` has run, so `body` writes straight
/// into `out` behind a slot sized for a count of `expect` bytes, and the
/// count is filled in after it; only a body whose count takes another
/// number of bytes moves, once, to fit.
pub fn write_prefixed(
    out: &mut Vec<u8>,
    expect: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> Range<usize> {
    let at = out.len();
    let slot = varint_len(expect as u64);
    out.resize(at + slot, 0);
    body(out);
    let len = out.len() - at - slot;
    let (lo, hi, need) = spread(len as u64);
    if need != slot {
        let end = out.len();
        out.resize(end.max(at + need + len), 0);
        out.copy_within(at + slot..end, at + need);
        out.truncate(at + need + len);
    }
    out[at..at + need].copy_from_slice(&code(lo, hi)[..need]);
    at + need..at + need + len
}

/// The shape of a varint by the leading zeros of its value: its length
/// and the continuation bits of its first eight bytes and of its 9th,
/// each byte's but the last's.
#[derive(Clone, Copy)]
struct Shape {
    len: usize,
    more_lo: u64,
    more_hi: u64,
}

/// [`Shape`] by `v.leading_zeros()`, 0 to 64.
static SHAPES: [Shape; 65] = {
    let mut shapes = [Shape {
        len: 0,
        more_lo: 0,
        more_hi: 0,
    }; 65];
    let mut lz = 0usize;
    while lz <= 64 {
        let len = if lz == 64 { 1 } else { (64 - lz).div_ceil(7) };
        let mut shape = Shape {
            len,
            more_lo: 0,
            more_hi: 0,
        };
        let mut i = 0;
        while i + 1 < len {
            if i < 8 {
                shape.more_lo |= 0x80 << (8 * i);
            } else {
                shape.more_hi |= 0x80;
            }
            i += 1;
        }
        shapes[lz] = shape;
        lz += 1;
    }
    shapes
};

/// `v`'s varint in the low bytes of a 16-byte little-endian word, as
/// the word's low and high halves, and its length.
#[inline(always)]
fn spread(v: u64) -> (u64, u64, usize) {
    let shape = SHAPES[v.leading_zeros() as usize];
    let mut w = v & 0x00ff_ffff_ffff_ffff;
    w = ((w << 4) & 0x0fff_ffff_0000_0000) | (w & 0x0000_0000_0fff_ffff);
    w = ((w << 2) & 0x3fff_0000_3fff_0000) | (w & 0x0000_3fff_0000_3fff);
    w = ((w << 1) & 0x7f00_7f00_7f00_7f00) | (w & 0x007f_007f_007f_007f);
    let high = ((v >> 56) & 0x7f) | ((v >> 63) << 8);
    (w | shape.more_lo, high | shape.more_hi, shape.len)
}

/// The bytes of the word [`spread`] returns as `lo` and `hi`.
fn code(lo: u64, hi: u64) -> [u8; 16] {
    (u128::from(hi) << 64 | u128::from(lo)).to_le_bytes()
}

/// Reads a varint from `buf` at `*pos`, advancing `*pos`: the one
/// varint decoder. Returns `None`, leaving `*pos` unspecified, when the
/// buffer ends mid-varint or the varint overflows 64 bits (a 10th byte
/// above `1`, which also refuses a 10th byte that would continue);
/// never panics.
///
/// It decodes from one little-endian load of the 16 bytes at `*pos`:
/// the first stop byte is the lowest clear high bit among the first
/// eight, their 7-bit groups are packed in three mask-and-shift steps,
/// and a 9th and 10th byte are folded in by masks, so a value's length
/// costs no data-dependent branch. Only the overflow refusal branches.
/// Within a buffer's last 15 bytes the load is of those bytes padded
/// with zeros; a zero byte ends a varint, so one cut off by the end of
/// the buffer reads as longer than the bytes left and is refused.
/// Non-minimal encodings (a group of zeros with its continuation bit
/// set) are accepted.
#[inline]
pub fn try_read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let rest = buf.get(*pos..)?;
    let chunk = match rest.first_chunk::<16>() {
        Some(chunk) => *chunk,
        None => {
            let mut padded = [0u8; 16];
            padded[..rest.len()].copy_from_slice(rest);
            padded
        }
    };
    let x = u128::from_le_bytes(chunk);
    let w = x as u64;
    // High bit clear marks the last byte; `keep` masks every byte up to
    // and including the first such one (all eight when there is none).
    let stops = !w & 0x8080_8080_8080_8080;
    let keep = stops ^ stops.wrapping_sub(1);
    let mut v = w & keep;
    v = ((v & 0x7f00_7f00_7f00_7f00) >> 1) | (v & 0x007f_007f_007f_007f);
    v = ((v & 0x3fff_0000_3fff_0000) >> 2) | (v & 0x0000_3fff_0000_3fff);
    v = ((v & 0x0fff_ffff_0000_0000) >> 4) | (v & 0x0000_0000_0fff_ffff);
    let ninth = (x >> 64) as u64 & 0xff;
    let tenth = (x >> 72) as u64 & 0xff;
    // All ones when the varint reaches the 9th byte, and the 10th.
    let has_ninth = 0u64.wrapping_sub(u64::from(stops == 0));
    let has_tenth = has_ninth & 0u64.wrapping_sub(ninth >> 7);
    // At shift 63 only the lowest bit still fits in the u64 domain, and
    // a 10th byte must end the varint.
    if tenth & has_tenth > 1 {
        return None;
    }
    v |= ((ninth & 0x7f) << 56) & has_ninth;
    v |= (tenth << 63) & has_tenth;
    // `trailing_zeros` is 64 with no stop among the first eight bytes,
    // which counts nine.
    let len = (stops.trailing_zeros() as usize >> 3) + (1 + (has_tenth & 1) as usize);
    if len > rest.len() {
        return None;
    }
    *pos += len;
    Some(v)
}

/// Number of bytes [`write_varint`] would use for `v`: one per 7
/// significant bits, and one for zero.
#[inline]
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Maps a signed value to an unsigned one with small magnitudes staying
/// small (0, -1, 1, -2 → 0, 1, 2, 3).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a signed value as a zigzag varint.
#[inline]
pub fn write_signed(v: i64, out: &mut Vec<u8>) {
    write_varint(zigzag(v), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            buf.clear();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v), "length mismatch for {v}");
            let mut pos = 0;
            assert_eq!(try_read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_sequence_roundtrip() {
        let mut buf = Vec::new();
        for v in 0..10_000u64 {
            write_varint(v * v, &mut buf);
        }
        let mut pos = 0;
        for v in 0..10_000u64 {
            assert_eq!(try_read_varint(&buf, &mut pos).unwrap(), v * v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn try_read_varint_matches_and_rejects_truncation() {
        let mut buf = Vec::new();
        for &v in &[0u64, 127, 128, u64::MAX] {
            buf.clear();
            write_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(try_read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
            // Every strict prefix is a truncated varint.
            for cut in 0..buf.len() {
                let mut pos = 0;
                assert_eq!(try_read_varint(&buf[..cut], &mut pos), None);
            }
        }
        // 10 continuation bytes + terminator: overflows the 64-bit domain.
        let mut overlong = vec![0x80u8; 10];
        overlong.push(0x01);
        let mut pos = 0;
        assert_eq!(try_read_varint(&overlong, &mut pos), None);
        // 10th byte whose high bits fall off the end of the u64: also
        // rejected, not silently wrapped ...
        let mut dropped = vec![0x80u8; 9];
        dropped.push(0x02);
        let mut pos = 0;
        assert_eq!(try_read_varint(&dropped, &mut pos), None);
        // ... while the largest encodable value still parses.
        let mut max = Vec::new();
        write_varint(u64::MAX, &mut max);
        let mut pos = 0;
        assert_eq!(try_read_varint(&max, &mut pos), Some(u64::MAX));
    }

    /// Values at every length boundary, written at start offsets 0..=8
    /// and followed by 0..=17 bytes of `0x00` or `0xFF`, so each is read
    /// from a zero-padded load (fewer than 16 bytes left) and from a full
    /// one.
    #[test]
    fn every_length_boundary_decodes_at_every_offset_and_padding() {
        let cases = [
            0u64,
            127,
            128,
            (1 << 56) - 1,
            1 << 56,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ];
        for &v in &cases {
            let mut code = Vec::new();
            write_varint(v, &mut code);
            for offset in 0..=8 {
                for pad in 0..=17 {
                    for fill in [0x00u8, 0xFF] {
                        let mut buf = vec![0xFFu8; offset];
                        buf.extend_from_slice(&code);
                        buf.resize(buf.len() + pad, fill);
                        let mut pos = offset;
                        let got = try_read_varint(&buf, &mut pos);
                        let at = format!("{v} at offset {offset}, {pad} bytes of {fill:#x} after");
                        assert_eq!(got, Some(v), "{at}");
                        assert_eq!(pos, offset + code.len(), "{at}");
                    }
                }
            }
        }
    }

    /// Nine continuation bytes leave one bit of the u64: a 10th byte of
    /// `0` or `1` ends the varint, any other (a continuing one included)
    /// overflows, whether the 16-byte load is padded or not.
    #[test]
    fn every_tenth_byte_is_accepted_or_refused() {
        for tenth in 0..=255u8 {
            for pad in [0usize, 6, 16] {
                let mut buf = vec![0xFFu8; 9];
                buf.push(tenth);
                buf.resize(buf.len() + pad, 0x00);
                let mut pos = 0;
                let got = try_read_varint(&buf, &mut pos);
                if tenth <= 1 {
                    assert_eq!(
                        got,
                        Some(u64::MAX >> 1 | u64::from(tenth) << 63),
                        "{tenth}, pad {pad}"
                    );
                    assert_eq!(pos, 10, "{tenth}, pad {pad}");
                } else {
                    assert_eq!(got, None, "{tenth}, pad {pad}");
                }
            }
        }
    }

    /// The varint writer as one byte per step: the oracle for
    /// [`write_varint`], whose one-word store must write the same bytes.
    fn write_varint_bytewise(mut v: u64, out: &mut Vec<u8>) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    /// Every value one below, at and one above a power of two (so every
    /// length boundary), written after 0–2 bytes into a buffer with room
    /// for the one-word store and into one without: the byte loop's
    /// bytes, the capacity the byte loop leaves, and a round trip.
    #[test]
    fn writer_matches_the_byte_loop_at_every_length_boundary() {
        let mut cases = vec![0u64, u64::MAX];
        for s in 1..64 {
            cases.extend([(1u64 << s) - 1, 1 << s, (1 << s) + 1]);
        }
        for &v in &cases {
            let mut want = Vec::new();
            write_varint_bytewise(v, &mut want);
            assert_eq!(want.len(), varint_len(v), "{v}");
            for prefix in 0..3 {
                for room in [0, 16] {
                    let mut out = Vec::with_capacity(prefix + want.len() + room);
                    out.resize(prefix, 0xEE);
                    let capacity = out.capacity();
                    write_varint(v, &mut out);
                    let at = format!("{v} after {prefix} bytes, {room} spare");
                    assert_eq!(&out[..prefix], &[0xEE; 3][..prefix], "{at}");
                    assert_eq!(&out[prefix..], &want[..], "{at}");
                    assert_eq!(out.capacity(), capacity, "{at}");
                    let mut pos = prefix;
                    assert_eq!(try_read_varint(&out, &mut pos), Some(v), "{at}");
                    assert_eq!(pos, out.len(), "{at}");
                }
            }
        }
    }

    /// A body of every varint length of count, behind a slot sized for
    /// every other: the count's varint, then the body, wherever it
    /// started.
    #[test]
    fn write_prefixed_puts_the_count_before_the_body() {
        let lens = [0usize, 1, 127, 128, 16_383, 16_384, 1 << 21];
        for &expect in &lens {
            for &len in &lens {
                let mut out = vec![0xEE; 3];
                let body = write_prefixed(&mut out, expect, |out| {
                    out.extend((0..len).map(|i| i as u8));
                });
                let mut want = vec![0xEE; 3];
                write_varint(len as u64, &mut want);
                let start = want.len();
                want.extend((0..len).map(|i| i as u8));
                assert_eq!(body, start..start + len, "{len} expecting {expect}");
                assert!(out == want, "{len} expecting {expect}");
            }
        }
    }

    #[test]
    fn zigzag_is_bijective_on_extremes() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_values_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        // Small diffs encode in one byte.
        assert_eq!(varint_len(zigzag(63)), 1);
    }

    #[test]
    fn signed_roundtrip() {
        let mut buf = Vec::new();
        let cases = [i64::MIN, -1_000_000, -1, 0, 1, 1_000_000, i64::MAX];
        for &v in &cases {
            buf.clear();
            write_signed(v, &mut buf);
            let mut pos = 0;
            assert_eq!(unzigzag(try_read_varint(&buf, &mut pos).unwrap()), v);
        }
    }
}
