//! Variable-length byte codes (LEB128-style varints) and zigzag mapping.
//!
//! These are the "byte codes" of the paper (Section 3, "Encoding
//! schemes"), chosen because they are cheap to encode and decode while
//! wasting little space compared to bit-level codes such as gamma codes.

/// Appends `v` to `out` as a varint (7 bits per byte, MSB = continue).
///
/// ```
/// let mut buf = Vec::new();
/// codecs::bytecode::write_varint(300, &mut buf);
/// assert_eq!(buf, vec![0b1010_1100, 0b0000_0010]);
/// ```
#[inline]
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a varint from `buf` at `*pos`, advancing `*pos`: the one
/// varint decoder. Returns `None`, leaving `*pos` unspecified, when the
/// buffer ends mid-varint or the varint overflows 64 bits; never panics.
#[inline]
pub fn try_read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut shift = 0u32;
    let mut value = 0u64;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let group = u64::from(byte & 0x7f);
        // At shift 63 only the lowest bit still fits in the u64 domain.
        if shift >= 64 || (shift == 63 && group > 1) {
            return None;
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Number of bytes [`write_varint`] would use for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
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
