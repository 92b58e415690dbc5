//! Elias gamma codes: a bit-level alternative to byte codes.
//!
//! The paper notes that CPAM users can plug in gamma coding for better
//! space at the cost of slower encode/decode (Section 8, "Compression on
//! Blocks"). This module provides the bit reader/writer and gamma code
//! used by [`crate::GammaCodec`].

/// An append-only bit buffer (LSB-first within each byte).
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty bit buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value`, whole words at a time:
    /// the value is shifted to the current bit offset once and OR-ed in
    /// as bytes (at most 9 of them for 64 bits), never bit by bit.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        if width == 0 {
            return;
        }
        let value = value & width_mask(width);
        let byte_index = self.bit_len / 8;
        let bit_off = self.bit_len % 8;
        // Widened so the offset shift cannot overflow: 64 bits shifted
        // by up to 7 spans at most 71 bits = 9 bytes.
        let shifted = u128::from(value) << bit_off;
        let le = shifted.to_le_bytes();
        let total_bytes = (self.bit_len + width as usize).div_ceil(8);
        self.bytes.resize(total_bytes, 0);
        for (k, b) in le[..total_bytes - byte_index].iter().enumerate() {
            self.bytes[byte_index + k] |= b;
        }
        self.bit_len += width as usize;
    }

    /// Appends `v + 1` in Elias gamma code, for every `u64` `v` (the
    /// shift makes 0 representable): `floor(log2 (v + 1))` zero bits,
    /// then the binary representation of `v + 1` MSB-first, so the
    /// leading 1 terminates the zeros. `u64::MAX` is written as
    /// gamma(2⁶⁴) — 64 zero bits, a one, then 64 zero bits.
    pub fn write_gamma0(&mut self, v: u64) {
        let Some(code) = v.checked_add(1) else {
            self.write_bits(0, 64);
            self.write_bits(1, 1);
            self.write_bits(0, 64);
            return;
        };
        let width = 64 - code.leading_zeros();
        self.write_bits(0, width - 1);
        // MSB-first emission = one LSB-first append of the bit-reversed
        // value.
        self.write_bits(code.reverse_bits() >> (64 - width), width);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Consumes the writer and returns the packed bytes.
    pub fn into_bytes(self) -> Box<[u8]> {
        self.bytes.into_boxed_slice()
    }
}

/// The low-`width` mask in the u64 domain (`width <= 64`).
#[inline]
fn width_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A sequential reader over bits written by [`BitWriter`].
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Starts reading from the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// The next `width` bits without consuming them, zero-padded past
    /// the end of the buffer.
    #[inline]
    fn peek_bits(&self, width: u32) -> u64 {
        let byte_index = self.pos / 8;
        let bit_off = self.pos % 8;
        let end_byte = ((self.pos + width as usize).div_ceil(8)).min(self.bytes.len());
        let mut window = [0u8; 16];
        if byte_index < end_byte {
            window[..end_byte - byte_index].copy_from_slice(&self.bytes[byte_index..end_byte]);
        }
        ((u128::from_le_bytes(window) >> bit_off) as u64) & width_mask(width)
    }

    /// Reads one bit, or `None` past the end of the buffer.
    fn try_read_bit(&mut self) -> Option<u64> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (self.pos % 8)) & 1;
        self.pos += 1;
        Some(u64::from(bit))
    }

    /// Reads the next `width` bits (LSB-first), whole words at a time,
    /// or `None` if fewer than `width` bits remain.
    fn try_read_bits(&mut self, width: u32) -> Option<u64> {
        debug_assert!(width <= 64);
        if self.pos + width as usize > self.bytes.len() * 8 {
            return None;
        }
        let v = self.peek_bits(width);
        self.pos += width as usize;
        Some(v)
    }

    /// Reads a code written by [`BitWriter::write_gamma0`], returning
    /// `v`: the one gamma decoder. `None` (leaving the position
    /// unspecified) if the bits at the read position are not a whole
    /// code: no `1` within the 64 bits a code's zero run can span (bar
    /// gamma(2⁶⁴)), or fewer value bits left than the run announces.
    /// Never panics. Finds the run with one `trailing_zeros` on a 64-bit
    /// window, then reads the value bits in one call.
    pub fn try_read_gamma0(&mut self) -> Option<u64> {
        let avail = self.bytes.len() * 8 - self.pos;
        let window = self.peek_bits(avail.min(64) as u32);
        if window == 0 {
            return self.try_read_top_code(avail);
        }
        // The run ends inside the window, so within the buffer.
        let zeros = window.trailing_zeros();
        self.pos += zeros as usize;
        // Value bits are stored MSB-first: reverse the LSB-first read.
        let width = zeros + 1;
        let v = self.try_read_bits(width)?.reverse_bits() >> (64 - width);
        Some(v - 1)
    }

    /// gamma(2⁶⁴), the code of `u64::MAX` and the one code whose zero
    /// run fills a 64-bit window: 64 zeros, a one, 64 zeros.
    fn try_read_top_code(&mut self, avail: usize) -> Option<u64> {
        if avail < 129 {
            return None;
        }
        self.pos += 64;
        let one = self.try_read_bit()?;
        let zeros = self.try_read_bits(64)?;
        (one == 1 && zeros == 0).then_some(u64::MAX)
    }

    /// Bytes the codes read so far occupy, the last one partly.
    pub(crate) fn bytes_read(&self) -> usize {
        self.pos.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_roundtrip_small_values() {
        let mut w = BitWriter::new();
        for v in 1..=300u64 {
            w.write_gamma0(v - 1);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for v in 1..=300u64 {
            assert_eq!(r.try_read_gamma0(), Some(v - 1));
        }
    }

    #[test]
    fn gamma_roundtrip_large_values() {
        let cases = [1u64, 2, 3, 1 << 20, (1 << 40) + 12345, u64::MAX >> 1];
        let mut w = BitWriter::new();
        for &v in &cases {
            w.write_gamma0(v - 1);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.try_read_gamma0(), Some(v - 1));
        }
    }

    #[test]
    fn gamma_one_costs_one_bit() {
        let mut w = BitWriter::new();
        w.write_gamma0(0);
        assert_eq!(w.bit_len(), 1);
        w.write_gamma0(1);
        // gamma(2) = 0 10 -> 3 bits.
        assert_eq!(w.bit_len(), 4);
    }

    /// Reference bit-at-a-time writer: the layout contract the
    /// word-at-a-time implementation must preserve (LSB-first within
    /// each byte, bytes in stream order).
    fn write_bits_reference(bytes: &mut Vec<u8>, bit_len: &mut usize, value: u64, width: u32) {
        for i in 0..width {
            let bit = (value >> i) & 1;
            let byte_index = *bit_len / 8;
            if byte_index == bytes.len() {
                bytes.push(0);
            }
            bytes[byte_index] |= (bit as u8) << (*bit_len % 8);
            *bit_len += 1;
        }
    }

    #[test]
    fn bits_roundtrip_every_width() {
        for width in 0..=64u32 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let vals = [
                0u64,
                1,
                u64::MAX,
                u64::MAX >> 1,
                0xDEAD_BEEF_CAFE_F00D,
                0x5555_5555_5555_5555,
                1u64 << width.saturating_sub(1),
            ];
            let mut w = BitWriter::new();
            for &v in &vals {
                w.write_bits(v, width);
                // A 3-bit marker keeps successive fields byte-misaligned.
                w.write_bits(0b101, 3);
            }
            assert_eq!(w.bit_len(), vals.len() * (width as usize + 3));
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &vals {
                assert_eq!(r.try_read_bits(width).unwrap(), v & mask, "width {width}");
                assert_eq!(
                    r.try_read_bits(3).unwrap(),
                    0b101,
                    "marker after width {width}"
                );
            }
        }
    }

    #[test]
    fn word_at_a_time_layout_matches_bit_at_a_time() {
        // Mixed widths at every alignment, checked byte-for-byte against
        // the reference writer.
        let fields: Vec<(u64, u32)> = (0..=64u32)
            .map(|w| (0x0123_4567_89AB_CDEF ^ u64::from(w), w))
            .chain([(1, 1), (0, 5), (u64::MAX, 64), (0b1011, 4)])
            .collect();
        let mut w = BitWriter::new();
        let (mut ref_bytes, mut ref_len) = (Vec::new(), 0usize);
        for &(v, width) in &fields {
            let masked = if width == 64 {
                v
            } else {
                v & ((1u64 << width) - 1)
            };
            w.write_bits(v, width);
            write_bits_reference(&mut ref_bytes, &mut ref_len, masked, width);
        }
        assert_eq!(w.bit_len(), ref_len);
        assert_eq!(&w.into_bytes()[..], &ref_bytes[..]);
    }

    #[test]
    fn read_bits_agrees_with_read_bit() {
        let mut w = BitWriter::new();
        w.write_gamma0(123_456_789 - 1);
        w.write_bits(0xABCD, 16);
        w.write_gamma0(0);
        let bytes = w.into_bytes();
        let mut bitwise = BitReader::new(&bytes);
        let mut total = 0usize;
        // Total bits: gamma(123456789) = 2*27 - 1, 16, gamma(1) = 1.
        for _ in 0..(2 * 27 - 1) + 16 + 1 {
            bitwise.try_read_bit().unwrap();
            total += 1;
        }
        assert_eq!(total, bytes.len() * 8 - (8 - (total % 8)) % 8);
        let mut wordwise = BitReader::new(&bytes);
        assert_eq!(wordwise.try_read_gamma0(), Some(123_456_789 - 1));
        assert_eq!(wordwise.try_read_bits(16).unwrap(), 0xABCD);
        assert_eq!(wordwise.try_read_gamma0(), Some(0));
    }

    #[test]
    fn gamma_roundtrip_across_long_zero_runs() {
        // Values near the top of the u64 domain produce 63-zero runs
        // that span word windows at odd alignments.
        let cases = [u64::MAX >> 1, (1 << 62) + 7, 1 << 33, (1 << 50) - 1];
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2); // misalign everything that follows
        for &v in &cases {
            w.write_gamma0(v - 1);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.try_read_bits(2).unwrap(), 0b11);
        for &v in &cases {
            assert_eq!(r.try_read_gamma0(), Some(v - 1));
        }
    }

    #[test]
    fn bit_writer_packs_tightly() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0b01, 2);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.try_read_bit().unwrap(), 1);
        assert_eq!(r.try_read_bit().unwrap(), 1);
        assert_eq!(r.try_read_bit().unwrap(), 0);
        assert_eq!(r.try_read_bit().unwrap(), 1);
        assert_eq!(r.try_read_bit().unwrap(), 1);
        assert_eq!(r.try_read_bit().unwrap(), 0);
        // Two padding bits are left in the byte, and nothing after it.
        assert_eq!(r.try_read_bits(3), None);
        assert_eq!(r.try_read_bits(2), Some(0));
        assert_eq!(r.try_read_bit(), None);
    }
}
