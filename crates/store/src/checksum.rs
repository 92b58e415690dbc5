//! CRC-32 (IEEE 802.3, reflected) for corruption detection in snapshot
//! pages, log records, the pin table, the partition map and wire frames
//! — every checksum the store and the server compute is [`crc32`] — the
//! envelope of every sealed file ([`seal`], [`unseal`]), and the type
//! fingerprint stored beside it ([`schema_id`]).

use crate::error::StoreError;

mod clmul;

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table. `TABLES[k][b]` is the CRC
/// register after byte `b` is followed by `k` zero bytes, so the byte at
/// distance `k` from the end of a 16-byte block is looked up in
/// `TABLES[k]`.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// CRC-32 of `bytes`.
///
/// Inputs of 64 bytes and more, on a CPU with PCLMULQDQ, are folded
/// 16 bytes at a time by carry-less multiplication (the private `clmul`
/// module, the store's one use of intrinsics). Shorter inputs, the last
/// `len % 16` bytes of longer ones, and every input on other CPUs take
/// slice-by-16: sixteen 256-entry tables (16 KiB, built at compile time)
/// fold 16 input bytes per step with 16 independent lookups instead of a
/// chain of 16 dependent ones, and the last `len % 16` bytes take the
/// classic byte-at-a-time loop. Same polynomial, same bytes: the result
/// equals that loop's for every input, so checksums already on disk or
/// on the wire are unchanged. On a 2-core Xeon @ 2.1 GHz (release build),
/// over a 16 MiB buffer, the folding runs at 0.085–0.13 ns/B, slice-by-16
/// at 0.59–0.66 ns/B and the byte loop at 2.99–3.09 ns/B; a 1.7 KB leaf
/// record takes ~0.1–0.15 µs, ~1 µs by slice-by-16.
///
/// ```
/// // The standard check value for CRC-32/IEEE.
/// assert_eq!(store::checksum::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let (crc, rest) = clmul::fold(!0, bytes).unwrap_or((!0, bytes));
    !slice_by_16(crc, rest)
}

/// The CRC register `crc` after `bytes`, by slice-by-16.
fn slice_by_16(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xff) as usize]
            ^ t[14][((lo >> 8) & 0xff) as usize]
            ^ t[13][((lo >> 16) & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// Seals `body` in the envelope of a file read whole (the partition
/// map, the pin table, a page's metadata section): `magic`, `body`,
/// then the CRC-32 of both, little-endian.
pub fn seal(magic: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + body.len() + 4);
    out.extend_from_slice(magic);
    out.extend_from_slice(body);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The body of an envelope written by [`seal`]: the length, then the
/// magic, then the CRC are checked, and only then is the body returned.
///
/// # Errors
///
/// [`StoreError::Truncated`] when `bytes` cannot hold the magic and the
/// CRC, [`StoreError::BadMagic`] for a foreign file, and
/// [`StoreError::ChecksumMismatch`] for truncation or bit flips.
pub fn unseal<'a>(magic: &[u8], bytes: &'a [u8]) -> Result<&'a [u8], StoreError> {
    if bytes.len() < magic.len() + 4 {
        return Err(StoreError::Truncated("sealed file envelope"));
    }
    let (sealed, trailer) = bytes.split_at(bytes.len() - 4);
    let Some(body) = sealed.strip_prefix(magic) else {
        return Err(StoreError::BadMagic);
    };
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = crc32(sealed);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

/// A 32-bit fingerprint of a type, stored in on-disk headers so that a
/// store directory written as, say, `PacStore<u64, u64>` is rejected
/// with a typed error — instead of misparsed — when reopened with
/// different key/value types.
///
/// Implementation: FNV-1a over [`std::any::type_name`]. The name's
/// exact rendering is not guaranteed across compiler versions, so a
/// fingerprint mismatch can also mean "written by a differently
/// rendered toolchain" — a safe false positive.
pub fn schema_id<T: ?Sized>() -> u32 {
    let mut hash = 0x811C_9DC5u32;
    for byte in std::any::type_name::<T>().bytes() {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced: one lookup in the classic
    /// table per input byte. Kept as the oracle the fast kernel must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    /// `len` pseudo-random bytes from a fixed seed (xorshift64*).
    fn seeded_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn schema_ids_distinguish_types() {
        assert_ne!(schema_id::<(u64, u64)>(), schema_id::<(u64, u32)>());
        assert_ne!(schema_id::<(u64, u64)>(), schema_id::<u64>());
        assert_ne!(schema_id::<(u64, String)>(), schema_id::<(u64, u64)>());
        assert_eq!(schema_id::<(u64, u64)>(), schema_id::<(u64, u64)>());
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Both kernels, and `crc32` whichever it picks, equal the byte loop
    /// at every length up to 2 100 (every split of the fold's 64-byte
    /// steps, 16-byte chunks and tail) from three start offsets, and on
    /// a 1 MiB buffer.
    #[test]
    fn both_kernels_match_the_byte_loop() {
        let data = seeded_bytes(2100 + 16, 0x9E37_79B9_7F4A_7C15);
        for start in [0, 1, 13] {
            for len in 0..=2100 {
                let slice = &data[start..start + len];
                let want = crc32_bytewise(slice);
                let at = format!("start {start}, len {len}");
                assert_eq!(crc32(slice), want, "{at}");
                assert_eq!(!slice_by_16(!0, slice), want, "slice-by-16, {at}");
                let folded = clmul::fold(!0, slice);
                if let Some((crc, rest)) = folded {
                    assert_eq!(!slice_by_16(crc, rest), want, "fold, {at}");
                    assert!(len >= 64 && rest.len() == len % 16, "{at}");
                }
                #[cfg(target_arch = "x86_64")]
                if len >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
                    assert!(folded.is_some(), "{at}: the fold did not run");
                }
            }
        }
        let big = seeded_bytes(1 << 20, 29);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn unseal_checks_length_then_magic_then_crc() {
        let sealed = seal(b"MAGIC", b"body");
        assert_eq!(sealed.len(), 5 + 4 + 4);
        assert_eq!(unseal(b"MAGIC", &sealed).unwrap(), b"body");
        assert_eq!(unseal(b"MAGIC", &seal(b"MAGIC", b"")).unwrap(), b"");
        assert!(matches!(
            unseal(b"MAGIC", &sealed[..8]),
            Err(StoreError::Truncated(_))
        ));
        assert!(matches!(
            unseal(b"MAGIK", &sealed),
            Err(StoreError::BadMagic)
        ));
        for i in 0..sealed.len() {
            let mut flipped = sealed.clone();
            flipped[i] ^= 0x10;
            assert!(unseal(b"MAGIC", &flipped).is_err(), "flip at {i}");
        }
        assert!(matches!(
            unseal(b"MAGIC", &sealed[..sealed.len() - 1]),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 31) as u8;
        }
        let clean = crc32(&data);
        for byte in [0usize, 500, 1023] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
