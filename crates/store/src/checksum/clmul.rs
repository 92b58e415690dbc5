//! CRC-32 folding by carry-less multiplication (PCLMULQDQ), after Gopal
//! et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction" (Intel, 2009), in its bit-reflected form.
//!
//! Four 128-bit accumulators take 64 input bytes per step, each folded
//! forward 512 bits by two carry-less multiplies by constants
//! (`x^(512±32) mod P`, reflected). The four are then folded into one,
//! the remaining whole 16-byte chunks are folded in one at a time, and a
//! Barrett reduction takes the 128 bits down to the 32-bit register.
//! Bytes after the last whole chunk are left to the caller.
//!
//! This is the only module of the store that uses `unsafe`: the
//! intrinsics need it, and each use says why it holds.

/// `x^(4·128+32) mod P` and `x^(4·128-32) mod P`, reflected: folds an
/// accumulator over 64 bytes.
const K1: i64 = 0x1_5444_2bd4;
const K2: i64 = 0x1_c6e4_1596;
/// `x^(128+32) mod P` and `x^(128-32) mod P`, reflected: folds over 16
/// bytes.
const K3: i64 = 0x1_7519_97d0;
const K4: i64 = 0x0_ccaa_009e;
/// `x^64 mod P`, reflected: folds the last 64 bits over 32.
const K5: i64 = 0x1_63cd_6124;
/// The polynomial `P` and `μ = x^64 / P`, reflected, for the Barrett
/// reduction.
const P_X: i64 = 0x1_DB71_0641;
const U_PRIME: i64 = 0x1_F701_1641;

/// Folds the whole 16-byte chunks of `bytes` into the CRC register
/// `crc` (the running, not yet inverted, register of the reflected
/// CRC-32), returning the new register and the bytes after the last
/// whole chunk. `None` when `bytes` is shorter than 64 bytes or the CPU
/// has no PCLMULQDQ.
pub(super) fn fold(crc: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let chunks = bytes.chunks_exact(16);
        let rest = chunks.remainder();
        // SAFETY: PCLMULQDQ was detected just above, and every other
        // intrinsic `fold_chunks` uses is SSE2, which every x86_64 CPU
        // has. It is given at least four chunks.
        return Some((unsafe { x86::fold_chunks(crc, chunks) }, rest));
    }
    let _ = (crc, bytes);
    None
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    use std::slice::ChunksExact;

    use super::{K1, K2, K3, K4, K5, P_X, U_PRIME};

    /// The next 16-byte chunk, loaded as one vector.
    ///
    /// # Safety
    ///
    /// The CPU must have SSE2 (every x86_64 CPU does).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(chunks: &mut ChunksExact<'_, u8>) -> __m128i {
        let chunk: &[u8; 16] = chunks
            .next()
            .and_then(|c| c.try_into().ok())
            .expect("a whole chunk");
        // SAFETY: `chunk` is 16 readable bytes, and an unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }
    }

    /// `acc` folded forward over 128 bits (times the pair of constants
    /// in `keys`), plus `next`.
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ and SSE2.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Folds every chunk of `chunks` into the register `crc`.
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ and SSE2, and `chunks` must hold at
    /// least four chunks.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) unsafe fn fold_chunks(crc: u32, mut chunks: ChunksExact<'_, u8>) -> u32 {
        // SAFETY (every call below): the caller's CPU features, and
        // `load` is called only while a chunk is left.
        unsafe {
            let mut x3 = load(&mut chunks);
            let mut x2 = load(&mut chunks);
            let mut x1 = load(&mut chunks);
            let mut x0 = load(&mut chunks);
            x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

            let k1k2 = _mm_set_epi64x(K2, K1);
            while chunks.len() >= 4 {
                x3 = fold_into(x3, load(&mut chunks), k1k2);
                x2 = fold_into(x2, load(&mut chunks), k1k2);
                x1 = fold_into(x1, load(&mut chunks), k1k2);
                x0 = fold_into(x0, load(&mut chunks), k1k2);
            }

            let k3k4 = _mm_set_epi64x(K4, K3);
            let mut x = fold_into(x3, x2, k3k4);
            x = fold_into(x, x1, k3k4);
            x = fold_into(x, x0, k3k4);
            while chunks.len() > 0 {
                x = fold_into(x, load(&mut chunks), k3k4);
            }

            // 128 bits to 64: the high half folded over the low, then the
            // low 32 bits folded over the rest.
            let low32 = _mm_set_epi32(0, 0, 0, !0);
            let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
            let x = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
                _mm_srli_si128(x, 4),
            );

            // Barrett reduction, 64 bits to 32: T1 = (R mod x^32)·μ,
            // T2 = (T1 mod x^32)·P, and the register is (R ^ T2) / x^32,
            // the second 32-bit lane in the reflected order.
            let pu = _mm_set_epi64x(U_PRIME, P_X);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
            _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
        }
    }
}
