//! Seeded load generation. The program under test only ever sees the
//! keys and ops produced here; nothing in this file calls into it.
//!
//! Keys are `u64` drawn sparsely from `[0, 2^40)`. The two low bits of
//! a key say what the workload may do with it, so every answer can be
//! checked inline without an oracle lookup inside a timed loop:
//!
//! | low bits | class    | stored? | written by             |
//! |----------|----------|---------|------------------------|
//! | `..00`   | stable   | always  | puts (new generation)  |
//! | `..10`   | volatile | varies  | fresh inserts, deletes |
//! | `...1`   | miss     | never   | nothing                |
//!
//! A value is `f(key, generation)`; a read of a stable key must return
//! `Some(v)` with `v` a valid value of *that* key at a generation the
//! run has reached, a read of a miss key must return `None`. Which
//! generation is the latest is checked by the end-of-run full compare
//! against the `BTreeMap` oracle.

/// Keys live in `[0, 2^KEY_BITS)`.
pub const KEY_BITS: u32 = 40;
/// Exclusive upper bound of the key space.
pub const KEY_SPAN: u64 = 1 << KEY_BITS;

const VALUE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The value stored under `key` at write generation `gen`.
#[inline]
pub fn value_of(key: u64, gen: u64) -> u64 {
    key.wrapping_mul(VALUE_MUL).wrapping_add(gen)
}

/// True if `v` is `value_of(key, g)` for some `g <= max_gen`.
#[inline]
pub fn value_ok(key: u64, v: u64, max_gen: u64) -> bool {
    v.wrapping_sub(key.wrapping_mul(VALUE_MUL)) <= max_gen
}

/// xorshift64* seeded through one splitmix64 step, so nearby seeds give
/// unrelated streams and seed 0 is usable.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, bound)` (bias below 2^-24 for the bounds used here).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        (((self.next_u64() >> 24) as u128 * bound as u128) >> 40) as u64
    }

    /// A key that is never stored.
    #[inline]
    pub fn miss_key(&mut self) -> u64 {
        (self.next_u64() & (KEY_SPAN - 1)) | 1
    }

    /// A key of the insert/delete class.
    #[inline]
    pub fn volatile_key(&mut self) -> u64 {
        (self.next_u64() & (KEY_SPAN - 4)) | 2
    }
}

/// `n` distinct stable keys in increasing order. With `residue =
/// Some((r, m))` every key's stable index (`key >> 2`) is `r` modulo
/// `m`, which is how `serve_mixed` gives each client its own keys.
pub fn stable_keys(rng: &mut Rng, n: usize, residue: Option<(u64, u64)>) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::with_capacity(n + n / 64 + 16);
    while keys.len() < n {
        let want = n - keys.len();
        for _ in 0..want + want / 64 + 16 {
            let mut slot = rng.next_u64() & (KEY_SPAN / 4 - 1);
            if let Some((r, m)) = residue {
                slot = slot - slot % m + r;
            }
            keys.push(slot << 2);
        }
        keys.sort_unstable();
        keys.dedup();
    }
    // Drop the surplus evenly rather than from one end, so the key
    // range still spans the whole space.
    let surplus = keys.len() - n;
    if let Some(stride) = keys.len().checked_div(surplus) {
        let mut i = 0usize;
        keys.retain(|_| {
            i += 1;
            !(i.is_multiple_of(stride) && i / stride <= surplus)
        });
    }
    debug_assert_eq!(keys.len(), n);
    keys
}

/// The stable key a *small* write overwrites: one at an odd index.
/// Bulk writes take even indexes ([`bulk_target`]). The two kinds of
/// write take turns lap by lap, and with disjoint targets the expected
/// final contents do not depend on how their turns interleave.
#[inline]
pub fn small_target(rng: &mut Rng, keys: &[u64]) -> u64 {
    keys[rng.below(keys.len() as u64 / 2) as usize * 2 + 1]
}

/// The stable key a *bulk* write overwrites: one at an even index.
#[inline]
pub fn bulk_target(rng: &mut Rng, keys: &[u64]) -> u64 {
    keys[rng.below(keys.len() as u64 / 2) as usize * 2]
}

/// Running hash of everything generated for the program: equal seeds
/// must print equal hashes, whatever the timing of the run was.
#[derive(Clone, Copy)]
pub struct OpHash(pub u64);

impl OpHash {
    pub fn new() -> OpHash {
        OpHash(0xCBF2_9CE4_8422_2325)
    }

    #[inline]
    pub fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    pub fn mix_all(&mut self, xs: &[u64]) {
        for &x in xs {
            self.mix(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_keys_and_classes() {
        let a = stable_keys(&mut Rng::new(7, 1), 10_000, None);
        let b = stable_keys(&mut Rng::new(7, 1), 10_000, None);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10_000);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|k| k & 3 == 0 && *k < KEY_SPAN));
        let c = stable_keys(&mut Rng::new(8, 1), 10_000, None);
        assert_ne!(a, c);
        let mut rng = Rng::new(7, 2);
        assert!(rng.miss_key() & 1 == 1);
        assert!(rng.volatile_key() & 3 == 2);
    }

    #[test]
    fn residue_keys_belong_to_one_client() {
        let keys = stable_keys(&mut Rng::new(3, 1), 5_000, Some((2, 3)));
        assert_eq!(keys.len(), 5_000);
        assert!(keys.iter().all(|k| (k >> 2) % 3 == 2 && k & 3 == 0));
    }

    #[test]
    fn values_check_against_their_own_key_only() {
        let v = value_of(1234 << 2, 5);
        assert!(value_ok(1234 << 2, v, 5));
        assert!(!value_ok(1234 << 2, v, 4));
        assert!(!value_ok(1235 << 2, v, 1 << 20));
    }
}
