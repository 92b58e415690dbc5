//! `Codec::splice` is `encode` of the edited entries, to the byte.
//!
//! Every codec — the two overrides (`RawCodec`, `DeltaCodec`) and the two
//! that take the trait default (`GammaCodec`, `KeyDeltaCodec`) — is
//! spliced at the indices where the restart structure changes (0, 63, 64,
//! 65, the last entry, past the end) with overwrites, inserts, removes
//! and misses, and with random mixed batches, over every block length up
//! to three restart runs; the result must equal `encode` of the edited
//! entries before and after a `BlockIo` round trip. A counting `Delta`
//! type pins how many entries a delta splice re-encodes.

use std::cell::Cell;
use std::fmt::Debug;

use codecs::{
    BlockCursor, BlockIo, Codec, Delta, DeltaCodec, EncodedBlock, GammaCodec, KeyDeltaCodec,
    RawCodec, RESTART_INTERVAL,
};

/// Longest block tried: three restart runs and a bit.
const MAX_LEN: usize = 193;

/// An entry with a `u64` key, and what an overwrite does to it.
trait TestEntry: Clone + Debug + PartialEq {
    fn key(&self) -> u64;
    fn make(key: u64, salt: u64) -> Self;
    fn combine(old: &Self, new: &Self) -> Self;
}

impl TestEntry for u64 {
    fn key(&self) -> u64 {
        *self
    }
    fn make(key: u64, _salt: u64) -> Self {
        key
    }
    fn combine(_old: &Self, new: &Self) -> Self {
        *new
    }
}

impl TestEntry for (u64, u64) {
    fn key(&self) -> u64 {
        self.0
    }
    fn make(key: u64, salt: u64) -> Self {
        (key, salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (salt % 64))
    }
    fn combine(old: &Self, new: &Self) -> Self {
        (old.0, old.1.wrapping_add(new.1))
    }
}

/// One edit: `Some(entry)` puts (insert, or overwrite combining with the
/// old entry), `None` removes the key.
type Edit<E> = (u64, Option<E>);

/// Entry `i` of a test block has key `10 i + 10`, so `10 i + 5` is a
/// fresh key just before it (and `10 n + 5` one past the end).
fn block_entries<E: TestEntry>(n: usize) -> Vec<E> {
    (0..n as u64).map(|i| E::make(10 * i + 10, i)).collect()
}

/// The model: what the entries are after the edits.
fn edited<E: TestEntry>(entries: &[E], edits: &[Edit<E>]) -> Vec<E> {
    let mut map: std::collections::BTreeMap<u64, E> =
        entries.iter().map(|e| (e.key(), e.clone())).collect();
    for (k, new) in edits {
        match new {
            Some(new) => {
                let e = map
                    .get(k)
                    .map_or_else(|| new.clone(), |old| E::combine(old, new));
                map.insert(*k, e);
            }
            None => {
                map.remove(k);
            }
        }
    }
    map.into_values().collect()
}

fn splice<E: TestEntry, C: Codec<E>>(block: &C::Block, edits: &[Edit<E>]) -> C::Block {
    C::splice(
        block,
        edits,
        |e, (k, _)| e.key().cmp(k),
        |old, (_, new)| {
            new.as_ref()
                .map(|new| old.map_or_else(|| new.clone(), |old| E::combine(old, new)))
        },
    )
}

/// Splices `edits` into the encoded `entries` and checks the result
/// against `encode` of the model; returns the spliced block.
fn check<E: TestEntry, C: Codec<E>>(entries: &[E], edits: &[Edit<E>], what: &str) -> C::Block
where
    C::Block: PartialEq + Debug,
{
    let want = edited(entries, edits);
    let got = splice::<E, C>(&C::encode(entries), edits);
    assert_eq!(
        got,
        C::encode(&want),
        "{what}: n = {}, edits {edits:?}",
        entries.len()
    );
    assert_eq!(
        C::heap_bytes(&got),
        C::heap_bytes(&C::encode(&want)),
        "{what}"
    );
    let mut out = Vec::new();
    C::decode(&got, &mut out);
    assert_eq!(out, want, "{what}");
    got
}

/// [`check`], then the same comparison after a `BlockIo` round trip.
fn check_io<E: TestEntry, C: BlockIo<E>>(entries: &[E], edits: &[Edit<E>], what: &str)
where
    C::Block: PartialEq + Debug,
{
    let got = check::<E, C>(entries, edits, what);
    let mut bytes = Vec::new();
    C::write_block(&got, &mut bytes);
    let mut pos = 0;
    let back = C::read_block(&bytes, &mut pos).expect("spliced block reads back");
    assert_eq!(pos, bytes.len());
    assert_eq!(back, got, "{what}: BlockIo round trip");
}

/// The single-edit batches at the indices where restarts change, and
/// the same edits as one mixed batch.
fn point_batches<E: TestEntry>(n: usize) -> Vec<Vec<Edit<E>>> {
    let mut at: Vec<usize> = vec![0, 63, 64, 65, n.saturating_sub(1), n];
    at.sort_unstable();
    at.dedup();
    let mut batches = Vec::new();
    for &p in &at {
        let (hit, fresh) = (10 * p as u64 + 10, 10 * p as u64 + 5);
        if p < n {
            batches.push(vec![(hit, Some(E::make(hit, 7 + p as u64)))]);
            batches.push(vec![(hit, None)]);
        }
        batches.push(vec![(fresh, Some(E::make(fresh, 3 + p as u64)))]);
        batches.push(vec![(fresh, None)]);
    }
    // All of them at once: at each index an insert just before it and,
    // alternately, a remove or an overwrite of it.
    let mixed = at
        .iter()
        .flat_map(|&p| {
            let (hit, fresh) = (10 * p as u64 + 10, 10 * p as u64 + 5);
            let edit = (p < n).then(|| (hit, (p % 2 == 0).then(|| E::make(hit, 1))));
            std::iter::once((fresh, Some(E::make(fresh, 2)))).chain(edit)
        })
        .collect();
    batches.push(mixed);
    batches
}

/// Seeded sorted batches of 1–8 (and one of up to 40) random edits.
fn random_batches<E: TestEntry>(n: usize, seed: u64) -> Vec<Vec<Edit<E>>> {
    let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..6)
        .map(|round| {
            let m = if round == 5 {
                1 + next() % 40
            } else {
                1 + next() % 8
            };
            let mut keys: Vec<u64> = (0..m).map(|_| next() % (10 * n as u64 + 20)).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.into_iter()
                .map(|k| (k, (next() % 3 != 0).then(|| E::make(k, next()))))
                .collect()
        })
        .collect()
}

fn all_batches<E: TestEntry>(n: usize) -> Vec<Vec<Edit<E>>> {
    let mut batches = point_batches(n);
    batches.extend(random_batches(n, n as u64 + 1));
    batches
}

#[test]
fn raw_splice_is_encode() {
    for n in 0..=MAX_LEN {
        let entries = block_entries::<(u64, u64)>(n);
        for edits in all_batches(n) {
            check_io::<_, RawCodec>(&entries, &edits, "raw");
        }
    }
}

#[test]
fn delta_splice_is_encode() {
    for n in 0..=MAX_LEN {
        let pairs = block_entries::<(u64, u64)>(n);
        let keys = block_entries::<u64>(n);
        for edits in all_batches(n) {
            check_io::<_, DeltaCodec>(&pairs, &edits, "delta pairs");
        }
        for edits in all_batches(n) {
            check_io::<_, DeltaCodec>(&keys, &edits, "delta keys");
        }
    }
}

#[test]
fn gamma_default_splice_is_encode() {
    for n in 0..=MAX_LEN {
        let entries = block_entries::<u64>(n);
        for edits in all_batches(n) {
            check_io::<_, GammaCodec>(&entries, &edits, "gamma");
        }
    }
}

#[test]
fn key_delta_default_splice_is_encode() {
    for n in 0..=MAX_LEN {
        let entries = block_entries::<(u64, u64)>(n);
        for edits in all_batches(n) {
            check::<_, KeyDeltaCodec>(&entries, &edits, "key delta");
        }
    }
}

#[test]
fn delta_splice_shifts_by_whole_runs() {
    // A run's worth of inserts or removes and more: an old restart is
    // copied to a restart at another index, and the first old entry can
    // land on a later restart.
    for n in [1usize, 64, 65, 128, 129, MAX_LEN] {
        let entries: Vec<(u64, u64)> = (1..=n as u64)
            .map(|i| TestEntry::make(1_000 * i, i))
            .collect();
        for p in [0, 1, 64, n / 2, n] {
            for m in [63u64, 64, 65, 128] {
                // Fresh keys between entries p - 1 and p.
                let base = 1_000 * p as u64 + 1;
                let inserts: Vec<Edit<(u64, u64)>> = (base..base + m)
                    .map(|k| (k, Some(TestEntry::make(k, k))))
                    .collect();
                check_io::<_, DeltaCodec>(&entries, &inserts, "run inserts");
                let removes: Vec<Edit<(u64, u64)>> = (p + 1..=(p + m as usize).min(n))
                    .map(|i| (1_000 * i as u64, None))
                    .collect();
                check_io::<_, DeltaCodec>(&entries, &removes, "run removes");
            }
        }
    }
}

/// Every point access of a delta block agrees with its entries.
fn assert_accessible(block: &EncodedBlock, want: &[(u64, u64)]) {
    type D = DeltaCodec;
    for (i, e) in want.iter().enumerate() {
        assert_eq!(
            <D as Codec<(u64, u64)>>::cursor_at(block, i).peek(),
            Some(e),
            "cursor_at {i}"
        );
        assert_eq!(<D as Codec<(u64, u64)>>::get(block, i), *e, "get {i}");
        assert_eq!(
            <D as Codec<(u64, u64)>>::search_by(block, |x| x.0.cmp(&e.0)),
            Ok((i, *e)),
            "search_by {i}"
        );
    }
    assert!(<D as Codec<(u64, u64)>>::cursor_at(block, want.len())
        .peek()
        .is_none());
}

#[test]
fn spliced_delta_blocks_answer_every_point_access() {
    for n in [0usize, 1, 63, 64, 65, 127, 128, 129, MAX_LEN] {
        let entries = block_entries::<(u64, u64)>(n);
        for edits in all_batches::<(u64, u64)>(n) {
            let got = check::<_, DeltaCodec>(&entries, &edits, "delta");
            assert_accessible(&got, &edited(&entries, &edits));
        }
    }
}

thread_local! {
    /// Entries encoded by [`Counted`] on this thread.
    static ENCODED: Cell<usize> = const { Cell::new(0) };
}

/// A delta key that counts every entry it encodes.
#[derive(Clone, Debug, PartialEq)]
struct Counted(u64);

impl Delta for Counted {
    fn write_first(&self, out: &mut Vec<u8>) {
        ENCODED.with(|c| c.set(c.get() + 1));
        self.0.write_first(out);
    }
    fn write_delta(&self, prev: &Self, out: &mut Vec<u8>) {
        ENCODED.with(|c| c.set(c.get() + 1));
        self.0.write_delta(&prev.0, out);
    }
    fn try_read_first(buf: &[u8], pos: &mut usize) -> Option<Self> {
        u64::try_read_first(buf, pos).map(Counted)
    }
    fn try_read_delta(buf: &[u8], pos: &mut usize, prev: &Self) -> Option<Self> {
        u64::try_read_delta(buf, pos, &prev.0).map(Counted)
    }
}

/// Entries a delta splice of one edit into `n` keys re-encodes, after
/// checking that the result is `encode` of the model.
fn encoded_by_splice(n: usize, key: u64, put: bool) -> usize {
    let keys: Vec<u64> = (0..n as u64).map(|i| 10 * i + 10).collect();
    let mut want = keys.clone();
    match (want.binary_search(&key), put) {
        (Ok(i), false) => {
            want.remove(i);
        }
        (Err(i), true) => want.insert(i, key),
        (Ok(_), true) | (Err(_), false) => {}
    }
    let wrap = |v: &[u64]| v.iter().map(|&k| Counted(k)).collect::<Vec<_>>();
    let block = <DeltaCodec as Codec<Counted>>::encode(&wrap(&keys));
    let expect = <DeltaCodec as Codec<Counted>>::encode(&wrap(&want));
    ENCODED.with(|c| c.set(0));
    let got = <DeltaCodec as Codec<Counted>>::splice(
        &block,
        &[key],
        |e, k| e.0.cmp(k),
        |_, &k| put.then_some(Counted(k)),
    );
    assert_eq!(got, expect, "n = {n}, key {key}, put {put}");
    ENCODED.with(Cell::get)
}

#[test]
fn delta_splice_reencodes_only_what_changed() {
    for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 190, 256] {
        for p in 0..n {
            // An overwrite: the entry itself and the one after it, whose
            // predecessor changed — unless that one is a restart (written
            // absolute, so its bytes stand) or there is none.
            let next_reencoded = p + 1 < n && (p + 1) % RESTART_INTERVAL != 0;
            assert_eq!(
                encoded_by_splice(n, 10 * p as u64 + 10, true),
                1 + usize::from(next_reencoded),
                "overwrite at {p} of {n}"
            );
        }
        for p in 0..=n {
            // An insert before index `p` and a remove at it shift every
            // later entry by one: two re-encodes per later restart.
            let bound = 2 + 2 * (n - p).div_ceil(RESTART_INTERVAL);
            let insert = encoded_by_splice(n, 10 * p as u64 + 5, true);
            assert!(insert <= bound, "insert at {p} of {n}: {insert} > {bound}");
            if p < n {
                let remove = encoded_by_splice(n, 10 * p as u64 + 10, false);
                assert!(remove <= bound, "remove at {p} of {n}: {remove} > {bound}");
            }
            // A remove that misses writes the same block and encodes
            // nothing at all.
            assert_eq!(
                encoded_by_splice(n, 10 * p as u64 + 5, false),
                0,
                "miss at {p} of {n}"
            );
        }
    }
}

#[test]
fn raw_splice_compares_against_edits_not_keys() {
    // The codec only sees the comparator: edits of another type (here
    // bare keys against pairs) are fine, and `apply` sees the old entry.
    let block = <RawCodec as Codec<(u64, u64)>>::encode(&[(1, 10), (3, 30), (5, 50)]);
    let got = <RawCodec as Codec<(u64, u64)>>::splice(
        &block,
        &[2u64, 3, 6],
        |e, k| e.0.cmp(k),
        |old, &k| match old {
            Some(&(k, v)) => Some((k, v + 1)),
            None => (k % 2 == 0).then_some((k, 0)),
        },
    );
    assert_eq!(&got[..], &[(1, 10), (2, 0), (3, 31), (5, 50), (6, 0)]);
    // Edits past the last entry and a batch that empties the block.
    let got = <RawCodec as Codec<(u64, u64)>>::splice(
        &block,
        &[1u64, 3, 5],
        |e, k| e.0.cmp(k),
        |_, _| None,
    );
    assert!(got.is_empty());
}
