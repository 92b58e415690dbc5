//! Differential suite for the shared block of [`PacOrd`]: one generic
//! scenario, `exercise::<E, C>`, drives every operation that is written
//! once for maps and sets alike against a sorted-`Vec` oracle, and is
//! instantiated for set entries (`u64`) and map entries (`(u64, u64)`)
//! across three codecs each and B ∈ {1, 2, 8, 128}. It can only be
//! written because the collection is generic over its entry: nothing
//! below names `PacMap` or `PacSet` except the two constructors handed
//! in.
//!
//! Like the other differential suites: every failure panics with the
//! exact reproducing seed, and `PROPTEST_SEED=<n>` replays just that
//! scenario on every instantiation × block size.

use std::fmt::Debug;

use codecs::{Codec, DeltaCodec, GammaCodec, KeyDeltaCodec, RawCodec};
use cpam::structure::{NodeOwned, NodeRef};
use cpam::{Entry, NoAug, PacMap, PacOrd, PacSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY_SPAN: u64 = 384;
const BLOCK_SIZES: [usize; 4] = [1, 2, 8, 128];

type Coll<E, C> = PacOrd<E, NoAug, C>;

/// What the scenario needs to know about an entry type: how to make one
/// and how to build a collection of them (the constructors are the
/// entry-shaped sugar, so they come from the instantiation).
struct Shape<E: Entry, C: Codec<E>> {
    entry: fn(u64, u64) -> E,
    build: fn(usize, Vec<E>) -> Coll<E, C>,
}

fn same<T: PartialEq + Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!(
        "{what} diverges\n     got: {got:?}\n  oracle: {want:?}"
    ))
}

/// The collection must hold exactly the oracle's entries, by every
/// whole-collection view, and satisfy every structural invariant.
fn agrees<E, C>(what: &str, t: &Coll<E, C>, oracle: &[E]) -> Result<(), String>
where
    E: Entry<Key = u64> + PartialEq + Debug,
    C: Codec<E>,
{
    t.check_invariants()
        .map_err(|e| format!("{what}: invariants: {e}"))?;
    same(&format!("{what}: len"), t.len(), oracle.len())?;
    same(
        &format!("{what}: is_empty"),
        t.is_empty(),
        oracle.is_empty(),
    )?;
    same(&format!("{what}: to_vec"), t.to_vec(), oracle.to_vec())?;
    same(
        &format!("{what}: iter"),
        t.iter().collect::<Vec<E>>(),
        oracle.to_vec(),
    )
}

/// Sorted, last-wins oracle of a batch of entries.
fn oracle_of<E: Entry<Key = u64>>(entries: &[E]) -> Vec<E> {
    let mut sorted = entries.to_vec();
    sorted.sort_by_key(|e| *e.key()); // stable
    let mut out: Vec<E> = Vec::new();
    for e in sorted {
        match out.last_mut() {
            Some(last) if last.key() == e.key() => *last = e,
            _ => out.push(e),
        }
    }
    out
}

fn without<E: Entry<Key = u64>>(oracle: &[E], gone: impl Fn(u64) -> bool) -> Vec<E> {
    oracle.iter().filter(|e| !gone(*e.key())).cloned().collect()
}

fn random_entries<E>(rng: &mut StdRng, n: usize, entry: fn(u64, u64) -> E) -> Vec<E> {
    (0..n)
        .map(|_| entry(rng.gen_range(0..KEY_SPAN), rng.gen_range(0..1_000)))
        .collect()
}

/// Rebuilds `t` from its own pre-order node stream, walked against
/// `base` when given.
fn through_node_stream<E, C>(
    t: &Coll<E, C>,
    base: Option<&Coll<E, C>>,
) -> Result<Coll<E, C>, String>
where
    E: Entry<Key = u64>,
    C: Codec<E>,
{
    let mut nodes: Vec<NodeOwned<E, C::Block>> = Vec::new();
    t.visit_nodes(base, &mut |node| {
        nodes.push(match node {
            NodeRef::Empty => NodeOwned::Empty,
            NodeRef::Regular(e) => NodeOwned::Regular(e.clone()),
            NodeRef::Flat(block) => NodeOwned::Flat(block.clone()),
            NodeRef::Shared { rank, len } => NodeOwned::Shared { rank, len },
        });
    });
    let mut nodes = nodes.into_iter();
    let rebuilt = PacOrd::from_node_stream(t.block_size(), base, None, &mut || {
        nodes.next().ok_or("stream ended early")
    })
    .map_err(|e| format!("from_node_stream: {e}"))?;
    if nodes.next().is_some() {
        return Err("from_node_stream left nodes unread".into());
    }
    Ok(rebuilt)
}

/// One randomized scenario over one entry type, codec and block size.
fn exercise<E, C>(seed: u64, b: usize, shape: &Shape<E, C>) -> Result<(), String>
where
    E: Entry<Key = u64> + PartialEq + Debug,
    C: Codec<E>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..360usize);
    let entries = random_entries(&mut rng, n, shape.entry);
    let oracle = oracle_of(&entries);
    let t = (shape.build)(b, entries.clone());
    same("block_size", t.block_size(), b)?;
    agrees("build", &t, &oracle)?;

    // Clone, `==`, `FromIterator` (default B: equality is by contents).
    let collected: Coll<E, C> = entries.iter().cloned().collect();
    same(
        "collect: block_size",
        collected.block_size(),
        cpam::DEFAULT_B,
    )?;
    agrees("collect", &collected, &oracle)?;
    if collected != t || t.clone() != t {
        return Err("== is not by contents".into());
    }
    if !oracle.is_empty() && t == Coll::<E, C>::with_block_size(b) {
        return Err("== ignores contents".into());
    }
    agrees("default", &Coll::<E, C>::default(), &[])?;

    // Order statistics over the whole key span (hits and misses).
    for k in 0..KEY_SPAN + 4 {
        let below = oracle.partition_point(|e| *e.key() < k);
        let upto = oracle.partition_point(|e| *e.key() <= k);
        same(&format!("rank({k})"), t.rank(&k), below)?;
        same(
            &format!("succ({k})"),
            t.succ(&k),
            oracle.get(below).cloned(),
        )?;
        same(
            &format!("pred({k})"),
            t.pred(&k),
            upto.checked_sub(1).map(|i| oracle[i].clone()),
        )?;
    }
    for i in 0..oracle.len() + 2 {
        same(&format!("select({i})"), t.select(i), oracle.get(i).cloned())?;
    }
    same("first", t.first(), oracle.first().cloned())?;
    same("last", t.last(), oracle.last().cloned())?;

    // Ranges: random windows, each also inverted, plus the empty and
    // single-key corner cases. An inverted interval is empty.
    let mut windows: Vec<(u64, u64)> = vec![
        (0, 0),
        (0, u64::MAX),
        (u64::MAX, 0),
        (KEY_SPAN, KEY_SPAN + 9),
    ];
    for _ in 0..8 {
        let (a, z) = (rng.gen_range(0..KEY_SPAN), rng.gen_range(0..KEY_SPAN));
        windows.extend([(a.min(z), a.max(z)), (a.max(z), a.min(z)), (a, a)]);
    }
    // Inverted with both ends present: the one-key-too-many case.
    if let (Some(first), Some(last)) = (oracle.first(), oracle.last()) {
        windows.push((*last.key(), *first.key()));
    }
    for (lo, hi) in windows {
        let want: Vec<E> = oracle
            .iter()
            .filter(|e| lo <= *e.key() && *e.key() <= hi)
            .cloned()
            .collect();
        same(
            &format!("range_entries [{lo}, {hi}]"),
            t.range_entries(&lo, &hi),
            want.clone(),
        )?;
        same(
            &format!("count_range [{lo}, {hi}]"),
            t.count_range(&lo, &hi),
            want.len(),
        )?;
        agrees(&format!("range [{lo}, {hi}]"), &t.range(&lo, &hi), &want)?;
    }

    // Point removal, persistent and consuming, hit and miss.
    for _ in 0..6 {
        let k = rng.gen_range(0..KEY_SPAN + 16);
        let want = without(&oracle, |key| key == k);
        agrees(&format!("remove({k})"), &t.remove(&k), &want)?;
        agrees(
            &format!("remove_owned({k})"),
            &t.clone().remove_owned(&k),
            &want,
        )?;
    }
    agrees("the original after removes", &t, &oracle)?;

    // Difference and batch delete against a second random key set.
    let m = rng.gen_range(0..200usize);
    let other_entries = random_entries(&mut rng, m, shape.entry);
    let other_oracle = oracle_of(&other_entries);
    let other = (shape.build)(b, other_entries.clone());
    let in_other = |key: u64| {
        other_oracle
            .binary_search_by_key(&key, |e| *e.key())
            .is_ok()
    };
    let want = without(&oracle, in_other);
    agrees("difference", &t.difference(&other), &want)?;
    agrees(
        "difference_owned",
        &t.clone().difference_owned(other.clone()),
        &want,
    )?;
    agrees("difference with self", &t.difference(&t), &[])?;
    // The batch is unsorted and carries duplicates.
    let batch: Vec<u64> = other_entries.iter().map(|e| *e.key()).collect();
    agrees("multi_delete", &t.multi_delete(batch.clone()), &want)?;
    agrees(
        "multi_delete_owned",
        &t.clone().multi_delete_owned(batch),
        &want,
    )?;
    agrees(
        "multi_delete of nothing",
        &t.multi_delete(Vec::new()),
        &oracle,
    )?;

    // Append: cut the oracle anywhere (both sides may be empty), build
    // the halves separately, concatenate.
    let cut = rng.gen_range(0..oracle.len() + 1);
    let (low, high) = oracle.split_at(cut);
    let appended = (shape.build)(b, low.to_vec()).append(&(shape.build)(b, high.to_vec()));
    agrees(&format!("append at {cut}"), &appended, &oracle)?;
    same("append: block_size", appended.block_size(), b)?;

    // Node stream round trip: same entries, same shape, same blocks —
    // so bit-identical space accounting.
    let rebuilt = through_node_stream(&t, None)?;
    agrees("node stream round trip", &rebuilt, &oracle)?;
    same(
        "node stream round trip: space_stats",
        rebuilt.space_stats(),
        t.space_stats(),
    )?;
    // And against a base: a version one removal away shares all but a
    // path with it, and rebuilds to the same thing.
    if let Some(victim) = oracle.get(oracle.len() / 2) {
        let next = t.remove(victim.key());
        let rebuilt = through_node_stream(&next, Some(&t))?;
        agrees(
            "diffed round trip",
            &rebuilt,
            &without(&oracle, |key| key == *victim.key()),
        )?;
        same(
            "diffed round trip: space_stats",
            rebuilt.space_stats(),
            next.space_stats(),
        )?;
    }
    Ok(())
}

fn drive<E, C>(label: &str, shape: Shape<E, C>)
where
    E: Entry<Key = u64> + PartialEq + Debug,
    C: Codec<E>,
{
    parlay::run(|| {
        proptest::check_seeded(label, 60, |seed| {
            BLOCK_SIZES
                .iter()
                .try_for_each(|&b| exercise(seed, b, &shape).map_err(|e| format!("B={b}: {e}")))
        })
    });
}

fn set_shape<C: Codec<u64>>() -> Shape<u64, C> {
    Shape {
        entry: |key, _| key,
        build: PacSet::from_keys_with,
    }
}

fn map_shape<C: Codec<(u64, u64)>>() -> Shape<(u64, u64), C> {
    Shape {
        entry: |key, value| (key, value),
        build: PacMap::from_pairs_with,
    }
}

#[test]
fn set_raw_codec_matches_oracle() {
    drive("raw set", set_shape::<RawCodec>());
}

#[test]
fn set_delta_codec_matches_oracle() {
    drive("delta set", set_shape::<DeltaCodec>());
}

#[test]
fn set_gamma_codec_matches_oracle() {
    drive("gamma set", set_shape::<GammaCodec>());
}

#[test]
fn map_raw_codec_matches_oracle() {
    drive("raw map", map_shape::<RawCodec>());
}

#[test]
fn map_delta_codec_matches_oracle() {
    drive("delta map", map_shape::<DeltaCodec>());
}

#[test]
fn map_key_delta_codec_matches_oracle() {
    drive("key-delta map", map_shape::<KeyDeltaCodec>());
}
