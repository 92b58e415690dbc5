//! Differential suite for the cursor-based flat-node paths: every
//! point / range / iteration / setops result must be identical to the
//! decode-everything oracle (a `BTreeMap`/`BTreeSet` plus full
//! `to_vec` materializations), across all four codecs and the paper's
//! block-size sweep B ∈ {1, 2, 8, 32, 128}.
//!
//! The bounded range reads (`range_entries`, `range_for_each`, `succ`,
//! `aug_range`, `range_decompose`) are also probed at every leaf
//! boundary — each leaf's first and last key and one key either side —
//! on raw maps, delta maps and lazy leaves read through a `BlockSource`.
//!
//! Like the existing differential suites: every failure panics with the
//! exact reproducing seed, and setting `PROPTEST_SEED=<n>` replays just
//! that sequence on every codec × block size.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use codecs::{Codec, DeltaCodec, GammaCodec, KeyDeltaCodec, RawCodec};
use cpam::structure::{NodeOwned, NodeRef};
use cpam::{Augmentation, BlockSource, NoAug, PacMap, PacSet, RangePart};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY_SPAN: u64 = 512;

/// One randomized map scenario over one codec and block size.
fn run_map_one<C>(seed: u64, b: usize) -> Result<(), String>
where
    C: Codec<(u64, u64)>,
    NoAug: Augmentation<(u64, u64)>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..400usize);
    let pairs: Vec<(u64, u64)> = (0..n)
        .map(|_| (rng.gen_range(0..KEY_SPAN), rng.gen_range(0..1_000)))
        .collect();
    // Last pair per key wins in both representations.
    let m: PacMap<u64, u64, NoAug, C> = PacMap::from_pairs_with(b, pairs.clone());
    let oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();

    m.check_invariants().map_err(|e| format!("invariants: {e}"))?;

    // Full iteration (streaming cursor) vs the oracle.
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    let got: Vec<(u64, u64)> = m.iter().collect();
    if got != want {
        return Err(format!("iter diverges\n  cursor: {got:?}\n  oracle: {want:?}"));
    }
    if m.to_vec() != want {
        return Err("to_vec diverges from iter".into());
    }

    // Point queries over the whole key span (hits and misses).
    for k in 0..KEY_SPAN + 8 {
        if m.find(&k) != oracle.get(&k).copied() {
            return Err(format!("find({k}) diverges"));
        }
        if m.contains_key(&k) != oracle.contains_key(&k) {
            return Err(format!("contains_key({k}) diverges"));
        }
        let rank = oracle.range(..k).count();
        if m.rank(&k) != rank {
            return Err(format!("rank({k}) = {} want {rank}", m.rank(&k)));
        }
        let succ = oracle.range(k..).next().map(|(&a, &v)| (a, v));
        if m.succ(&k) != succ {
            return Err(format!("succ({k}) diverges"));
        }
        let pred = oracle.range(..=k).next_back().map(|(&a, &v)| (a, v));
        if m.pred(&k) != pred {
            return Err(format!("pred({k}) diverges"));
        }
    }

    // Positional selection at every index.
    for i in 0..want.len() + 1 {
        if m.select(i) != want.get(i).copied() {
            return Err(format!("select({i}) diverges"));
        }
    }

    // Range extraction on random windows.
    for _ in 0..8 {
        let a = rng.gen_range(0..KEY_SPAN);
        let z = rng.gen_range(0..KEY_SPAN);
        let (lo, hi) = (a.min(z), a.max(z));
        let want: Vec<(u64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        if m.range_entries(&lo, &hi) != want {
            return Err(format!("range_entries [{lo}, {hi}] diverges"));
        }
        let sub = m.range(&lo, &hi);
        if sub.to_vec() != want {
            return Err(format!("range [{lo}, {hi}] diverges"));
        }
        sub.check_invariants()
            .map_err(|e| format!("range submap invariants: {e}"))?;
    }

    // Single-entry updates: insert (hit and miss) and remove (hit and
    // miss — the miss exercises the share-the-node fast path).
    for _ in 0..6 {
        let k = rng.gen_range(0..KEY_SPAN + 32);
        let v = rng.gen_range(0..1_000);
        let mut oracle2 = oracle.clone();
        oracle2.insert(k, v);
        let m2 = m.insert(k, v);
        let want2: Vec<(u64, u64)> = oracle2.iter().map(|(&a, &b2)| (a, b2)).collect();
        if m2.to_vec() != want2 {
            return Err(format!("insert({k}) diverges"));
        }
        m2.check_invariants()
            .map_err(|e| format!("insert({k}) invariants: {e}"))?;

        let mut oracle3 = oracle.clone();
        oracle3.remove(&k);
        let m3 = m.remove(&k);
        let want3: Vec<(u64, u64)> = oracle3.iter().map(|(&a, &b3)| (a, b3)).collect();
        if m3.to_vec() != want3 {
            return Err(format!("remove({k}) diverges"));
        }
        m3.check_invariants()
            .map_err(|e| format!("remove({k}) invariants: {e}"))?;
    }

    // Set algebra against a second random map (scratch-based base cases).
    let n2 = rng.gen_range(0..400usize);
    let pairs2: Vec<(u64, u64)> = (0..n2)
        .map(|_| (rng.gen_range(0..KEY_SPAN), rng.gen_range(0..1_000)))
        .collect();
    let m2: PacMap<u64, u64, NoAug, C> = PacMap::from_pairs_with(b, pairs2.clone());
    let oracle2: BTreeMap<u64, u64> = pairs2.iter().copied().collect();

    // Non-commutative combiners: swapped arguments would diverge.
    let union = m.union_with(&m2, |a, c| 3 * a + c);
    let mut want_union = oracle2.clone();
    for (&k, &v) in &oracle {
        *want_union.entry(k).or_insert(0) = oracle2.get(&k).map_or(v, |w| 3 * v + w);
    }
    if union.to_vec() != want_union.into_iter().collect::<Vec<_>>() {
        return Err("union_with diverges".into());
    }
    union
        .check_invariants()
        .map_err(|e| format!("union invariants: {e}"))?;

    let inter = m.intersect_with(&m2, |a, c| 3 * a + c);
    let want_inter: Vec<(u64, u64)> = oracle
        .iter()
        .filter_map(|(&k, &v)| oracle2.get(&k).map(|&w| (k, 3 * v + w)))
        .collect();
    if inter.to_vec() != want_inter {
        return Err("intersect_with diverges".into());
    }
    inter
        .check_invariants()
        .map_err(|e| format!("intersect invariants: {e}"))?;

    let diff = m.difference(&m2);
    let want_diff: Vec<(u64, u64)> = oracle
        .iter()
        .filter(|(k, _)| !oracle2.contains_key(k))
        .map(|(&k, &v)| (k, v))
        .collect();
    if diff.to_vec() != want_diff {
        return Err("difference diverges".into());
    }
    diff.check_invariants()
        .map_err(|e| format!("difference invariants: {e}"))?;

    // Batch updates (scratch-based base cases).
    let batch: Vec<(u64, u64)> = (0..rng.gen_range(0..64usize))
        .map(|_| (rng.gen_range(0..KEY_SPAN), rng.gen_range(0..1_000)))
        .collect();
    let mut oracle4 = oracle.clone();
    for &(k, v) in &batch {
        oracle4.insert(k, v);
    }
    // Duplicate batch keys: last wins in both (multi_insert dedups last-wins).
    let m4 = m.multi_insert(batch);
    if m4.to_vec() != oracle4.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>() {
        return Err("multi_insert diverges".into());
    }

    let dels: Vec<u64> = (0..rng.gen_range(0..48usize))
        .map(|_| rng.gen_range(0..KEY_SPAN + 32))
        .collect();
    let mut oracle5 = oracle.clone();
    for k in &dels {
        oracle5.remove(k);
    }
    let m5 = m.multi_delete(dels);
    if m5.to_vec() != oracle5.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>() {
        return Err("multi_delete diverges".into());
    }

    Ok(())
}

/// One randomized set scenario (exercises `GammaCodec`, which only
/// supports scalar keys).
fn run_set_one<C>(seed: u64, b: usize) -> Result<(), String>
where
    C: Codec<u64>,
    NoAug: Augmentation<u64>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..400usize);
    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..KEY_SPAN)).collect();
    let s: PacSet<u64, NoAug, C> = PacSet::from_keys_with(b, keys.clone());
    let oracle: BTreeSet<u64> = keys.iter().copied().collect();

    s.check_invariants().map_err(|e| format!("invariants: {e}"))?;
    let want: Vec<u64> = oracle.iter().copied().collect();
    if s.iter().collect::<Vec<_>>() != want {
        return Err("set iter diverges".into());
    }
    for k in 0..KEY_SPAN + 8 {
        if s.contains(&k) != oracle.contains(&k) {
            return Err(format!("contains({k}) diverges"));
        }
        if s.rank(&k) != oracle.range(..k).count() {
            return Err(format!("rank({k}) diverges"));
        }
        if s.succ(&k) != oracle.range(k..).next().copied() {
            return Err(format!("succ({k}) diverges"));
        }
        if s.pred(&k) != oracle.range(..=k).next_back().copied() {
            return Err(format!("pred({k}) diverges"));
        }
    }
    for i in 0..want.len() + 1 {
        if s.select(i) != want.get(i).copied() {
            return Err(format!("select({i}) diverges"));
        }
    }
    for _ in 0..8 {
        let a = rng.gen_range(0..KEY_SPAN);
        let z = rng.gen_range(0..KEY_SPAN);
        let (lo, hi) = (a.min(z), a.max(z));
        let want: Vec<u64> = oracle.range(lo..=hi).copied().collect();
        if s.range_keys(&lo, &hi) != want {
            return Err(format!("range_keys [{lo}, {hi}] diverges"));
        }
        if s.count_range(&lo, &hi) != want.len() {
            return Err(format!("count_range [{lo}, {hi}] diverges"));
        }
    }
    let keys2: Vec<u64> = (0..rng.gen_range(0..400usize))
        .map(|_| rng.gen_range(0..KEY_SPAN))
        .collect();
    let s2: PacSet<u64, NoAug, C> = PacSet::from_keys_with(b, keys2.clone());
    let oracle2: BTreeSet<u64> = keys2.iter().copied().collect();
    if s.union(&s2).to_vec() != oracle.union(&oracle2).copied().collect::<Vec<_>>() {
        return Err("set union diverges".into());
    }
    if s.intersect(&s2).to_vec() != oracle.intersection(&oracle2).copied().collect::<Vec<_>>() {
        return Err("set intersect diverges".into());
    }
    if s.difference(&s2).to_vec() != oracle.difference(&oracle2).copied().collect::<Vec<_>>() {
        return Err("set difference diverges".into());
    }
    Ok(())
}

/// An order-sensitive fingerprint of a run of entries: `(P^len, hash)`
/// under the composition of affine maps, so a piece combined out of key
/// order, twice or not at all changes the value.
struct Fingerprint;

const P: u64 = 0x100_0000_01B3;

impl Augmentation<(u64, u64)> for Fingerprint {
    type Value = (u64, u64);
    fn identity() -> (u64, u64) {
        (1, 0)
    }
    fn from_entry(e: &(u64, u64)) -> (u64, u64) {
        (P, e.0.wrapping_mul(31).wrapping_add(e.1) ^ 0x9E37)
    }
    fn combine(a: &(u64, u64), b: &(u64, u64)) -> (u64, u64) {
        (a.0.wrapping_mul(b.0), a.1.wrapping_mul(b.0).wrapping_add(b.1))
    }
}

/// Pages every leaf of `map` out to an in-memory `BlockSource` and
/// rebuilds it with lazy leaves.
fn lazy_copy<C: Codec<(u64, u64)>>(map: &PacMap<u64, u64, NoAug, C>) -> PacMap<u64, u64, NoAug, C> {
    struct Pages<B>(Vec<Arc<B>>);
    impl<B: Send + Sync + 'static> BlockSource<B> for Pages<B> {
        fn load(&self, page: u32) -> Arc<B> {
            Arc::clone(&self.0[page as usize])
        }
    }
    let mut stream = Vec::new();
    let mut pages = Vec::new();
    map.visit_nodes(None, &mut |node| match node {
        NodeRef::Empty => stream.push(NodeOwned::Empty),
        NodeRef::Regular(e) => stream.push(NodeOwned::Regular(*e)),
        NodeRef::Flat(block) => {
            stream.push(NodeOwned::Lazy {
                page: pages.len() as u32,
                len: C::len(block) as u32,
            });
            pages.push(Arc::new(block.clone()));
        }
        NodeRef::Shared { .. } => unreachable!("no base to share with"),
    });
    let mut it = stream.into_iter();
    PacMap::from_node_stream::<()>(
        map.block_size(),
        None,
        Some(Arc::new(Pages(pages)) as Arc<dyn BlockSource<C::Block>>),
        &mut || Ok(it.next().expect("stream exhausted")),
    )
    .expect("valid stream")
}

/// Every leaf's first and last key and one key either side, sorted and
/// deduplicated.
fn leaf_boundary_keys<A, C>(map: &PacMap<u64, u64, A, C>) -> Vec<u64>
where
    A: Augmentation<(u64, u64)>,
    C: Codec<(u64, u64)>,
{
    let mut keys = Vec::new();
    map.visit_nodes(None, &mut |node| {
        if let NodeRef::Flat(block) = node {
            let (first, last) = (C::get(block, 0).0, C::get(block, C::len(block) - 1).0);
            keys.extend([first.saturating_sub(1), first, last, last.saturating_add(1)]);
        }
    });
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The bounded range reads of `map` against `oracle` for `lo` and `hi`
/// drawn from `keys`: each `lo` against every eighth `hi` at or above it
/// and the key just below it (an inverted range).
fn check_boundaries<A, C>(
    map: &PacMap<u64, u64, A, C>,
    oracle: &BTreeMap<u64, u64>,
    keys: &[u64],
) -> Result<(), String>
where
    A: Augmentation<(u64, u64)>,
    A::Value: PartialEq + std::fmt::Debug,
    C: Codec<(u64, u64)>,
{
    let stride = (keys.len() / 8).max(1);
    for (i, &lo) in keys.iter().enumerate() {
        let succ = oracle.range(lo..).next().map(|(&k, &v)| (k, v));
        if map.succ(&lo) != succ {
            return Err(format!("succ({lo}) diverges"));
        }
        let his = keys[i..].iter().step_by(stride).chain(i.checked_sub(1).map(|j| &keys[j]));
        for &hi in his {
            let want: Vec<(u64, u64)> = match lo <= hi {
                true => oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect(),
                false => Vec::new(),
            };
            if map.range_entries(&lo, &hi) != want {
                return Err(format!("range_entries [{lo}, {hi}] diverges"));
            }
            let aug = want.iter().fold(A::identity(), |acc, e| A::combine(&acc, &A::from_entry(e)));
            if map.aug_range(&lo, &hi) != aug {
                return Err(format!("aug_range [{lo}, {hi}] diverges"));
            }
            let mut parts = A::identity();
            map.range_decompose(&lo, &hi, |part| {
                let v = match part {
                    RangePart::Subtree(v) => v.clone(),
                    RangePart::Entry(k, v) => A::from_entry(&(*k, *v)),
                };
                parts = A::combine(&parts, &v);
            });
            if parts != aug {
                return Err(format!("range_decompose [{lo}, {hi}] diverges"));
            }
            for k in [1, 2, 7, want.len()] {
                let mut got = Vec::new();
                let flow = map.range_for_each(&lo, &hi, |e| {
                    got.push(*e);
                    match got.len() == k {
                        true => ControlFlow::Break(()),
                        false => ControlFlow::Continue(()),
                    }
                });
                let stopped = k >= 1 && want.len() >= k;
                if got[..] != want[..want.len().min(k)] || flow.is_break() != stopped {
                    return Err(format!("range_for_each [{lo}, {hi}] breaking after {k} diverges"));
                }
            }
        }
    }
    Ok(())
}

/// One leaf-boundary scenario: a random map over codec `C` at block size
/// `b`, probed with a non-commutative augmentation and, unaugmented,
/// through lazy leaves.
fn run_boundaries_one<C>(seed: u64, b: usize) -> Result<(), String>
where
    C: Codec<(u64, u64)>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..300usize);
    let pairs: Vec<(u64, u64)> = (0..n)
        .map(|_| (rng.gen_range(0..KEY_SPAN), rng.gen_range(0..1_000)))
        .collect();
    let oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();
    let augmented: PacMap<u64, u64, Fingerprint, C> = PacMap::from_pairs_with(b, pairs.clone());
    let plain: PacMap<u64, u64, NoAug, C> = PacMap::from_pairs_with(b, pairs);
    let keys = leaf_boundary_keys(&plain);
    check_boundaries(&augmented, &oracle, &keys).map_err(|e| format!("resident: {e}"))?;
    check_boundaries(&lazy_copy(&plain), &oracle, &keys).map_err(|e| format!("lazy: {e}"))
}

const BLOCK_SIZES: [usize; 5] = [1, 2, 8, 32, 128];

/// 120 seeded cases, each on every block size.
fn drive(label: &str, run: impl Fn(u64, usize) -> Result<(), String> + Sync) {
    parlay::run(|| {
        proptest::check_seeded(label, 120, |seed| {
            BLOCK_SIZES.iter().try_for_each(|&b| run(seed, b).map_err(|e| format!("B={b}: {e}")))
        })
    });
}

#[test]
fn map_raw_codec_matches_oracle() {
    drive("raw map", run_map_one::<RawCodec>);
}

#[test]
fn map_delta_codec_matches_oracle() {
    drive("delta map", run_map_one::<DeltaCodec>);
}

#[test]
fn map_key_delta_codec_matches_oracle() {
    drive("key-delta map", run_map_one::<KeyDeltaCodec>);
}

#[test]
fn set_gamma_codec_matches_oracle() {
    drive("gamma set", run_set_one::<GammaCodec>);
}

#[test]
fn set_delta_codec_matches_oracle() {
    drive("delta set", run_set_one::<DeltaCodec>);
}

#[test]
fn raw_leaf_boundaries_match_oracle() {
    drive("raw leaf boundaries", run_boundaries_one::<RawCodec>);
}

#[test]
fn delta_leaf_boundaries_match_oracle() {
    drive("delta leaf boundaries", run_boundaries_one::<DeltaCodec>);
}
