//! Differential tests for the batch-parallel map API: randomized op
//! sequences drive `PacMap::{multi_insert_with, multi_delete,
//! multi_update_owned, range, union_with, insert_with, remove, filter}`
//! against a `BTreeMap` oracle, across the paper's block-size sweep
//! B ∈ {1, 2, 8, 32, 128}.
//!
//! Every sequence runs through **both** API flavours in lockstep — the
//! persistent `&self` methods and the consuming `*_owned` methods — so
//! the ownership-aware in-place path is differentially checked against
//! the same oracle as the path-copying one. Snapshot pins of the
//! consuming replica are interleaved at every step and re-validated at
//! the end of the sequence: if an in-place rebuild ever touched a node
//! a pin could reach, the pin's recorded contents diverge and the seed
//! is reported.
//!
//! Every divergence panics with the exact reproducing seed
//! (`PROPTEST_SEED=<n>`), and setting that variable replays just that
//! sequence on every block size.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{DiffMap, PacMap, PacSeq, PacSet};

const KEY_SPAN: u64 = 128;

fn oracle_vec(oracle: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    oracle.iter().map(|(&k, &v)| (k, v)).collect()
}

fn check(
    step: &str,
    m: &PacMap<u64, u64>,
    mc: &PacMap<u64, u64>,
    oracle: &BTreeMap<u64, u64>,
) -> Result<(), String> {
    let want = oracle_vec(oracle);
    let got = m.to_vec();
    if got != want {
        return Err(format!(
            "{step}: persistent API diverges\n  pacmap: {got:?}\n  oracle: {want:?}"
        ));
    }
    let got_c = mc.to_vec();
    if got_c != want {
        return Err(format!(
            "{step}: consuming API diverges\n  pacmap: {got_c:?}\n  oracle: {want:?}"
        ));
    }
    m.check_invariants()
        .map_err(|e| format!("{step}: persistent: {e}"))?;
    mc.check_invariants()
        .map_err(|e| format!("{step}: consuming: {e}"))
}

/// One randomized sequence over one block size: the same ops through
/// the persistent map `m` and the consuming map `mc`, with pins of `mc`
/// interleaved.
fn run_one(seed: u64, b: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m: PacMap<u64, u64> = PacMap::with_block_size(b);
    let mut mc: PacMap<u64, u64> = PacMap::with_block_size(b);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    // Pinned `(snapshot, expected contents, step)` of the consuming map.
    type Pin = (PacMap<u64, u64>, Vec<(u64, u64)>, usize);
    let mut pins: Vec<Pin> = Vec::new();

    let steps = 1 + rng.gen_range(0..8usize);
    for step in 0..steps {
        // Half the steps pin the consuming replica *before* mutating
        // it, so later in-place updates run against a shared spine.
        if rng.gen_range(0..2) == 0 {
            pins.push((mc.clone(), oracle_vec(&oracle), step));
        }
        match rng.gen_range(0..8) {
            // multi_insert_with: duplicate keys (both within the batch
            // and vs the map) combine with f — the group-by semantics.
            0 => {
                let len = rng.gen_range(0..24usize);
                let batch: Vec<(u64, u64)> = (0..len)
                    .map(|_| (rng.gen_range(0..KEY_SPAN), rng.gen_range(0..1_000)))
                    .collect();
                for (k, v) in &batch {
                    *oracle.entry(*k).or_insert(0) += v;
                }
                m = m.multi_insert_with(batch.clone(), |old, new| old + new);
                mc = mc.multi_insert_with_owned(batch, |old, new| old + new);
                check(&format!("step {step}: multi_insert_with"), &m, &mc, &oracle)?;
            }
            // multi_delete: absent keys and duplicates must be no-ops.
            1 => {
                let len = rng.gen_range(0..16usize);
                let keys: Vec<u64> =
                    (0..len).map(|_| rng.gen_range(0..KEY_SPAN + 32)).collect();
                for k in &keys {
                    oracle.remove(k);
                }
                m = m.multi_delete(keys.clone());
                mc = mc.multi_delete_owned(keys);
                check(&format!("step {step}: multi_delete"), &m, &mc, &oracle)?;
            }
            // range: the submap [lo, hi] both as a tree and as entries.
            2 => {
                let a = rng.gen_range(0..KEY_SPAN);
                let z = rng.gen_range(0..KEY_SPAN);
                let (lo, hi) = (a.min(z), a.max(z));
                let want: Vec<(u64, u64)> =
                    oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                let sub = m.range(&lo, &hi);
                if sub.to_vec() != want {
                    return Err(format!(
                        "step {step}: range [{lo}, {hi}] diverges\n  pacmap: {:?}\n  oracle: {want:?}",
                        sub.to_vec()
                    ));
                }
                sub.check_invariants()
                    .map_err(|e| format!("step {step}: range submap: {e}"))?;
                if m.range_entries(&lo, &hi) != want {
                    return Err(format!("step {step}: range_entries [{lo}, {hi}] diverges"));
                }
            }
            // insert_with: point insert, combining on an existing key.
            3 => {
                let k = rng.gen_range(0..KEY_SPAN);
                let v = rng.gen_range(0..1_000);
                *oracle.entry(k).or_insert(0) += v;
                m = m.insert_with(k, v, |old, new| old + new);
                mc = mc.insert_with_owned(k, v, |old, new| old + new);
                check(&format!("step {step}: insert_with"), &m, &mc, &oracle)?;
            }
            // remove: point delete, possibly missing.
            4 => {
                let k = rng.gen_range(0..KEY_SPAN + 32);
                oracle.remove(&k);
                m = m.remove(&k);
                mc = mc.remove_owned(&k);
                check(&format!("step {step}: remove"), &m, &mc, &oracle)?;
            }
            // filter: drop a keyed residue class.
            5 => {
                let modulus = 2 + rng.gen_range(0..5u64);
                let keep = rng.gen_range(0..modulus);
                oracle.retain(|k, _| k % modulus != keep);
                m = m.filter(|k, _| k % modulus != keep);
                mc = mc.filter_owned(|k, _| k % modulus != keep);
                check(&format!("step {step}: filter"), &m, &mc, &oracle)?;
            }
            // multi_update_owned: puts and removes in one batch, with
            // repeated keys (the last edit wins, whether it puts or
            // removes) and removes of absent keys; through both raw
            // replicas and a delta-coded map holding the same entries.
            7 => {
                let before = oracle_vec(&oracle);
                let len = rng.gen_range(0..24usize);
                let mut batch: Vec<(u64, Option<u64>)> = Vec::with_capacity(len);
                for i in 0..len {
                    let k = if i > 0 && rng.gen_bool(0.3) {
                        batch[rng.gen_range(0..i)].0
                    } else {
                        rng.gen_range(0..KEY_SPAN + 32)
                    };
                    batch.push((k, rng.gen_bool(0.5).then(|| rng.gen_range(0..1_000))));
                }
                for &(k, v) in &batch {
                    match v {
                        Some(v) => oracle.insert(k, v),
                        None => oracle.remove(&k),
                    };
                }
                let step = format!("step {step}: multi_update_owned {batch:?}");
                m = m.clone().multi_update_owned(batch.clone());
                mc = mc.multi_update_owned(batch.clone());
                check(&step, &m, &mc, &oracle)?;
                let dm = DiffMap::<u64, u64>::from_sorted_pairs(b, &before).multi_update_owned(batch);
                if dm.to_vec() != oracle_vec(&oracle) {
                    return Err(format!("{step}: delta map diverges\n  pacmap: {:?}", dm.to_vec()));
                }
                dm.check_invariants().map_err(|e| format!("{step}: delta: {e}"))?;
            }
            // union_with: merge with an independently generated map,
            // combining values on key collisions.
            _ => {
                let len = rng.gen_range(0..24usize);
                let pairs: Vec<(u64, u64)> = (0..len)
                    .map(|_| (rng.gen_range(0..KEY_SPAN), rng.gen_range(0..1_000)))
                    .collect();
                // Binary ops require matching block sizes (asserted —
                // a property this very harness uncovered: mixed-B
                // unions share leaves across trees and silently break
                // the leaf-size invariant).
                let other: PacMap<u64, u64> = PacMap::from_pairs_with(b, pairs.clone());
                let mut other_oracle: BTreeMap<u64, u64> = BTreeMap::new();
                for (k, v) in pairs {
                    other_oracle.insert(k, v); // from_pairs: last wins
                }
                for (k, v) in other_oracle {
                    oracle
                        .entry(k)
                        .and_modify(|o| *o = o.wrapping_mul(31).wrapping_add(v))
                        .or_insert(v);
                }
                m = m.union_with(&other, |a, b| a.wrapping_mul(31).wrapping_add(*b));
                mc = mc.union_with_owned(other, |a, b| a.wrapping_mul(31).wrapping_add(*b));
                check(&format!("step {step}: union_with"), &m, &mc, &oracle)?;
            }
        }
    }
    // Every pin must still read exactly what was current when it was
    // taken: in-place reuse must never have leaked into a shared spine.
    for (pin, want, at) in &pins {
        if pin.to_vec() != *want {
            return Err(format!(
                "pin taken at step {at} was mutated by a later consuming update\n  \
                 pin:    {:?}\n  expected: {want:?}",
                pin.to_vec()
            ));
        }
        pin.check_invariants()
            .map_err(|e| format!("pin taken at step {at}: {e}"))?;
    }
    Ok(())
}

fn run_block_size(b: usize) {
    proptest::check_seeded(&format!("pacmap differential, b = {b}"), 1000, |seed| run_one(seed, b));
}

#[test]
fn differential_b1() {
    run_block_size(1);
}

#[test]
fn differential_b2() {
    run_block_size(2);
}

#[test]
fn differential_b8() {
    run_block_size(8);
}

#[test]
fn differential_b32() {
    run_block_size(32);
}

#[test]
fn differential_b128() {
    run_block_size(128);
}

/// Mixed-block-size binary ops are a loud error, not silent corruption
/// (found by this harness: the union would adopt the other tree's
/// leaves and violate the leaf-size invariant).
#[test]
#[should_panic(expected = "equal block sizes")]
fn union_with_mismatched_block_sizes_panics() {
    let a: PacMap<u64, u64> = PacMap::from_pairs_with(2, vec![(1, 1)]);
    let b: PacMap<u64, u64> = PacMap::from_pairs_with(64, (0..40).map(|i| (i, i)).collect());
    let _ = a.union(&b);
}

// `append` and `join` (and `PacSeq::append`, `union_naive`) share
// subtrees with both inputs exactly as union does, and used to skip the
// check: `from_sorted_pairs(4, 0..100).append(&from_sorted_pairs(64,
// 100..400))` answered a `B = 4` map holding 75-entry leaves.

/// Two maps with every key of the first below 100 and every key of the
/// second above it.
fn low_high(b_low: usize, b_high: usize) -> (PacMap<u64, u64>, PacMap<u64, u64>) {
    let pairs = |r: std::ops::Range<u64>| r.map(|i| (i, i)).collect::<Vec<_>>();
    (
        PacMap::from_sorted_pairs(b_low, &pairs(0..100)),
        PacMap::from_sorted_pairs(b_high, &pairs(101..400)),
    )
}

#[test]
#[should_panic(expected = "equal block sizes")]
fn map_append_with_mismatched_block_sizes_panics() {
    let (low, high) = low_high(4, 64);
    let _ = low.append(&high);
}

#[test]
#[should_panic(expected = "equal block sizes")]
fn map_join_with_mismatched_block_sizes_panics() {
    let (low, high) = low_high(4, 64);
    let _ = PacMap::join(&low, 100, 100, &high);
}

#[test]
#[should_panic(expected = "equal block sizes")]
fn set_union_naive_with_mismatched_block_sizes_panics() {
    let a: PacSet<u64> = PacSet::from_keys_with(2, vec![1]);
    let b: PacSet<u64> = PacSet::from_keys_with(64, (0..40).collect());
    let _ = a.union_naive(&b);
}

#[test]
#[should_panic(expected = "equal block sizes")]
fn seq_append_with_mismatched_block_sizes_panics() {
    let a: PacSeq<u64> = PacSeq::from_slice_with(4, &(0..100).collect::<Vec<_>>());
    let b: PacSeq<u64> = PacSeq::from_slice_with(64, &(100..400).collect::<Vec<_>>());
    let _ = a.append(&b);
}

#[test]
fn append_and_join_with_equal_block_sizes_keep_the_leaf_invariant() {
    let (low, high) = low_high(4, 4);
    let appended = low.append(&high);
    appended.check_invariants().expect("append");
    assert_eq!(appended.len(), 399);
    let joined = PacMap::join(&low, 100, 100, &high);
    joined.check_invariants().expect("join");
    assert_eq!(joined.keys(), (0..400).collect::<Vec<_>>());
}

/// Every public constructor that takes a block size rejects `b == 0`
/// (the `from_*` ones used to build a leafless all-binary tree).
#[test]
fn every_constructor_rejects_a_zero_block_size() {
    type M = PacMap<u64, u64>;
    type S = PacSet<u64>;
    type Q = PacSeq<u64>;
    let constructors: [(&str, fn()); 10] = [
        ("PacMap::with_block_size", || drop(M::with_block_size(0))),
        ("PacMap::from_pairs_with", || drop(M::from_pairs_with(0, vec![(1, 1)]))),
        ("PacMap::from_sorted_pairs", || drop(M::from_sorted_pairs(0, &[(1, 1)]))),
        ("PacMap::from_node_stream", || {
            drop(M::from_node_stream::<()>(0, None, None, &mut || Ok(crate::structure::NodeOwned::Empty)));
        }),
        ("PacSet::with_block_size", || drop(S::with_block_size(0))),
        ("PacSet::from_keys_with", || drop(S::from_keys_with(0, vec![1]))),
        ("PacSet::from_sorted_keys", || drop(S::from_sorted_keys(0, &[1]))),
        ("PacSet::from_node_stream", || {
            drop(S::from_node_stream::<()>(0, None, None, &mut || Ok(crate::structure::NodeOwned::Empty)));
        }),
        ("PacSeq::with_block_size", || drop(Q::with_block_size(0))),
        ("PacSeq::from_slice_with", || drop(Q::from_slice_with(0, &[1]))),
    ];
    for (name, construct) in constructors {
        let panic = std::panic::catch_unwind(construct).expect_err(name);
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("block size must be positive"), "{name}: {message:?}");
    }
}
