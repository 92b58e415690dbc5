//! Differential tests for the fork cutoff (`parlay::cutoff`, which
//! every cpam fork site decides by): every bulk operation must produce
//! bit-identical results at problem sizes just below, at, and just above
//! each fork cutoff, whatever the pool size. The CI thread matrix runs this same
//! binary under `PARLAY_NUM_THREADS ∈ {1, 2, 4, 8}`, which is what turns
//! "same result at every cutoff" into "same result at every thread
//! count" — at 1 thread the policy degrades to pure-sequential code, so
//! any divergence between the sequential and forked paths shows up as a
//! cross-leg difference in CI.
//!
//! The batch updates have one more regime change, on the *shape of the
//! input* rather than its size: a batch slice that is dense in its
//! subtree (`m·2b ≥ s`) rebuilds the subtree whole, a sparse one
//! descends to its leaves, and forks follow the batch's work. The last
//! test pins that boundary against the oracle and the single-op loop.
//!
//! Replayable like the other differential suites: failures panic with
//! the reproducing seed; `PROPTEST_SEED=<n>` replays one sequence.

use std::collections::{BTreeMap, BTreeSet};

use cpam::{PacMap, PacSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The cutoff floors cpam passes to `parlay::cutoff`: `max(4b, 1024)`
/// for the set operations and `4096` for builds/walks. Testing one element
/// below, at, and above each boundary pins the sequential/forked
/// hand-off exactly where the code switches.
const BOUNDARIES: [usize; 6] = [1023, 1024, 1025, 4095, 4096, 4097];

/// One randomized scenario: sets of `n` and `n/2` keys around one
/// boundary size, every bulk op checked against the `BTreeSet` oracle.
fn run_set_one(seed: u64, b: usize, n: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = (4 * n as u64).max(16);
    let keys_a: BTreeSet<u64> = (0..n).map(|_| rng.gen_range(0..span)).collect();
    let keys_b: BTreeSet<u64> = (0..n / 2).map(|_| rng.gen_range(0..span)).collect();

    let sa = PacSet::<u64>::from_keys_with(b, keys_a.iter().copied().collect());
    let sb = PacSet::<u64>::from_keys_with(b, keys_b.iter().copied().collect());
    sa.check_invariants().map_err(|e| format!("invariants a: {e}"))?;

    let check = |name: &str, got: PacSet<u64>, want: BTreeSet<u64>| -> Result<(), String> {
        got.check_invariants()
            .map_err(|e| format!("{name} invariants: {e}"))?;
        let got_v = got.to_vec();
        let want_v: Vec<u64> = want.into_iter().collect();
        if got_v != want_v {
            return Err(format!(
                "{name} diverges: got {} entries, want {}",
                got_v.len(),
                want_v.len()
            ));
        }
        Ok(())
    };

    check("union", sa.union(&sb), keys_a.union(&keys_b).copied().collect())?;
    check(
        "intersect",
        sa.intersect(&sb),
        keys_a.intersection(&keys_b).copied().collect(),
    )?;
    check(
        "difference",
        sa.difference(&sb),
        keys_a.difference(&keys_b).copied().collect(),
    )?;
    check(
        "union_naive",
        sa.union_naive(&sb),
        keys_a.union(&keys_b).copied().collect(),
    )?;

    let batch: Vec<u64> = (0..n / 2).map(|_| rng.gen_range(0..span)).collect();
    let mut want_ins = keys_a.clone();
    want_ins.extend(batch.iter().copied());
    check("multi_insert", sa.multi_insert(batch.clone()), want_ins)?;

    let mut want_del = keys_a.clone();
    for k in &batch {
        want_del.remove(k);
    }
    check("multi_delete", sa.multi_delete(batch), want_del)?;

    check(
        "filter",
        sa.filter(|k| k % 3 != 0),
        keys_a.iter().copied().filter(|k| k % 3 != 0).collect(),
    )?;
    Ok(())
}

/// Map flavour: union_with / intersect_with have a combiner whose
/// application order must not depend on where the forks land.
fn run_map_one(seed: u64, b: usize, n: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = (4 * n as u64).max(16);
    let pairs_a: BTreeMap<u64, u64> = (0..n)
        .map(|_| (rng.gen_range(0..span), rng.gen_range(0..1000)))
        .collect();
    let pairs_b: BTreeMap<u64, u64> = (0..n / 2)
        .map(|_| (rng.gen_range(0..span), rng.gen_range(0..1000)))
        .collect();

    let ma: PacMap<u64, u64> =
        PacMap::from_sorted_pairs(b, &pairs_a.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
    let mb: PacMap<u64, u64> =
        PacMap::from_sorted_pairs(b, &pairs_b.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());

    let check = |name: &str, got: PacMap<u64, u64>, want: BTreeMap<u64, u64>| -> Result<(), String> {
        got.check_invariants()
            .map_err(|e| format!("{name} invariants: {e}"))?;
        if !got.to_vec().into_iter().eq(want) {
            return Err(format!("{name} diverges from oracle"));
        }
        Ok(())
    };
    // Non-commutative, so a swapped argument order diverges too.
    let f = |x: &u64, y: &u64| x.wrapping_mul(3).wrapping_add(*y);

    let mut want = pairs_b.clone();
    for (&k, &v) in &pairs_a {
        want.insert(k, pairs_b.get(&k).map_or(v, |w| f(&v, w)));
    }
    check("union_with", ma.union_with(&mb, f), want)?;
    let want = pairs_a
        .iter()
        .filter_map(|(&k, v)| pairs_b.get(&k).map(|w| (k, f(v, w))))
        .collect();
    check("intersect_with", ma.intersect_with(&mb, f), want)?;
    // The smaller map as the receiver: `f` still takes its own entry first.
    let mut want = pairs_a.clone();
    for (&k, &v) in &pairs_b {
        want.insert(k, pairs_a.get(&k).map_or(v, |w| f(&v, w)));
    }
    check("union_with (smaller receiver)", mb.union_with(&ma, f), want)?;
    let want = pairs_b
        .iter()
        .filter_map(|(&k, v)| pairs_a.get(&k).map(|w| (k, f(v, w))))
        .collect();
    check("intersect_with (smaller receiver)", mb.intersect_with(&ma, f), want)?;
    let want = pairs_a
        .iter()
        .filter(|(k, _)| !pairs_b.contains_key(k))
        .map(|(&k, &v)| (k, v))
        .collect();
    check("difference", ma.difference(&mb), want)?;

    let mapped = ma.map_values(|_, v| v * 2 + 1);
    let want_mapped: Vec<(u64, u64)> = pairs_a.iter().map(|(&k, &v)| (k, v * 2 + 1)).collect();
    if mapped.to_vec() != want_mapped {
        return Err("map_values diverges from oracle".into());
    }

    let total: u64 = ma.map_reduce(|_, v| *v, |a, c| a.wrapping_add(c), 0u64);
    let want_total: u64 = pairs_a.values().fold(0u64, |acc, v| acc.wrapping_add(*v));
    if total != want_total {
        return Err(format!("map_reduce {total} != {want_total}"));
    }
    Ok(())
}

#[test]
fn bulk_ops_identical_at_grain_boundaries() {
    let threads = parlay::num_threads();
    for b in [8usize, 32] {
        for &n in &BOUNDARIES {
            // The name leaves the pool size out: every leg runs the same cases.
            proptest::check_seeded(&format!("bulk ops, b={b}, n={n}"), 6, |seed| {
                run_set_one(seed, b, n).map_err(|e| format!("set ops diverge, threads={threads}: {e}"))?;
                run_map_one(seed, b, n).map_err(|e| format!("map ops diverge, threads={threads}: {e}"))
            });
        }
    }
}

/// The κ base case (`8b` combined entries) is the third regime change;
/// exercise sizes that straddle it for a large block size, where the
/// base case covers the whole tree and no fork can ever fire.
#[test]
fn bulk_ops_identical_at_kappa_boundary() {
    let threads = parlay::num_threads();
    for b in [32usize, 128] {
        for n in [8 * b - 1, 8 * b, 8 * b + 1] {
            proptest::check_seeded(&format!("set ops at kappa, b={b}, n={n}"), 1, |seed| {
                run_set_one(seed, b, n).map_err(|e| format!("threads={threads}: {e}"))
            });
        }
    }
}

/// One scenario at the dense/sparse boundary: a tree whose first `s`
/// entries (all of it when `embed` = 1) receive rounds of `m`-key
/// batches — fresh inserts, overwrites, then deletes; clustered into one
/// leaf or spread over the range — each compared entry for entry with
/// the `BTreeMap` oracle and with the same keys applied one at a time.
fn run_density_one(seed: u64, b: usize, s: usize, m: usize, embed: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = s * embed;
    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 64, i)).collect();
    let mut oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();
    let mut batched: PacMap<u64, u64> = PacMap::from_sorted_pairs(b, &pairs);
    let mut single = batched.clone();

    let check = |what: &str, batched: &PacMap<u64, u64>, single: &PacMap<u64, u64>, oracle: &BTreeMap<u64, u64>| {
        batched.check_invariants().map_err(|e| format!("{what}: batch invariants: {e}"))?;
        single.check_invariants().map_err(|e| format!("{what}: loop invariants: {e}"))?;
        let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        if batched.to_vec() != want {
            return Err(format!("{what}: batch diverges from the oracle"));
        }
        if single.to_vec() != want {
            return Err(format!("{what}: single-op loop diverges from the oracle"));
        }
        Ok(())
    };

    // Enough rounds to push a leaf of `b` past `2b` and back below `b`.
    let rounds = (2 * b).div_ceil(m) + 2;
    for round in 0..3 * rounds {
        let clustered = rng.gen_bool(0.5);
        let at = rng.gen_range(0..s as u64);
        // `m` distinct slots of the first `s`: neighbours, or evenly spread.
        let slots: BTreeSet<u64> = (0..m as u64)
            .map(|i| if clustered { (at + i) % s as u64 } else { (at + i * (s / m) as u64) % s as u64 })
            .collect();
        let what = format!("round {round} ({} {m} keys)", if clustered { "clustered" } else { "spread" });
        if round < 2 * rounds {
            // Fresh keys (a new low digit per round) in the first
            // rounds, then a mix with overwrites of preloaded keys.
            let fresh = round < rounds || rng.gen_bool(0.5);
            let batch: Vec<(u64, u64)> = slots
                .iter()
                .map(|&p| (p * 64 + if fresh { 1 + round as u64 % 63 } else { 0 }, 1_000 + round as u64))
                .collect();
            for &(k, v) in &batch {
                oracle.insert(k, v);
                single = single.insert(k, v);
            }
            batched = batched.multi_insert(batch);
        } else {
            // Deletes of whatever the range holds around the slots:
            // misses included, leaves driven below `b`.
            let keys: Vec<u64> = slots
                .iter()
                .flat_map(|&p| oracle.range(p * 64..).next().map(|(&k, _)| k))
                .filter(|&k| k < s as u64 * 64)
                .chain(slots.iter().map(|&p| p * 64 + 63))
                .collect();
            for k in &keys {
                oracle.remove(k);
                single = single.remove(k);
            }
            batched = batched.multi_delete(keys);
        }
        check(&what, &batched, &single, &oracle)?;
    }
    Ok(())
}

/// The dense/sparse rule of `multi_insert` / `multi_delete`: batch
/// slices of one key fewer than, exactly, and one more than a key per
/// full leaf (`⌈s/2b⌉`), against subtrees on either side of the node()
/// and κ thresholds, alone and as the corner of a 16× larger tree.
#[test]
fn batch_updates_identical_at_density_boundary() {
    let threads = parlay::num_threads();
    for b in [8usize, 32] {
        for s in [2 * b + 1, 4 * b, 4 * b + 1, 8 * b] {
            let knee = s.div_ceil(2 * b);
            for m in [knee - 1, knee, knee + 1] {
                if m == 0 {
                    continue;
                }
                for embed in [1usize, 16] {
                    let name = format!("batch updates, b={b}, s={s}, m={m}, embed={embed}");
                    proptest::check_seeded(&name, 6, |seed| {
                        run_density_one(seed, b, s, m, embed).map_err(|e| format!("threads={threads}: {e}"))
                    });
                }
            }
        }
    }
}

/// The fork floor of the batch updates is measured in batch work,
/// `min(s, m·2b) + m` entries: at b = 32 a batch of 504 keys into a
/// larger tree is the last that runs sequentially (32 760 ≤ 2¹⁵), 505
/// the first that forks. Same answers on either side, at every pool
/// size.
#[test]
fn batch_updates_identical_at_fork_floor() {
    let threads = parlay::num_threads();
    let (b, n) = (32usize, 60_000u64);
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i * 4, i)).collect();
    let base: PacMap<u64, u64> = PacMap::from_sorted_pairs(b, &pairs);
    proptest::check_seeded("batch updates at the fork floor", 1, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        for m in [503usize, 504, 505, 506, 1024] {
            let ctx = format!("b={b}, m={m}, threads={threads}; replay with PROPTEST_SEED={seed}");
            let keys: BTreeSet<u64> = (0..m).map(|_| rng.gen_range(0..4 * n)).collect();
            let mut want: BTreeMap<u64, u64> = pairs.iter().copied().collect();
            want.extend(keys.iter().map(|&k| (k, 7)));
            let inserted = base.multi_insert(keys.iter().map(|&k| (k, 7)).collect());
            inserted.check_invariants().unwrap_or_else(|e| panic!("multi_insert invariants ({ctx}): {e}"));
            assert!(inserted.to_vec().into_iter().eq(want.iter().map(|(&k, &v)| (k, v))), "multi_insert diverges ({ctx})");
            let deleted = inserted.multi_delete(keys.iter().copied().collect());
            deleted.check_invariants().unwrap_or_else(|e| panic!("multi_delete invariants ({ctx}): {e}"));
            let kept: Vec<(u64, u64)> = pairs.iter().copied().filter(|(k, _)| !keys.contains(k)).collect();
            assert_eq!(deleted.to_vec(), kept, "multi_delete diverges ({ctx})");
        }
        Ok(())
    });
}
