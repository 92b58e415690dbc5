//! Differential tests for the leaf splice: a write that fits its leaf
//! goes through `Codec::splice`, one that overflows it through the
//! decode-and-rebuild path, and a byte-coded leaf restarts its delta
//! chain every 64 entries. Delta maps (plain and augmented) and delta
//! sets run single-op loops and batches of up to 8 keys against a
//! `BTreeMap`/`BTreeSet` oracle, with `check_invariants` after every
//! step, at block sizes whose leaves (`b..=2b`) fall below, at and
//! across that restart interval. Some versions are pinned before a write
//! so the copying half of the write path runs too, and must stay as
//! they were.
//!
//! The CI thread matrix runs this binary under every
//! `PARLAY_NUM_THREADS` leg. Replayable like the other differential
//! suites: failures panic with the reproducing seed; `PROPTEST_SEED=<n>`
//! replays one sequence, `PROPTEST_CASES=<n>` sets how many run.

use std::collections::{BTreeMap, BTreeSet};

use cpam::{DiffMap, DiffSet, SumAug};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Around the 64-entry restart interval: `2b` below it, at it, and
/// across it.
const BLOCK_SIZES: [usize; 8] = [1, 2, 31, 32, 33, 64, 65, 128];

/// Operations per sequence.
const STEPS: usize = 160;

/// Runs `one(seed, b)` for 2 seeded cases, each on every block size.
fn run(name: &str, one: impl Fn(u64, usize) -> Result<(), String>) {
    proptest::check_seeded(name, 2, |seed| {
        BLOCK_SIZES.iter().try_for_each(|&b| one(seed, b).map_err(|e| format!("b = {b}: {e}")))
    });
}

/// A key drawn from a range about four leaves wide, so writes keep
/// landing in the same leaves: they fill to `2b` and split, and drain
/// below `b` and merge, as well as splicing in place.
fn key(rng: &mut StdRng, b: usize) -> u64 {
    rng.gen_range(0..(8 * b as u64 + 16))
}

/// Sorted, duplicate-free batch of 1–8 keys.
fn batch_keys(rng: &mut StdRng, b: usize) -> Vec<u64> {
    let m = rng.gen_range(1..9);
    let keys: BTreeSet<u64> = (0..m).map(|_| key(rng, b)).collect();
    keys.into_iter().collect()
}

fn map_one(seed: u64, b: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ b as u64);
    let mut model: BTreeMap<u64, u64> = (0..5 * b as u64 + 3)
        .map(|_| (key(&mut rng, b), rng.gen_range(0..1 << 40)))
        .collect();
    let pairs: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    let mut map: DiffMap<u64, u64> = DiffMap::from_sorted_pairs(b, &pairs);
    let mut summed: DiffMap<u64, u64, SumAug> = DiffMap::from_sorted_pairs(b, &pairs);
    let add = |old: &u64, new: &u64| old.wrapping_add(*new) % (1 << 40);
    for step in 0..STEPS {
        let pinned = (step % 5 == 0).then(|| (map.clone(), model.clone()));
        match rng.gen_range(0..4) {
            0 => {
                let (k, v) = (key(&mut rng, b), rng.gen_range(0..1 << 40));
                map = map.insert_with_owned(k, v, add);
                summed = summed.insert_with_owned(k, v, add);
                let new = model.get(&k).map_or(v, |old| add(old, &v));
                model.insert(k, new);
            }
            1 => {
                let k = key(&mut rng, b);
                map = map.remove_owned(&k);
                summed = summed.remove_owned(&k);
                model.remove(&k);
            }
            2 => {
                let batch: Vec<(u64, u64)> = batch_keys(&mut rng, b)
                    .into_iter()
                    .map(|k| (k, rng.gen_range(0..1 << 40)))
                    .collect();
                map = map.multi_insert_with_owned(batch.clone(), add);
                summed = summed.multi_insert_with_owned(batch.clone(), add);
                for (k, v) in batch {
                    let new = model.get(&k).map_or(v, |old| add(old, &v));
                    model.insert(k, new);
                }
            }
            _ => {
                let keys = batch_keys(&mut rng, b);
                map = map.multi_delete_owned(keys.clone());
                summed = summed.multi_delete_owned(keys.clone());
                for k in keys {
                    model.remove(&k);
                }
            }
        }
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        map.check_invariants()
            .map_err(|e| format!("step {step}: {e}"))?;
        summed
            .check_invariants()
            .map_err(|e| format!("step {step}, SumAug: {e}"))?;
        if map.to_vec() != want || summed.to_vec() != want {
            return Err(format!("step {step}: diverged from the oracle"));
        }
        let sum = want.iter().map(|&(_, v)| v).sum::<u64>();
        if summed.aug_value() != sum {
            return Err(format!("step {step}: aug {} != {sum}", summed.aug_value()));
        }
        if let Some((old, old_model)) = pinned {
            if old.to_vec() != old_model.into_iter().collect::<Vec<_>>() {
                return Err(format!("step {step}: the write changed a pinned version"));
            }
        }
    }
    Ok(())
}

fn set_one(seed: u64, b: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (b as u64) << 32);
    let mut model: BTreeSet<u64> = (0..5 * b as u64 + 3).map(|_| key(&mut rng, b)).collect();
    let keys: Vec<u64> = model.iter().copied().collect();
    let mut set: DiffSet<u64> = DiffSet::from_sorted_keys(b, &keys);
    for step in 0..STEPS {
        let pinned = (step % 5 == 0).then(|| (set.clone(), model.clone()));
        match rng.gen_range(0..4) {
            0 => {
                let k = key(&mut rng, b);
                set = set.insert_owned(k);
                model.insert(k);
            }
            1 => {
                let k = key(&mut rng, b);
                set = set.remove_owned(&k);
                model.remove(&k);
            }
            2 => {
                let batch = batch_keys(&mut rng, b);
                set = set.multi_insert_owned(batch.clone());
                model.extend(batch);
            }
            _ => {
                let batch = batch_keys(&mut rng, b);
                set = set.multi_delete_owned(batch.clone());
                for k in batch {
                    model.remove(&k);
                }
            }
        }
        set.check_invariants()
            .map_err(|e| format!("step {step}: {e}"))?;
        if set.to_vec() != model.iter().copied().collect::<Vec<_>>() {
            return Err(format!("step {step}: diverged from the oracle"));
        }
        if let Some((old, old_model)) = pinned {
            if old.to_vec() != old_model.into_iter().collect::<Vec<_>>() {
                return Err(format!("step {step}: the write changed a pinned version"));
            }
        }
    }
    Ok(())
}

#[test]
fn delta_maps_match_the_oracle_across_the_restart_interval() {
    run("delta map", map_one);
}

#[test]
fn delta_sets_match_the_oracle_across_the_restart_interval() {
    run("delta set", set_one);
}
