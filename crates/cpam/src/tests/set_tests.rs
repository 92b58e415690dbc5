//! Set behaviour across block sizes, against a `BTreeSet` oracle.

use std::collections::BTreeSet;

use codecs::DeltaCodec;

use crate::{NoAug, PacSet};

const BLOCK_SIZES: &[usize] = &[1, 2, 3, 8, 32, 128];

fn keys(spec: impl IntoIterator<Item = u64>) -> Vec<u64> {
    spec.into_iter().collect()
}

#[test]
fn build_and_membership_all_block_sizes() {
    for &b in BLOCK_SIZES {
        let s = PacSet::<u64>::from_keys_with(b, keys((0..500).map(|i| i * 3)));
        s.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(s.len(), 500);
        assert!(s.contains(&333));
        assert!(!s.contains(&334));
        assert_eq!(s.to_vec(), keys((0..500).map(|i| i * 3)));
    }
}

#[test]
fn build_handles_duplicates_and_unsorted_input() {
    let s = PacSet::<u64>::from_keys_with(8, vec![5, 3, 5, 1, 3, 3, 9]);
    assert_eq!(s.to_vec(), vec![1, 3, 5, 9]);
}

#[test]
fn empty_and_singleton() {
    let e = PacSet::<u64>::new();
    assert!(e.is_empty());
    assert_eq!(e.to_vec(), Vec::<u64>::new());
    let s = e.insert(42);
    assert_eq!(s.len(), 1);
    assert!(s.contains(&42));
    assert!(e.is_empty(), "persistence: original untouched");
}

#[test]
fn insert_remove_roundtrip_all_block_sizes() {
    for &b in BLOCK_SIZES {
        let mut s = PacSet::<u64>::with_block_size(b);
        let mut oracle = BTreeSet::new();
        // Insert in a scrambled order.
        for i in 0..300u64 {
            let k = (i * 7919) % 1000;
            s = s.insert(k);
            oracle.insert(k);
        }
        s.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(s.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
        for i in 0..150u64 {
            let k = (i * 13) % 1000;
            s = s.remove(&k);
            oracle.remove(&k);
        }
        s.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(s.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
    }
}

#[test]
fn union_intersect_difference_match_oracle() {
    for &b in &[2usize, 16, 128] {
        let xs = keys((0..400).map(|i| i * 2));
        let ys = keys((0..400).map(|i| i * 3));
        let sx = PacSet::<u64>::from_keys_with(b, xs.clone());
        let sy = PacSet::<u64>::from_keys_with(b, ys.clone());
        let ox: BTreeSet<u64> = xs.into_iter().collect();
        let oy: BTreeSet<u64> = ys.into_iter().collect();

        let u = sx.union(&sy);
        u.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(u.to_vec(), ox.union(&oy).copied().collect::<Vec<_>>());

        let i = sx.intersect(&sy);
        i.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(i.to_vec(), ox.intersection(&oy).copied().collect::<Vec<_>>());

        let d = sx.difference(&sy);
        d.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(d.to_vec(), ox.difference(&oy).copied().collect::<Vec<_>>());
    }
}

#[test]
fn union_naive_agrees_with_optimized() {
    let sx = PacSet::<u64>::from_keys_with(16, keys((0..800).map(|i| i * 2)));
    let sy = PacSet::<u64>::from_keys_with(16, keys((100..600).map(|i| i * 3)));
    let fast = sx.union(&sy);
    let slow = sx.union_naive(&sy);
    slow.check_invariants().expect("naive invariants");
    assert_eq!(fast.to_vec(), slow.to_vec());
}

#[test]
fn union_imbalanced_sizes() {
    let big = PacSet::<u64>::from_keys_with(32, keys(0..10_000));
    let small = PacSet::<u64>::from_keys_with(32, keys((0..10).map(|i| i * 1000 + 500_000)));
    let u = big.union(&small);
    u.check_invariants().expect("invariants");
    assert_eq!(u.len(), 10_010);
    let u2 = small.union(&big);
    assert_eq!(u2.len(), 10_010);
}

#[test]
fn union_with_self_and_empty() {
    let s = PacSet::<u64>::from_keys_with(8, keys(0..100));
    assert_eq!(s.union(&s).to_vec(), s.to_vec());
    let e = PacSet::<u64>::with_block_size(8);
    assert_eq!(s.union(&e).to_vec(), s.to_vec());
    assert_eq!(e.union(&s).to_vec(), s.to_vec());
    assert!(e.intersect(&s).is_empty());
    assert_eq!(s.difference(&e).to_vec(), s.to_vec());
    assert!(e.difference(&s).is_empty());
}

#[test]
fn multi_insert_and_delete_match_oracle() {
    for &b in &[4usize, 64] {
        let mut s = PacSet::<u64>::from_keys_with(b, keys((0..500).map(|i| i * 4)));
        let mut oracle: BTreeSet<u64> = (0..500).map(|i| i * 4).collect();
        let batch: Vec<u64> = (0..300).map(|i| i * 7).collect();
        s = s.multi_insert(batch.clone());
        for k in &batch {
            oracle.insert(*k);
        }
        s.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(s.to_vec(), oracle.iter().copied().collect::<Vec<_>>());

        let dels: Vec<u64> = (0..400).map(|i| i * 5).collect();
        s = s.multi_delete(dels.clone());
        for k in &dels {
            oracle.remove(k);
        }
        s.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(s.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
    }
}

#[test]
fn rank_select_are_inverse() {
    let s = PacSet::<u64>::from_keys_with(16, keys((0..1000).map(|i| i * 2 + 1)));
    for i in [0usize, 1, 499, 500, 999] {
        let k = s.select(i).expect("in range");
        assert_eq!(s.rank(&k), i);
    }
    assert_eq!(s.select(1000), None);
    assert_eq!(s.rank(&0), 0);
    assert_eq!(s.rank(&u64::MAX), 1000);
}

#[test]
fn succ_pred_first_last() {
    let s = PacSet::<u64>::from_keys_with(8, keys([10, 20, 30, 40]));
    assert_eq!(s.succ(&15), Some(20));
    assert_eq!(s.succ(&20), Some(20));
    assert_eq!(s.succ(&41), None);
    assert_eq!(s.pred(&15), Some(10));
    assert_eq!(s.pred(&9), None);
    assert_eq!(s.first(), Some(10));
    assert_eq!(s.last(), Some(40));
}

#[test]
fn range_and_count_range() {
    let s = PacSet::<u64>::from_keys_with(4, keys((0..200).map(|i| i * 5)));
    let r = s.range(&23, &102);
    r.check_invariants().expect("invariants");
    assert_eq!(r.to_vec(), keys([25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100]));
    assert_eq!(s.count_range(&23, &102), 16);
    assert_eq!(s.count_range(&25, &25), 1);
    assert_eq!(s.count_range(&26, &29), 0);
}

/// An inverted interval is empty: `count_range` used to underflow on it
/// (a panic in debug, `2^64 - k` in release).
#[test]
fn inverted_interval_is_empty() {
    for &b in BLOCK_SIZES {
        let s = PacSet::<u64>::from_keys_with(b, keys((0..200).map(|i| i * 5)));
        for (lo, hi) in [(500, 100), (100, 95), (101, 100), (1, 0), (u64::MAX, 0), (995, 0)] {
            assert_eq!(s.range_keys(&lo, &hi), keys([]), "b={b} [{lo}, {hi}]");
            assert_eq!(s.count_range(&lo, &hi), 0, "b={b} [{lo}, {hi}]");
            assert!(s.range(&lo, &hi).is_empty(), "b={b} [{lo}, {hi}]");
        }
    }
}

#[test]
fn filter_and_map_reduce() {
    let s = PacSet::<u64>::from_keys_with(16, keys(0..1000));
    let f = s.filter(|k| k % 10 == 0);
    f.check_invariants().expect("invariants");
    assert_eq!(f.len(), 100);
    let total = s.map_reduce(|k| *k, |a, b| a + b, 0u64);
    assert_eq!(total, 999 * 1000 / 2);
}

#[test]
fn filter_keeps_single_element_with_cheap_copy() {
    // The paper's point about functional filter: removing all but one
    // element still yields a valid tree.
    let s = PacSet::<u64>::from_keys_with(128, keys(0..5000));
    let f = s.filter(|k| *k == 2500);
    assert_eq!(f.to_vec(), vec![2500]);
}

#[test]
fn split_respects_key_order() {
    let s = PacSet::<u64>::from_keys_with(8, keys((0..100).map(|i| i * 2)));
    let (lo, found, hi) = s.split(&50);
    assert!(found);
    assert_eq!(lo.len(), 25);
    assert_eq!(hi.len(), 74);
    lo.check_invariants().expect("lo invariants");
    hi.check_invariants().expect("hi invariants");
    let (lo2, found2, _hi2) = s.split(&51);
    assert!(!found2);
    assert_eq!(lo2.len(), 26);
}

#[test]
fn snapshots_are_isolated() {
    let s0 = PacSet::<u64>::from_keys_with(8, keys(0..100));
    let s1 = s0.insert(1000);
    let s2 = s1.multi_insert(keys(2000..2100));
    let s3 = s2.multi_delete(keys(0..50));
    assert_eq!(s0.len(), 100);
    assert_eq!(s1.len(), 101);
    assert_eq!(s2.len(), 201);
    assert_eq!(s3.len(), 151);
    assert!(s0.contains(&10) && !s3.contains(&10));
}

#[test]
fn delta_encoded_set_behaves_identically() {
    let raw = PacSet::<u64>::from_keys_with(32, keys((0..2000).map(|i| i * 3)));
    let packed = PacSet::<u64, NoAug, DeltaCodec>::from_keys_with(32, keys((0..2000).map(|i| i * 3)));
    packed.check_invariants().expect("invariants");
    assert_eq!(raw.to_vec(), packed.to_vec());
    assert_eq!(raw.rank(&999), packed.rank(&999));
    let pu = packed.union(&PacSet::from_keys_with(32, keys(0..500)));
    pu.check_invariants().expect("invariants");
    assert_eq!(pu.len(), raw.union(&PacSet::from_keys_with(32, keys(0..500))).len());
    // And it is much smaller.
    assert!(packed.space_stats().total_bytes < raw.space_stats().total_bytes / 3);
}

#[test]
fn space_stats_count_entries() {
    let s = PacSet::<u64>::from_keys_with(128, keys(0..10_000));
    let st = s.space_stats();
    assert_eq!(st.entries, 10_000);
    assert!(st.flat_nodes >= 10_000 / 256 && st.flat_nodes <= 10_000 / 128 + 1);
    // Blocking: regular nodes are rare.
    assert!(st.regular_nodes < st.entries / 64);
}

#[test]
fn iterator_matches_to_vec() {
    let s = PacSet::<u64>::from_keys_with(8, keys((0..500).map(|i| i * 7)));
    let via_iter: Vec<u64> = s.iter().collect();
    assert_eq!(via_iter, s.to_vec());
}

#[test]
fn block_size_one_matches_ptree_semantics() {
    // B = 1: every leaf is a block of 1-2 entries; the paper notes this
    // configuration behaves like a P-tree.
    let s = PacSet::<u64>::from_keys_with(1, keys(0..200));
    s.check_invariants().expect("invariants");
    assert_eq!(s.len(), 200);
    let s2 = s.insert(500).remove(&0);
    s2.check_invariants().expect("invariants");
    assert_eq!(s2.len(), 200);
}
