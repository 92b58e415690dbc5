//! Map and augmentation behaviour, against a `BTreeMap` oracle.

use std::collections::BTreeMap;

use crate::{Augmentation, MaxAug, PacMap, SumAug};

fn pairs(range: std::ops::Range<u64>, f: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
    range.map(|i| (i, f(i))).collect()
}

#[test]
fn build_find_and_replace_semantics() {
    let m = PacMap::<u64, u64>::from_pairs_with(16, vec![(1, 10), (2, 20), (1, 11)]);
    // Last duplicate wins in from_pairs.
    assert_eq!(m.find(&1), Some(11));
    assert_eq!(m.find(&2), Some(20));
    assert_eq!(m.find(&3), None);
    assert_eq!(m.len(), 2);
}

#[test]
fn insert_with_combines_values() {
    let m = PacMap::<u64, u64>::from_pairs_with(8, pairs(0..100, |i| i));
    let m2 = m.insert_with(50, 7, |old, new| old + new);
    assert_eq!(m2.find(&50), Some(57));
    assert_eq!(m.find(&50), Some(50), "original version unchanged");
}

#[test]
fn oracle_random_operations() {
    for &b in &[2usize, 16, 128] {
        let mut m = PacMap::<u64, u64>::with_block_size(b);
        let mut oracle = BTreeMap::new();
        let mut state = 88172645463325252u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..600 {
            let k = rand() % 256;
            match step % 4 {
                0 | 1 => {
                    m = m.insert(k, step as u64);
                    oracle.insert(k, step as u64);
                }
                2 => {
                    m = m.remove(&k);
                    oracle.remove(&k);
                }
                _ => {
                    assert_eq!(m.find(&k), oracle.get(&k).copied(), "b={b} step={step}");
                }
            }
        }
        m.check_invariants().unwrap_or_else(|e| panic!("b={b}: {e}"));
        assert_eq!(
            m.to_vec(),
            oracle.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        );
    }
}

#[test]
fn union_with_value_combination() {
    let a = PacMap::<u64, u64>::from_pairs_with(8, pairs(0..100, |_| 1));
    let b = PacMap::<u64, u64>::from_pairs_with(8, pairs(50..150, |_| 2));
    let u = a.union_with(&b, |x, y| x + y);
    assert_eq!(u.len(), 150);
    assert_eq!(u.find(&10), Some(1));
    assert_eq!(u.find(&75), Some(3), "overlap combines");
    assert_eq!(u.find(&120), Some(2));

    let right_biased = a.union(&b);
    assert_eq!(right_biased.find(&75), Some(2));
}

#[test]
fn intersect_and_difference_values() {
    let a = PacMap::<u64, u64>::from_pairs_with(8, pairs(0..100, |i| i));
    let b = PacMap::<u64, u64>::from_pairs_with(8, pairs(50..150, |i| i * 10));
    let i = a.intersect_with(&b, |x, _| *x);
    assert_eq!(i.len(), 50);
    assert_eq!(i.find(&60), Some(60));
    let d = a.difference(&b);
    assert_eq!(d.len(), 50);
    assert!(d.contains_key(&49) && !d.contains_key(&50));
}

#[test]
fn multi_insert_with_combine() {
    let m = PacMap::<u64, u64>::from_pairs_with(16, pairs(0..200, |_| 1));
    let batch: Vec<(u64, u64)> = (100..300).map(|i| (i, 10)).collect();
    let m2 = m.multi_insert_with(batch, |old, new| old + new);
    m2.check_invariants().expect("invariants");
    assert_eq!(m2.len(), 300);
    assert_eq!(m2.find(&50), Some(1));
    assert_eq!(m2.find(&150), Some(11));
    assert_eq!(m2.find(&250), Some(10));
}

#[test]
fn map_values_preserves_shape_and_keys() {
    let m = PacMap::<u64, u64>::from_pairs_with(32, pairs(0..1000, |i| i));
    let doubled = m.map_values(|_, v| v * 2);
    assert_eq!(doubled.len(), 1000);
    assert_eq!(doubled.find(&300), Some(600));
    // Shape preservation: identical node counts.
    assert_eq!(
        m.space_stats().regular_nodes,
        doubled.space_stats().regular_nodes
    );
    assert_eq!(m.space_stats().flat_nodes, doubled.space_stats().flat_nodes);
}

#[test]
fn sum_augmentation_tracks_totals() {
    let m = PacMap::<u64, u64, SumAug>::from_pairs_with(8, pairs(0..100, |i| i));
    m.check_invariants().expect("invariants");
    assert_eq!(m.aug_value(), 99 * 100 / 2);
    // aug_range over [10, 19]: sum of 10..=19.
    assert_eq!(m.aug_range(&10, &19), (10..=19).sum::<u64>());
    // Range boundaries off the ends.
    assert_eq!(m.aug_range(&0, &99), m.aug_value());
    assert_eq!(m.aug_range(&200, &300), 0);
    // Updates maintain augmentation.
    let m2 = m.insert(1000, 5);
    assert_eq!(m2.aug_value(), m.aug_value() + 5);
    let m3 = m2.remove(&0);
    assert_eq!(m3.aug_value(), m2.aug_value());
    let m4 = m3.remove(&50);
    assert_eq!(m4.aug_value(), m3.aug_value() - 50);
    m4.check_invariants().expect("invariants");
}

#[test]
fn max_augmentation_and_prune_search() {
    // Interval-tree pattern: key = left endpoint, value = right endpoint,
    // augmentation = max right endpoint.
    let intervals: Vec<(u64, u64)> = vec![(0, 10), (5, 8), (6, 20), (15, 18), (30, 35)];
    let m = PacMap::<u64, u64, MaxAug>::from_pairs_with(2, intervals);
    m.check_invariants().expect("invariants");
    assert_eq!(m.aug_value(), 35);
    // Stab at q = 9: intervals with left <= 9 and right >= 9.
    let q = 9u64;
    let hits = m.prune_search(&q, |max_right| *max_right >= q, |_, right| *right >= q);
    assert_eq!(hits, vec![(0, 10), (6, 20)]);
    // Stab at q = 25: nothing covers it.
    let q = 25u64;
    let hits = m.prune_search(&q, |max_right| *max_right >= q, |_, right| *right >= q);
    assert!(hits.is_empty());
}

#[test]
fn range_decompose_counts_match_range_entries() {
    let m = PacMap::<u64, u64, SumAug>::from_pairs_with(4, pairs(0..500, |_| 1));
    for (lo, hi) in [(0u64, 499u64), (10, 10), (13, 257), (490, 600), (600, 700)] {
        let mut count = 0u64;
        m.range_decompose(&lo, &hi, |part| match part {
            crate::RangePart::Subtree(sum) => count += *sum,
            crate::RangePart::Entry(_, v) => count += *v,
        });
        assert_eq!(count, m.range_entries(&lo, &hi).len() as u64, "[{lo},{hi}]");
    }
}

/// The first and last key of a run: a non-commutative monoid, so a
/// piece combined out of key order changes the value.
struct FirstLast;

impl Augmentation<(u64, u64)> for FirstLast {
    type Value = Option<(u64, u64)>;
    fn identity() -> Self::Value {
        None
    }
    fn from_entry(e: &(u64, u64)) -> Self::Value {
        Some((e.0, e.0))
    }
    fn combine(a: &Self::Value, b: &Self::Value) -> Self::Value {
        match (a, b) {
            (Some((first, _)), Some((_, last))) => Some((*first, *last)),
            _ => a.or(*b),
        }
    }
}

/// `aug_range` and `range_decompose` combine their pieces in key order,
/// as `Augmentation` promises: on keys `0..1000` at B = 4 the first/last
/// key of `[lo, hi]` is `(lo, hi)`.
#[test]
fn range_aggregates_follow_key_order() {
    let m = PacMap::<u64, u64, FirstLast>::from_pairs_with(4, pairs(0..1000, |i| i));
    let probes = [(3u64, 997u64), (0, 999), (1, 998), (250, 750), (499, 500)];
    let sweep = (0..1000).step_by(37).flat_map(|lo| (lo..1000).step_by(53).map(move |hi| (lo, hi)));
    for (lo, hi) in probes.into_iter().chain(sweep) {
        assert_eq!(m.aug_range(&lo, &hi), Some((lo, hi)), "aug_range [{lo},{hi}]");
        let mut acc = FirstLast::identity();
        m.range_decompose(&lo, &hi, |part| {
            let v = match part {
                crate::RangePart::Subtree(v) => *v,
                crate::RangePart::Entry(k, v) => FirstLast::from_entry(&(*k, *v)),
            };
            acc = FirstLast::combine(&acc, &v);
        });
        assert_eq!(acc, Some((lo, hi)), "range_decompose [{lo},{hi}]");
    }
}

/// `count_range` is the length of `range_entries`, inverted and empty
/// intervals included (on a map the method only exists since the front
/// ends were merged; on a set the inverted case used to underflow).
#[test]
fn count_range_matches_range_entries() {
    let m = PacMap::<u64, u64, SumAug>::from_pairs_with(4, pairs(0..500, |i| 3 * i));
    let intervals = [(0u64, 499u64), (10, 10), (13, 257), (490, 600), (600, 700)];
    for (lo, hi) in intervals.into_iter().chain(intervals.map(|(lo, hi)| (hi + 1, lo))) {
        let entries = m.range_entries(&lo, &hi);
        assert_eq!(m.count_range(&lo, &hi), entries.len(), "[{lo},{hi}]");
        assert_eq!(m.range(&lo, &hi).to_vec(), entries, "[{lo},{hi}]");
        assert_eq!(m.aug_range(&lo, &hi), entries.iter().map(|e| e.1).sum(), "[{lo},{hi}]");
    }
    assert_eq!(m.count_range(&257, &13), 0);
}

#[test]
fn rank_select_succ_pred() {
    let m = PacMap::<u64, u64>::from_pairs_with(16, pairs(0..100, |i| i).into_iter().map(|(k, v)| (k * 3, v)).collect());
    assert_eq!(m.rank(&0), 0);
    assert_eq!(m.rank(&1), 1);
    assert_eq!(m.select(10), Some((30, 10)));
    assert_eq!(m.succ(&31).map(|e| e.0), Some(33));
    assert_eq!(m.pred(&31).map(|e| e.0), Some(30));
    assert_eq!(m.first(), Some((0, 0)));
    assert_eq!(m.last(), Some((297, 99)));
}

#[test]
fn append_concatenates_disjoint_maps() {
    let a = PacMap::<u64, u64>::from_pairs_with(8, pairs(0..100, |i| i));
    let b = PacMap::<u64, u64>::from_pairs_with(8, pairs(100..200, |i| i));
    let c = a.append(&b);
    c.check_invariants().expect("invariants");
    assert_eq!(c.len(), 200);
    assert_eq!(c.find(&150), Some(150));
}

#[test]
fn join_and_split_roundtrip() {
    let m = PacMap::<u64, u64>::from_pairs_with(8, pairs(0..200, |i| i));
    let (lo, v, hi) = m.split(&100);
    assert_eq!(v, Some(100));
    let rejoined = PacMap::join(&lo, 100, 100, &hi);
    rejoined.check_invariants().expect("invariants");
    assert_eq!(rejoined.to_vec(), m.to_vec());
}

#[test]
fn filter_on_key_and_value() {
    let m = PacMap::<u64, u64>::from_pairs_with(32, pairs(0..1000, |i| i % 7));
    let f = m.filter(|k, v| k % 2 == 0 && *v == 3);
    f.check_invariants().expect("invariants");
    for (k, v) in f.to_vec() {
        assert!(k % 2 == 0 && v == 3);
    }
    assert_eq!(
        f.len(),
        (0..1000u64).filter(|i| i % 2 == 0 && i % 7 == 3).count()
    );
}

#[test]
fn equality_compares_contents() {
    let a = PacMap::<u64, u64>::from_pairs_with(8, pairs(0..50, |i| i));
    let b = PacMap::<u64, u64>::from_pairs_with(64, pairs(0..50, |i| i));
    // Different block sizes, same contents.
    assert_eq!(a, b);
    let c = b.insert(7, 99);
    assert_ne!(a, c);
}
