//! Property-based tests: PaC-tree collections against std oracles, with
//! full invariant checks after every operation sequence, across block
//! sizes (including the degenerate B = 1 P-tree-like configuration).

use std::collections::{BTreeMap, BTreeSet};

use cpam::{PacMap, PacSeq, PacSet, SumAug};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum SetOp {
    Insert(u16),
    Remove(u16),
    MultiInsert(Vec<u16>),
    MultiDelete(Vec<u16>),
    Filter(u16),
}

fn set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        any::<u16>().prop_map(SetOp::Insert),
        any::<u16>().prop_map(SetOp::Remove),
        prop::collection::vec(any::<u16>(), 0..50).prop_map(SetOp::MultiInsert),
        prop::collection::vec(any::<u16>(), 0..50).prop_map(SetOp::MultiDelete),
        (1u16..20).prop_map(SetOp::Filter),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn set_operation_sequences_match_btreeset(
        b in prop::sample::select(vec![1usize, 2, 5, 16, 64]),
        init in prop::collection::vec(any::<u16>(), 0..300),
        ops in prop::collection::vec(set_op(), 0..12),
    ) {
        let mut s = PacSet::<u16>::from_keys_with(b, init.clone());
        let mut oracle: BTreeSet<u16> = init.into_iter().collect();
        s.check_invariants().map_err(TestCaseError::fail)?;
        for op in ops {
            match op {
                SetOp::Insert(k) => {
                    s = s.insert(k);
                    oracle.insert(k);
                }
                SetOp::Remove(k) => {
                    s = s.remove(&k);
                    oracle.remove(&k);
                }
                SetOp::MultiInsert(ks) => {
                    s = s.multi_insert(ks.clone());
                    oracle.extend(ks);
                }
                SetOp::MultiDelete(ks) => {
                    s = s.multi_delete(ks.clone());
                    for k in ks {
                        oracle.remove(&k);
                    }
                }
                SetOp::Filter(m) => {
                    s = s.filter(|k| k % m == 0);
                    oracle.retain(|k| k % m == 0);
                }
            }
            s.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(s.len(), oracle.len());
        }
        prop_assert_eq!(s.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn set_algebra_matches_btreeset(
        b in prop::sample::select(vec![2usize, 16, 128]),
        xs in prop::collection::vec(any::<u16>(), 0..400),
        ys in prop::collection::vec(any::<u16>(), 0..400),
        zs in prop::collection::vec(any::<u8>(), 0..8),
        place in 0u8..3,
    ) {
        let sx = PacSet::<u16>::from_keys_with(b, xs.clone());
        let sy = PacSet::<u16>::from_keys_with(b, ys.clone());
        let ox: BTreeSet<u16> = xs.into_iter().collect();
        let oy: BTreeSet<u16> = ys.into_iter().collect();
        // A small third operand wholly below `xs`, wholly above it, or
        // inside its range (where `xs` leaves room).
        let (lo, hi) = (ox.first().copied().unwrap_or(0), ox.last().copied().unwrap_or(u16::MAX));
        let oz: BTreeSet<u16> = zs
            .into_iter()
            .map(|k| match place {
                0 => lo.saturating_sub(1 + u16::from(k)),
                1 => hi.saturating_add(1 + u16::from(k)),
                _ => lo + u16::from(k) % (hi - lo).max(1),
            })
            .collect();
        let sz = PacSet::<u16>::from_keys_with(b, oz.iter().copied().collect());

        // Either side the smaller one, through the disjoint shortcut and
        // the paths that keep only what the smaller operand names.
        for (sa, oa, sb, ob) in [(&sx, &ox, &sy, &oy), (&sx, &ox, &sz, &oz), (&sz, &oz, &sx, &ox)] {
            let u = sa.union(sb);
            u.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(u.to_vec(), oa.union(ob).copied().collect::<Vec<_>>());

            let i = sa.intersect(sb);
            i.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(i.to_vec(), oa.intersection(ob).copied().collect::<Vec<_>>());

            let d = sa.difference(sb);
            d.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(d.to_vec(), oa.difference(ob).copied().collect::<Vec<_>>());

            // The naive (expose-only) union must agree with the optimized one.
            prop_assert_eq!(sa.union_naive(sb).to_vec(), u.to_vec());
        }
    }

    #[test]
    fn map_queries_match_btreemap(
        b in prop::sample::select(vec![1usize, 8, 64]),
        pairs in prop::collection::vec(any::<(u16, u32)>(), 0..300),
        probes in prop::collection::vec(any::<u16>(), 0..40),
    ) {
        let m = PacMap::<u16, u32>::from_pairs_with(b, pairs.clone());
        let mut oracle = BTreeMap::new();
        for (k, v) in pairs {
            oracle.insert(k, v);
        }
        m.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(m.len(), oracle.len());
        for k in probes {
            prop_assert_eq!(m.find(&k), oracle.get(&k).copied());
            prop_assert_eq!(m.rank(&k), oracle.range(..k).count());
            prop_assert_eq!(
                m.succ(&k).map(|e| e.0),
                oracle.range(k..).next().map(|(k2, _)| *k2)
            );
            prop_assert_eq!(
                m.pred(&k).map(|e| e.0),
                oracle.range(..=k).next_back().map(|(k2, _)| *k2)
            );
        }
    }

    #[test]
    fn range_queries_match_oracle(
        b in prop::sample::select(vec![2usize, 32]),
        keys in prop::collection::vec(any::<u16>(), 0..300),
        lo in any::<u16>(),
        width in 0u16..500,
    ) {
        let hi = lo.saturating_add(width);
        let s = PacSet::<u16>::from_keys_with(b, keys.clone());
        let oracle: BTreeSet<u16> = keys.into_iter().collect();
        let expected: Vec<u16> = oracle.range(lo..=hi).copied().collect();
        let r = s.range(&lo, &hi);
        r.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(r.to_vec(), expected.clone());
        prop_assert_eq!(s.count_range(&lo, &hi), expected.len());
    }

    #[test]
    fn aug_range_matches_manual_sum(
        pairs in prop::collection::vec((any::<u16>(), 0u64..1000), 0..250),
        lo in any::<u16>(),
        width in 0u16..400,
    ) {
        let hi = lo.saturating_add(width);
        let m = PacMap::<u16, u64, SumAug>::from_pairs_with(4, pairs.clone());
        m.check_invariants().map_err(TestCaseError::fail)?;
        let mut oracle = BTreeMap::new();
        for (k, v) in pairs {
            oracle.insert(k, v);
        }
        let expected: u64 = oracle.range(lo..=hi).map(|(_, v)| *v).sum();
        prop_assert_eq!(m.aug_range(&lo, &hi), expected);
    }

    #[test]
    fn sequence_ops_match_vec(
        b in prop::sample::select(vec![1usize, 4, 32]),
        values in prop::collection::vec(any::<u32>(), 0..400),
        i in 0usize..500,
        j in 0usize..500,
    ) {
        let s = PacSeq::<u32>::from_slice_with(b, &values);
        s.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(s.to_vec(), values.clone());
        prop_assert_eq!(s.nth(i), values.get(i).copied());

        let take = s.take(i.min(values.len()));
        prop_assert_eq!(take.to_vec(), values[..i.min(values.len())].to_vec());

        let (lo, hi) = (i.min(j).min(values.len()), i.max(j).min(values.len()));
        let sub = s.subseq(lo, hi);
        sub.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(sub.to_vec(), values[lo..hi].to_vec());

        let mut rev = values.clone();
        rev.reverse();
        prop_assert_eq!(s.reverse().to_vec(), rev);
    }

    #[test]
    fn append_matches_concat(
        b in prop::sample::select(vec![2usize, 16]),
        xs in prop::collection::vec(any::<u32>(), 0..300),
        ys in prop::collection::vec(any::<u32>(), 0..300),
    ) {
        let sx = PacSeq::<u32>::from_slice_with(b, &xs);
        let sy = PacSeq::<u32>::from_slice_with(b, &ys);
        let z = sx.append(&sy);
        z.check_invariants().map_err(TestCaseError::fail)?;
        let expected: Vec<u32> = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert_eq!(z.to_vec(), expected);
    }

    #[test]
    fn delta_and_raw_sets_agree(
        keys in prop::collection::vec(any::<u32>(), 0..500),
        others in prop::collection::vec(any::<u32>(), 0..500),
    ) {
        let raw = PacSet::<u32>::from_keys_with(16, keys.clone());
        let packed = cpam::DiffSet::<u32>::from_keys_with(16, keys);
        packed.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(raw.to_vec(), packed.to_vec());

        let raw2 = raw.multi_insert(others.clone());
        let packed2 = packed.multi_insert(others);
        packed2.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(raw2.to_vec(), packed2.to_vec());
    }
}
