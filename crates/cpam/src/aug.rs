//! User-defined augmentation (Section 3 of the paper).
//!
//! An augmented tree keeps, at every regular node and once per leaf
//! block, an aggregate of the entries below it under any associative
//! operation. Storing one value per *block* (instead of per entry as in
//! PAM's P-trees) is where much of the space saving for augmented maps
//! comes from (Fig. 13 of the paper).

use crate::entry::Element;

/// An associative aggregation over entries.
///
/// `combine` must be associative and `identity` its unit; aggregation
/// order follows the in-order entry sequence, so non-commutative monoids
/// are fine.
pub trait Augmentation<E>: 'static {
    /// The aggregated value type.
    type Value: Element;

    /// The unit of [`Augmentation::combine`].
    fn identity() -> Self::Value;

    /// Lifts one entry into the aggregate domain.
    fn from_entry(entry: &E) -> Self::Value;

    /// Combines two aggregates (associative).
    fn combine(left: &Self::Value, right: &Self::Value) -> Self::Value;

    /// Folds a run of entries; codecs call this once per block.
    fn from_entries(entries: &[E]) -> Self::Value {
        let mut acc = Self::identity();
        for e in entries {
            acc = Self::combine(&acc, &Self::from_entry(e));
        }
        acc
    }
}

/// No augmentation: zero-sized aggregate, compiles to no-ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NoAug;

impl<E> Augmentation<E> for NoAug {
    type Value = ();
    fn identity() {}
    fn from_entry(_: &E) {}
    fn combine(_: &(), _: &()) {}
    fn from_entries(_: &[E]) {}
}

/// Sums the values of `(K, V)` map entries.
///
/// ```
/// use cpam::{Augmentation, SumAug};
/// let v = <SumAug as Augmentation<(u64, u64)>>::from_entries(&[(1, 10), (2, 20)]);
/// assert_eq!(v, 30);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SumAug;

impl<K: Element> Augmentation<(K, u64)> for SumAug {
    type Value = u64;
    fn identity() -> u64 {
        0
    }
    fn from_entry(e: &(K, u64)) -> u64 {
        e.1
    }
    fn combine(a: &u64, b: &u64) -> u64 {
        a + b
    }
}

/// Maximum of the values of `(K, V)` map entries (e.g. the max
/// right-endpoint augmentation of an interval tree, or the max importance
/// score of an inverted-index posting list).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MaxAug;

impl<K: Element, V: Ord + Clone + Send + Sync + Default + 'static> Augmentation<(K, V)> for MaxAug {
    type Value = V;
    fn identity() -> V {
        V::default()
    }
    fn from_entry(e: &(K, V)) -> V {
        e.1.clone()
    }
    fn combine(a: &V, b: &V) -> V {
        a.clone().max(b.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noaug_is_unit() {
        <NoAug as Augmentation<u64>>::combine(&(), &());
        assert_eq!(<NoAug as Augmentation<u64>>::from_entries(&[1, 2, 3]), ());
    }

    #[test]
    fn sum_aug_folds_values() {
        let entries: Vec<(u32, u64)> = (0..10).map(|i| (i, u64::from(i))).collect();
        assert_eq!(
            <SumAug as Augmentation<(u32, u64)>>::from_entries(&entries),
            45
        );
    }

    #[test]
    fn max_aug_takes_maximum() {
        let entries = [(1u64, 5u64), (2, 17), (3, 2)];
        assert_eq!(
            <MaxAug as Augmentation<(u64, u64)>>::from_entries(&entries),
            17
        );
    }
}
