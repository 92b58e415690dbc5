//! [`PacSet`]: a purely-functional ordered set on PaC-trees — the
//! scalar-entry alias of [`PacOrd`] plus the key-shaped methods.

use codecs::{Codec, RawCodec};

use crate::aug::{Augmentation, NoAug};
use crate::base::{from_sorted, to_vec};
use crate::entry::ScalarKey;
use crate::join::{expose_owned, join, split};
use crate::node::{size, Tree};
use crate::ordered::PacOrd;

/// A purely-functional ordered set with blocked, optionally compressed
/// leaves: [`PacOrd`] whose entries are their own keys.
///
/// With integer elements and [`codecs::DeltaCodec`] this is the paper's
/// compact ordered-set representation (Corollary 4.3). Everything
/// key-only (`remove`, `difference`, `rank`/`select`, `range`,
/// `count_range`, iteration, ...) is documented on [`PacOrd`]; the
/// methods whose shape depends on an element being its own key are in
/// the `PacOrd<K, A, C>` impl block.
///
/// An empty set followed *directly* by one of those methods needs its
/// element type in sight (`PacSet::<u64>::new().insert(1)`, or a typed
/// binding), because maps have methods of the same names.
///
/// # Examples
///
/// ```
/// use cpam::PacSet;
/// use codecs::DeltaCodec;
///
/// let a: PacSet<u64> = PacSet::from_keys((0..100).collect());
/// let b: PacSet<u64> = PacSet::from_keys((50..150).collect());
/// assert_eq!(a.union(&b).len(), 150);
/// assert_eq!(a.intersect(&b).len(), 50);
/// assert_eq!(a.difference(&b).len(), 50);
///
/// // Difference-encoded set: ~1 byte per element for dense keys.
/// let c: PacSet<u64, cpam::NoAug, DeltaCodec> =
///     PacSet::from_keys_with(128, (0..10_000).collect());
/// assert!(c.space_stats().total_bytes < 10_000 * 4);
/// ```
pub type PacSet<K, A = NoAug, C = RawCodec> = PacOrd<K, A, C>;

/// Combining two equal set elements keeps the stored one.
fn keep_stored<K: Clone>(stored: &K, _new: &K) -> K {
    stored.clone()
}

/// The set-shaped methods of [`PacOrd`] (see [`PacSet`]).
impl<K, A, C> PacOrd<K, A, C>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    /// Builds from arbitrary keys (parallel sort + dedup).
    pub fn from_keys(keys: Vec<K>) -> Self {
        Self::from_entries(crate::DEFAULT_B, keys)
    }

    /// [`PacSet::from_keys`] with an explicit block size.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn from_keys_with(b: usize, keys: Vec<K>) -> Self {
        Self::from_entries(b, keys)
    }

    /// Builds from strictly increasing keys. `O(n)` work.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`; debug-panics if keys are not strictly
    /// increasing.
    pub fn from_sorted_keys(b: usize, keys: &[K]) -> Self {
        Self::from_sorted_entries(b, keys)
    }

    /// True if `k` is a member. `O(log n + B)` work.
    pub fn contains(&self, k: &K) -> bool {
        self.find_entry(k).is_some()
    }

    /// A new set with `k` added.
    pub fn insert(&self, k: K) -> Self {
        self.clone().insert_owned(k)
    }

    /// Consuming [`PacSet::insert`]: uniquely-owned nodes on the update
    /// path are rebuilt in place instead of path-copied (the refcount-1
    /// fast path; see [`PacOrd`]'s "Consuming updates" section).
    pub fn insert_owned(self, k: K) -> Self {
        self.insert_by(k, &keep_stored)
    }

    /// Set union. Work `O(m log(n/m) + min(mB, n))` (Theorem 6.3).
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different block sizes (the result
    /// shares subtrees with the larger input, and with the smaller one
    /// too when their key ranges do not interleave, so mismatched `B`
    /// would silently violate the leaf-size invariant).
    pub fn union(&self, other: &Self) -> Self {
        self.clone().union_owned(other.clone())
    }

    /// Consuming [`PacSet::union`]: both operands are consumed, the
    /// smaller is applied to the larger as a batch, and the larger's
    /// uniquely owned nodes are reused in place.
    ///
    /// # Panics
    ///
    /// See [`PacSet::union`].
    pub fn union_owned(self, other: Self) -> Self {
        self.union_by(other, &keep_stored)
    }

    /// Set intersection.
    ///
    /// # Panics
    ///
    /// See [`PacSet::union`].
    pub fn intersect(&self, other: &Self) -> Self {
        self.clone().intersect_owned(other.clone())
    }

    /// Consuming [`PacSet::intersect`].
    ///
    /// # Panics
    ///
    /// See [`PacSet::union`].
    pub fn intersect_owned(self, other: Self) -> Self {
        self.intersect_by(other, &keep_stored)
    }

    /// Expose-only union (Fig. 10, no base case): the base-case ablation
    /// benchmark's baseline and the property tests' reference union.
    #[doc(hidden)]
    pub fn union_naive(&self, other: &Self) -> Self {
        self.clone().apply2(other.clone(), |b, l, r| {
            let grain = parlay::cutoff(size(&l) + size(&r), (4 * b).max(1024));
            naive_union(b, grain, l, r)
        })
    }

    /// Batch insert of arbitrary keys (parallel sort + dedup + merge).
    pub fn multi_insert(&self, keys: Vec<K>) -> Self {
        self.clone().multi_insert_owned(keys)
    }

    /// Consuming [`PacSet::multi_insert`].
    pub fn multi_insert_owned(self, keys: Vec<K>) -> Self {
        self.multi_insert_by(keys, &keep_stored)
    }

    /// Keeps elements satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&K) -> bool + Sync) -> Self {
        self.clone().filter_owned(pred)
    }

    /// Consuming [`PacSet::filter`].
    pub fn filter_owned(self, pred: impl Fn(&K) -> bool + Sync) -> Self {
        self.filter_by(&pred)
    }

    /// Parallel map-reduce over elements.
    pub fn map_reduce<R: Send + Sync + Clone>(
        &self,
        m: impl Fn(&K) -> R + Sync,
        op: impl Fn(R, R) -> R + Sync,
        id: R,
    ) -> R {
        self.map_reduce_by(&m, &op, id)
    }

    /// Elements in `[lo, hi]` as a vector, without building a subtree.
    pub fn range_keys(&self, lo: &K, hi: &K) -> Vec<K> {
        self.range_entries(lo, hi)
    }

    /// Splits into (elements `< k`, membership of `k`, elements `> k`).
    pub fn split(&self, k: &K) -> (Self, bool, Self) {
        let (l, m, r) = self.split_entry(k);
        (l, m.is_some(), r)
    }
}

/// Fig. 10's union: expose `t2`, split `t1` at its pivot, recurse on
/// both halves and `join` them back around the pivot (`t1`'s copy of a
/// shared key).
fn naive_union<K, A, C>(
    b: usize,
    grain: usize,
    t1: Tree<K, A, C>,
    t2: Tree<K, A, C>,
) -> Tree<K, A, C>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    let (Some(n1), Some(n2)) = (&t1, &t2) else {
        // What is left of `t2` may be a flat node `expose` unfolded into
        // regular ones, against the invariant: fold it back.
        return match t1.or(t2) {
            Some(n) if !n.is_flat() && n.size() <= 2 * b => from_sorted(b, &to_vec(&Some(n))),
            t => t,
        };
    };
    let s = n1.size() + n2.size();
    let (l2, k2, r2, husk) = expose_owned(t2);
    let (l1, m, r1) = split(b, t1, &k2);
    let rec = |t1, t2| naive_union(b, grain, t1, t2);
    let (tl, tr) = parlay::join_if(s > grain, || rec(l1, l2), || rec(r1, r2));
    join(b, husk, tl, m.unwrap_or(k2), tr)
}
