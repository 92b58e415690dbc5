//! [`PacSet`]: a purely-functional ordered set on PaC-trees.

use codecs::{Codec, RawCodec};

use crate::aug::{Augmentation, NoAug};
use crate::entry::ScalarKey;
use crate::iter::Iter;
use crate::node::{aug_of, size, SpaceStats, Tree};
use crate::{algos, base, join as jn, setops, structure, verify, DEFAULT_B};

/// A purely-functional ordered set with blocked, optionally compressed
/// leaves.
///
/// The set analogue of [`crate::PacMap`]: elements are their own keys.
/// With integer elements and [`codecs::DeltaCodec`] this is the paper's
/// compact ordered-set representation (Corollary 4.3).
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
pub struct PacSet<K, A = NoAug, C = RawCodec>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    pub(crate) root: Tree<K, A, C>,
    pub(crate) b: usize,
}

impl<K, A, C> Clone for PacSet<K, A, C>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    fn clone(&self) -> Self {
        PacSet {
            root: self.root.clone(),
            b: self.b,
        }
    }
}

impl<K, A, C> Default for PacSet<K, A, C>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, A, C> std::fmt::Debug for PacSet<K, A, C>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacSet")
            .field("len", &self.len())
            .field("block_size", &self.b)
            .finish()
    }
}

impl<K, A, C> PacSet<K, A, C>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    /// An empty set with the default block size (`B = 128`).
    pub fn new() -> Self {
        Self::with_block_size(DEFAULT_B)
    }

    /// An empty set with block size `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn with_block_size(b: usize) -> Self {
        assert!(b > 0, "block size must be positive");
        PacSet { root: None, b }
    }

    /// Builds from arbitrary keys (parallel sort + dedup).
    pub fn from_keys(keys: Vec<K>) -> Self {
        Self::from_keys_with(DEFAULT_B, keys)
    }

    /// [`PacSet::from_keys`] with an explicit block size.
    pub fn from_keys_with(b: usize, mut keys: Vec<K>) -> Self {
        parlay::par_sort(&mut keys);
        keys.dedup();
        PacSet {
            root: base::from_sorted(b, &keys),
            b,
        }
    }

    /// Builds from strictly increasing keys. `O(n)` work.
    pub fn from_sorted_keys(b: usize, keys: &[K]) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        PacSet {
            root: base::from_sorted(b, keys),
            b,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The block size this set was created with.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// True if `k` is a member. `O(log n + B)` work.
    pub fn contains(&self, k: &K) -> bool {
        algos::find(&self.root, k).is_some()
    }

    /// A new set with `k` added.
    pub fn insert(&self, k: K) -> Self {
        self.clone().insert_owned(k)
    }

    /// Consuming [`PacSet::insert`]: uniquely-owned nodes on the update
    /// path are rebuilt in place instead of path-copied (the refcount-1
    /// fast path; see [`crate::PacMap`]'s "Consuming updates" section).
    pub fn insert_owned(self, k: K) -> Self {
        PacSet {
            root: algos::insert(self.b, self.root, k, &|old: &K, _new: &K| old.clone()),
            b: self.b,
        }
    }

    /// A new set without `k`.
    pub fn remove(&self, k: &K) -> Self {
        self.clone().remove_owned(k)
    }

    /// Consuming [`PacSet::remove`].
    pub fn remove_owned(self, k: &K) -> Self {
        PacSet {
            root: algos::remove(self.b, self.root, k),
            b: self.b,
        }
    }

    /// Set union. Work `O(m log(n/m) + min(mB, n))` (Theorem 6.3).
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different block sizes (the result
    /// shares subtrees with both inputs, so mismatched `B` would
    /// silently violate the leaf-size invariant).
    pub fn union(&self, other: &Self) -> Self {
        self.clone().union_owned(other.clone())
    }

    /// Consuming [`PacSet::union`]: both operands are consumed and
    /// whichever side's nodes are uniquely owned are reused in place.
    ///
    /// # Panics
    ///
    /// See [`PacSet::union`].
    pub fn union_owned(self, other: Self) -> Self {
        assert_eq!(self.b, other.b, "union requires equal block sizes");
        PacSet {
            root: setops::union_with(self.b, self.root, other.root, &|a, _| a.clone()),
            b: self.b,
        }
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
        assert_eq!(self.b, other.b, "intersect requires equal block sizes");
        PacSet {
            root: setops::intersect_with(self.b, self.root, other.root, &|a, _| a.clone()),
            b: self.b,
        }
    }

    /// Elements of `self` not in `other`.
    ///
    /// # Panics
    ///
    /// See [`PacSet::union`].
    pub fn difference(&self, other: &Self) -> Self {
        self.clone().difference_owned(other.clone())
    }

    /// Consuming [`PacSet::difference`].
    ///
    /// # Panics
    ///
    /// See [`PacSet::union`].
    pub fn difference_owned(self, other: Self) -> Self {
        assert_eq!(self.b, other.b, "difference requires equal block sizes");
        PacSet {
            root: setops::difference(self.b, self.root, other.root),
            b: self.b,
        }
    }

    /// Expose-only union without the Section 8 array base case; exists
    /// for the base-case ablation benchmark.
    #[doc(hidden)]
    pub fn union_naive(&self, other: &Self) -> Self {
        PacSet {
            root: setops::union_naive(self.b, self.root.clone(), other.root.clone(), &|a, _| {
                a.clone()
            }),
            b: self.b,
        }
    }

    /// Batch insert of arbitrary keys (parallel sort + dedup + merge).
    pub fn multi_insert(&self, keys: Vec<K>) -> Self {
        self.clone().multi_insert_owned(keys)
    }

    /// Consuming [`PacSet::multi_insert`].
    pub fn multi_insert_owned(self, mut keys: Vec<K>) -> Self {
        parlay::par_sort(&mut keys);
        keys.dedup();
        PacSet {
            root: setops::multi_insert(self.b, self.root, &keys, &|old: &K, _: &K| old.clone()),
            b: self.b,
        }
    }

    /// Batch delete.
    pub fn multi_delete(&self, keys: Vec<K>) -> Self {
        self.clone().multi_delete_owned(keys)
    }

    /// Consuming [`PacSet::multi_delete`].
    pub fn multi_delete_owned(self, mut keys: Vec<K>) -> Self {
        parlay::par_sort(&mut keys);
        keys.dedup();
        PacSet {
            root: setops::multi_delete(self.b, self.root, &keys),
            b: self.b,
        }
    }

    /// Keeps elements satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&K) -> bool + Sync) -> Self {
        self.clone().filter_owned(pred)
    }

    /// Consuming [`PacSet::filter`].
    pub fn filter_owned(self, pred: impl Fn(&K) -> bool + Sync) -> Self {
        PacSet {
            root: algos::filter(self.b, self.root, &pred),
            b: self.b,
        }
    }

    /// Parallel map-reduce over elements.
    pub fn map_reduce<R: Send + Sync + Clone>(
        &self,
        m: impl Fn(&K) -> R + Sync,
        op: impl Fn(R, R) -> R + Sync,
        id: R,
    ) -> R {
        algos::map_reduce(&self.root, &m, &op, id)
    }

    /// Number of elements strictly less than `k`.
    pub fn rank(&self, k: &K) -> usize {
        algos::rank(&self.root, k)
    }

    /// The `i`-th smallest element.
    pub fn select(&self, i: usize) -> Option<K> {
        algos::select(&self.root, i)
    }

    /// Smallest element `>= k`.
    pub fn succ(&self, k: &K) -> Option<K> {
        algos::succ(&self.root, k)
    }

    /// Largest element `<= k`.
    pub fn pred(&self, k: &K) -> Option<K> {
        algos::pred(&self.root, k)
    }

    /// Smallest element.
    pub fn first(&self) -> Option<K> {
        algos::first(&self.root)
    }

    /// Largest element.
    pub fn last(&self) -> Option<K> {
        algos::last(&self.root)
    }

    /// Elements in `[lo, hi]` as a new set.
    pub fn range(&self, lo: &K, hi: &K) -> Self {
        PacSet {
            root: algos::range(self.b, self.root.clone(), lo, hi),
            b: self.b,
        }
    }

    /// Elements in `[lo, hi]` as a vector, without building a subtree.
    pub fn range_keys(&self, lo: &K, hi: &K) -> Vec<K> {
        algos::range_entries(&self.root, lo, hi)
    }

    /// Number of elements in `[lo, hi]` (two rank queries).
    pub fn count_range(&self, lo: &K, hi: &K) -> usize {
        let below_hi = algos::rank(&self.root, hi) + usize::from(self.contains(hi));
        below_hi - algos::rank(&self.root, lo)
    }

    /// Aggregate of all elements.
    pub fn aug_value(&self) -> A::Value {
        aug_of(&self.root)
    }

    /// All elements in order.
    pub fn to_vec(&self) -> Vec<K> {
        algos::entries_vec(&self.root)
    }

    /// Streaming in-order iterator (snapshot semantics).
    pub fn iter(&self) -> Iter<K, A, C> {
        Iter::new(&self.root)
    }

    /// Heap-space statistics.
    pub fn space_stats(&self) -> SpaceStats {
        crate::node::space(&self.root)
    }

    /// Pre-order walk over the tree's nodes, optionally against a base
    /// tree whose shared subtrees are pruned; the set counterpart of
    /// [`crate::PacMap::visit_nodes`]. The serialization hook used by
    /// the `store` crate's page-file format.
    pub fn visit_nodes(
        &self,
        base: Option<&Self>,
        f: &mut impl FnMut(structure::NodeRef<'_, K, C::Block>),
    ) {
        let index = base.map(|base| structure::index_preorder(&base.root));
        structure::visit_preorder(&self.root, index.as_ref(), f);
    }

    /// Bulk constructor from a pre-order node stream — the inverse of
    /// [`PacSet::visit_nodes`] and the set counterpart of
    /// [`crate::PacMap::from_node_stream`]: rebuilds the identical tree
    /// with block size `b`, adopting encoded blocks verbatim (no
    /// re-sorting or re-encoding) and recomputing cached sizes and
    /// aggregates.
    ///
    /// # Errors
    ///
    /// [`structure::BuildError`] when the stream's source fails or the
    /// stream is structurally invalid.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn from_node_stream<S>(
        b: usize,
        base: Option<&Self>,
        src: Option<std::sync::Arc<dyn crate::BlockSource<C::Block>>>,
        next: &mut impl FnMut() -> Result<structure::NodeOwned<K, C::Block>, S>,
    ) -> Result<Self, structure::BuildError<S>> {
        assert!(b > 0, "block size must be positive");
        let subtrees = base.map(|base| structure::collect_preorder(&base.root));
        Ok(PacSet {
            root: structure::build_preorder(b, subtrees.as_deref(), src.as_ref(), next, 0)?,
            b,
        })
    }

    /// Verifies every structural invariant.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String>
    where
        K: std::fmt::Debug,
        A::Value: PartialEq + std::fmt::Debug,
    {
        verify::check_ordered(self.b, &self.root)
    }

    /// Splits into (elements `< k`, membership of `k`, elements `> k`).
    pub fn split(&self, k: &K) -> (Self, bool, Self) {
        let (l, m, r) = jn::split(self.b, self.root.clone(), k);
        (
            PacSet { root: l, b: self.b },
            m.is_some(),
            PacSet { root: r, b: self.b },
        )
    }
}

impl<K, A, C> PartialEq for PacSet<K, A, C>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<K, A, C> FromIterator<K> for PacSet<K, A, C>
where
    K: ScalarKey,
    A: Augmentation<K>,
    C: Codec<K>,
{
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        Self::from_keys_with(DEFAULT_B, iter.into_iter().collect())
    }
}
