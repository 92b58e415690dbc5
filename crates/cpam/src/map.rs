//! [`PacMap`]: a purely-functional ordered map on PaC-trees.

use codecs::{Codec, RawCodec};

use crate::aug::{Augmentation, NoAug};
use crate::entry::{Element, ScalarKey};
use crate::iter::Iter;
use crate::node::{aug_of, size, SpaceStats, Tree};
use crate::{algos, base, join as jn, seq, setops, structure, verify, DEFAULT_B};

/// One piece of a canonical range decomposition (see
/// [`PacMap::range_decompose`]).
#[derive(Debug)]
pub enum RangePart<'a, K, V, AV> {
    /// The aggregate of a maximal subtree fully inside the range.
    Subtree(&'a AV),
    /// A boundary entry inside the range.
    Entry(&'a K, &'a V),
}

/// A purely-functional ordered map with blocked, optionally compressed
/// leaves and user-defined augmentation.
///
/// All operations are non-destructive: they return a new map sharing
/// structure with the old one, so a `clone` is an `O(1)` snapshot that
/// can be read while newer versions are being produced — the paper's
/// multiversioning story.
///
/// # Consuming updates
///
/// Every update also has a *consuming* variant (`insert_owned`,
/// `remove_owned`, `multi_insert_owned`, `union_owned`, ...). Semantics
/// are identical, but because the map is passed by value the update can
/// check, per node, whether it holds the only reference — and rebuild
/// uniquely-owned nodes **in place** instead of path-copying (the
/// paper's refcount-1 optimization). Holding a clone anywhere keeps
/// every shared node copy-on-write, so snapshots stay immutable; see
/// [`crate::stats::OpCounts::nodes_reused`]. The borrowing methods
/// simply clone and delegate, which pins the whole tree and always
/// copies the path:
///
/// ```
/// use cpam::PacMap;
///
/// let mut m: PacMap<u64, u64> = PacMap::from_pairs((0..1000).map(|i| (i, i)).collect());
/// // Hot loop: consuming updates mutate uniquely-owned nodes in place.
/// for k in 1000..2000 {
///     m = m.insert_owned(k, k);
/// }
/// let snapshot = m.clone(); // O(1); from here updates copy the shared path
/// m = m.insert_owned(9999, 1);
/// assert_eq!(snapshot.len(), 2000);
/// assert_eq!(m.len(), 2001);
/// ```
///
/// Type parameters: key `K`, value `V`, augmentation `A` (default none)
/// and block codec `C` (default blocking without compression). The block
/// size `B` is a runtime parameter fixed at creation (paper default 128).
///
/// # Examples
///
/// ```
/// use cpam::PacMap;
///
/// let m: PacMap<u64, u64> = PacMap::from_pairs((0..1000).map(|i| (i, i * i)).collect());
/// assert_eq!(m.len(), 1000);
/// assert_eq!(m.find(&31), Some(961));
///
/// let snapshot = m.clone();                  // O(1)
/// let m2 = m.insert(2000, 1);                // path-copied
/// assert_eq!(snapshot.len(), 1000);
/// assert_eq!(m2.len(), 1001);
/// ```
pub struct PacMap<K, V, A = NoAug, C = RawCodec>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
    C: Codec<(K, V)>,
{
    pub(crate) root: Tree<(K, V), A, C>,
    pub(crate) b: usize,
}

impl<K, V, A, C> Clone for PacMap<K, V, A, C>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
    C: Codec<(K, V)>,
{
    fn clone(&self) -> Self {
        PacMap {
            root: self.root.clone(),
            b: self.b,
        }
    }
}

impl<K, V, A, C> Default for PacMap<K, V, A, C>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
    C: Codec<(K, V)>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, A, C> std::fmt::Debug for PacMap<K, V, A, C>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
    C: Codec<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacMap")
            .field("len", &self.len())
            .field("block_size", &self.b)
            .finish()
    }
}

impl<K, V, A, C> PacMap<K, V, A, C>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
    C: Codec<(K, V)>,
{
    /// An empty map with the default block size (`B = 128`).
    pub fn new() -> Self {
        Self::with_block_size(DEFAULT_B)
    }

    /// An empty map with block size `b` (leaves hold `b..2b` entries).
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn with_block_size(b: usize) -> Self {
        assert!(b > 0, "block size must be positive");
        PacMap { root: None, b }
    }

    /// Builds from arbitrary pairs (sorted in parallel; on duplicate keys
    /// the *last* pair wins). Paper's Build: `O(n log n)` work.
    pub fn from_pairs(pairs: Vec<(K, V)>) -> Self {
        Self::from_pairs_with(DEFAULT_B, pairs)
    }

    /// [`PacMap::from_pairs`] with an explicit block size.
    pub fn from_pairs_with(b: usize, mut pairs: Vec<(K, V)>) -> Self {
        parlay::par_sort_by(&mut pairs, &|a, b| a.0.cmp(&b.0));
        // Last pair with a given key wins.
        let mut dedup: Vec<(K, V)> = Vec::with_capacity(pairs.len());
        for p in pairs {
            if dedup.last().is_some_and(|q| q.0 == p.0) {
                *dedup.last_mut().expect("nonempty") = p;
            } else {
                dedup.push(p);
            }
        }
        PacMap {
            root: base::from_sorted(b, &dedup),
            b,
        }
    }

    /// Builds from pairs already sorted by strictly increasing key.
    /// `O(n)` work, `O(log n)` span.
    ///
    /// # Panics
    ///
    /// Debug-panics if keys are not strictly increasing.
    pub fn from_sorted_pairs(b: usize, pairs: &[(K, V)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        PacMap {
            root: base::from_sorted(b, pairs),
            b,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The block size this map was created with.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// The value stored under `k`, if any. `O(log n + B)` work.
    pub fn find(&self, k: &K) -> Option<V> {
        algos::find(&self.root, k).map(|e| e.1)
    }

    /// True if `k` is present.
    pub fn contains_key(&self, k: &K) -> bool {
        algos::find(&self.root, k).is_some()
    }

    /// A new map with `(k, v)` inserted (replacing any existing value).
    pub fn insert(&self, k: K, v: V) -> Self {
        self.clone().insert_owned(k, v)
    }

    /// Consuming [`PacMap::insert`]: uniquely-owned nodes on the update
    /// path are rebuilt in place instead of path-copied.
    pub fn insert_owned(self, k: K, v: V) -> Self {
        self.insert_with_owned(k, v, |_, new| new.clone())
    }

    /// A new map with `(k, v)` inserted; on an existing key the stored
    /// value becomes `f(old, new)`.
    pub fn insert_with(&self, k: K, v: V, f: impl Fn(&V, &V) -> V) -> Self {
        self.clone().insert_with_owned(k, v, f)
    }

    /// Consuming [`PacMap::insert_with`].
    pub fn insert_with_owned(self, k: K, v: V, f: impl Fn(&V, &V) -> V) -> Self {
        let root = algos::insert(self.b, self.root, (k, v), &|old: &(K, V), new: &(K, V)| {
            (new.0.clone(), f(&old.1, &new.1))
        });
        PacMap { root, b: self.b }
    }

    /// A new map without key `k`.
    pub fn remove(&self, k: &K) -> Self {
        self.clone().remove_owned(k)
    }

    /// Consuming [`PacMap::remove`].
    pub fn remove_owned(self, k: &K) -> Self {
        PacMap {
            root: algos::remove(self.b, self.root, k),
            b: self.b,
        }
    }

    /// Union; on duplicate keys the entry from `other` wins.
    ///
    /// # Panics
    ///
    /// Panics if the two maps have different block sizes (the result
    /// shares subtrees with both inputs, so mismatched `B` would
    /// silently violate the leaf-size invariant).
    pub fn union(&self, other: &Self) -> Self {
        self.union_with(other, |_, theirs| theirs.clone())
    }

    /// Union with `f(self_value, other_value)` combining duplicates.
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn union_with(&self, other: &Self, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        self.clone().union_with_owned(other.clone(), f)
    }

    /// Consuming [`PacMap::union_with`]: both operands are consumed and
    /// whichever side's nodes are uniquely owned are reused in place.
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn union_with_owned(self, other: Self, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        assert_eq!(self.b, other.b, "union_with requires equal block sizes");
        let g = |a: &(K, V), b: &(K, V)| (a.0.clone(), f(&a.1, &b.1));
        PacMap {
            root: setops::union_with(self.b, self.root, other.root, &g),
            b: self.b,
        }
    }

    /// Consuming [`PacMap::union`].
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn union_owned(self, other: Self) -> Self {
        self.union_with_owned(other, |_, theirs| theirs.clone())
    }

    /// Intersection; kept entries combine values with `f`.
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn intersect_with(&self, other: &Self, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        self.clone().intersect_with_owned(other.clone(), f)
    }

    /// Consuming [`PacMap::intersect_with`].
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn intersect_with_owned(self, other: Self, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        assert_eq!(self.b, other.b, "intersect_with requires equal block sizes");
        let g = |a: &(K, V), b: &(K, V)| (a.0.clone(), f(&a.1, &b.1));
        PacMap {
            root: setops::intersect_with(self.b, self.root, other.root, &g),
            b: self.b,
        }
    }

    /// Entries of `self` whose keys are not in `other`.
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn difference(&self, other: &Self) -> Self {
        self.clone().difference_owned(other.clone())
    }

    /// Consuming [`PacMap::difference`].
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn difference_owned(self, other: Self) -> Self {
        assert_eq!(self.b, other.b, "difference requires equal block sizes");
        PacMap {
            root: setops::difference(self.b, self.root, other.root),
            b: self.b,
        }
    }

    /// Batch insert (paper's `multi_insert`): sorts and deduplicates the
    /// batch in parallel (last wins), then merges. On keys already
    /// present the new value replaces the old.
    pub fn multi_insert(&self, batch: Vec<(K, V)>) -> Self {
        self.clone().multi_insert_owned(batch)
    }

    /// Consuming [`PacMap::multi_insert`].
    pub fn multi_insert_owned(self, batch: Vec<(K, V)>) -> Self {
        self.multi_insert_with_owned(batch, |_, new| new.clone())
    }

    /// [`PacMap::multi_insert`] with `f(old, new)` combining values on
    /// existing keys; duplicate keys *within* the batch are combined with
    /// `f` as well (in batch order), so it doubles as a group-by.
    pub fn multi_insert_with(&self, batch: Vec<(K, V)>, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        self.clone().multi_insert_with_owned(batch, f)
    }

    /// Consuming [`PacMap::multi_insert_with`].
    pub fn multi_insert_with_owned(
        self,
        mut batch: Vec<(K, V)>,
        f: impl Fn(&V, &V) -> V + Sync,
    ) -> Self {
        parlay::par_sort_by(&mut batch, &|a, b| a.0.cmp(&b.0));
        let mut dedup: Vec<(K, V)> = Vec::with_capacity(batch.len());
        for p in batch {
            match dedup.last_mut() {
                Some(q) if q.0 == p.0 => q.1 = f(&q.1, &p.1),
                _ => dedup.push(p),
            }
        }
        let g = |old: &(K, V), new: &(K, V)| (old.0.clone(), f(&old.1, &new.1));
        PacMap {
            root: setops::multi_insert(self.b, self.root, &dedup, &g),
            b: self.b,
        }
    }

    /// Batch delete: removes every key in `keys`.
    pub fn multi_delete(&self, keys: Vec<K>) -> Self {
        self.clone().multi_delete_owned(keys)
    }

    /// Consuming [`PacMap::multi_delete`].
    pub fn multi_delete_owned(self, mut keys: Vec<K>) -> Self {
        parlay::par_sort(&mut keys);
        keys.dedup();
        PacMap {
            root: setops::multi_delete(self.b, self.root, &keys),
            b: self.b,
        }
    }

    /// Keeps entries satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&K, &V) -> bool + Sync) -> Self {
        self.clone().filter_owned(pred)
    }

    /// Consuming [`PacMap::filter`]: surviving spans of a uniquely-owned
    /// map are rebuilt in place.
    pub fn filter_owned(self, pred: impl Fn(&K, &V) -> bool + Sync) -> Self {
        PacMap {
            root: algos::filter(self.b, self.root, &|e: &(K, V)| pred(&e.0, &e.1)),
            b: self.b,
        }
    }

    /// Maps values (keys unchanged); the result drops augmentation and
    /// compression (choose them explicitly with a typed constructor if
    /// needed).
    pub fn map_values<V2: Element>(&self, f: impl Fn(&K, &V) -> V2 + Sync) -> PacMap<K, V2> {
        PacMap {
            root: algos::map_entries(&self.root, &|e: &(K, V)| (e.0.clone(), f(&e.0, &e.1))),
            b: self.b,
        }
    }

    /// Parallel map-reduce over entries.
    pub fn map_reduce<R: Send + Sync + Clone>(
        &self,
        m: impl Fn(&K, &V) -> R + Sync,
        op: impl Fn(R, R) -> R + Sync,
        id: R,
    ) -> R {
        algos::map_reduce(&self.root, &|e: &(K, V)| m(&e.0, &e.1), &op, id)
    }

    /// Number of keys strictly less than `k`.
    pub fn rank(&self, k: &K) -> usize {
        algos::rank(&self.root, k)
    }

    /// The `i`-th entry in key order.
    pub fn select(&self, i: usize) -> Option<(K, V)> {
        algos::select(&self.root, i)
    }

    /// Smallest entry with key `>= k`.
    pub fn succ(&self, k: &K) -> Option<(K, V)> {
        algos::succ(&self.root, k)
    }

    /// Largest entry with key `<= k`.
    pub fn pred(&self, k: &K) -> Option<(K, V)> {
        algos::pred(&self.root, k)
    }

    /// First (smallest-key) entry.
    pub fn first(&self) -> Option<(K, V)> {
        algos::first(&self.root)
    }

    /// Last (largest-key) entry.
    pub fn last(&self) -> Option<(K, V)> {
        algos::last(&self.root)
    }

    /// The submap with keys in `[lo, hi]`. `O(log n + B)` work.
    pub fn range(&self, lo: &K, hi: &K) -> Self {
        PacMap {
            root: algos::range(self.b, self.root.clone(), lo, hi),
            b: self.b,
        }
    }

    /// The entries with keys in `[lo, hi]`, as a vector.
    pub fn range_entries(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        algos::range_entries(&self.root, lo, hi)
    }

    /// Aggregate of all entries (identity if empty).
    pub fn aug_value(&self) -> A::Value {
        aug_of(&self.root)
    }

    /// Aggregate of the entries with keys in `[lo, hi]` (paper's
    /// `aug_range`). `O(log n + B)` work.
    pub fn aug_range(&self, lo: &K, hi: &K) -> A::Value {
        algos::aug_range(&self.root, lo, hi)
    }

    /// Canonical range decomposition: `f` receives the aggregate of each
    /// maximal subtree fully inside `[lo, hi]` and each boundary entry.
    /// The building block for range-tree count queries.
    pub fn range_decompose(&self, lo: &K, hi: &K, mut f: impl FnMut(RangePart<'_, K, V, A::Value>)) {
        algos::range_decompose(&self.root, lo, hi, &mut |part| match part {
            algos::Part::Aug(v) => f(RangePart::Subtree(v)),
            algos::Part::Entry(e) => f(RangePart::Entry(&e.0, &e.1)),
        });
    }

    /// Augmentation-pruned search: collects entries with key `<= kmax`
    /// satisfying `pred`, skipping subtrees where `enter(aug)` is false
    /// (e.g. interval-tree stabbing queries; see `spatial`).
    pub fn prune_search(
        &self,
        kmax: &K,
        enter: impl Fn(&A::Value) -> bool,
        pred: impl Fn(&K, &V) -> bool,
    ) -> Vec<(K, V)> {
        let mut out = Vec::new();
        algos::prune_search(
            &self.root,
            kmax,
            &enter,
            &|e: &(K, V)| pred(&e.0, &e.1),
            &mut out,
        );
        out
    }

    /// All entries in key order.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        algos::entries_vec(&self.root)
    }

    /// All keys in order.
    pub fn keys(&self) -> Vec<K> {
        let pairs = self.to_vec();
        pairs.into_iter().map(|(k, _)| k).collect()
    }

    /// All values in key order.
    pub fn values(&self) -> Vec<V> {
        let pairs = self.to_vec();
        pairs.into_iter().map(|(_, v)| v).collect()
    }

    /// Streaming in-order iterator (a snapshot: later updates to the map
    /// do not affect it).
    pub fn iter(&self) -> Iter<(K, V), A, C> {
        Iter::new(&self.root)
    }

    /// Concatenates two maps; every key of `self` must be smaller than
    /// every key of `other` (debug-checked). `O(log n + B)` work.
    pub fn append(&self, other: &Self) -> Self {
        debug_assert!(match (self.last(), other.first()) {
            (Some((a, _)), Some((b, _))) => a < b,
            _ => true,
        });
        PacMap {
            root: seq::append(self.b, &self.root, &other.root),
            b: self.b,
        }
    }

    /// Folds over every *stored* augmented value (one per regular node
    /// and one per leaf block). Used to account for the space of
    /// tree-valued augmentations such as range-tree inner sets.
    pub fn fold_augs<R>(&self, init: R, mut f: impl FnMut(R, &A::Value) -> R) -> R {
        algos::fold_augs(&self.root, init, &mut f)
    }

    /// Heap-space statistics (the paper's Fig. 13 measurements).
    pub fn space_stats(&self) -> SpaceStats {
        crate::node::space(&self.root)
    }

    /// Pre-order walk over the tree's nodes: regular pivot entries and
    /// *already-encoded* leaf blocks (see [`crate::structure`]). This is
    /// the serialization hook — a snapshot codec copies blocks verbatim
    /// instead of flattening and re-encoding the map.
    ///
    /// With `base`, subtrees physically shared with it (same `Arc`
    /// allocation, i.e. untouched since `base` was pinned) are reported
    /// as a single [`structure::NodeRef::Shared`] carrying the subtree's
    /// pre-order index in `base`, and are not descended into: a page
    /// diffed against the previous checkpoint's pinned root serializes
    /// only the new nodes. Sound only while the caller keeps `base`
    /// alive for the duration of the walk — a pinned base keeps its
    /// refcounts ≥ 2, which the in-place-reuse machinery treats as
    /// immutable.
    pub fn visit_nodes(
        &self,
        base: Option<&Self>,
        f: &mut impl FnMut(structure::NodeRef<'_, (K, V), C::Block>),
    ) {
        let index = base.map(|base| structure::index_preorder(&base.root));
        structure::visit_preorder(&self.root, index.as_ref(), f);
    }

    /// Bulk constructor from a pre-order node stream — the inverse of
    /// [`PacMap::visit_nodes`]. Rebuilds the identical tree (same shape,
    /// same encoded blocks, no re-sorting) with block size `b`,
    /// recomputing cached sizes and augmented values.
    ///
    /// `base` must be behaviourally equal to the tree the encoder
    /// walked against (same shape and blocks; typically the decoded
    /// previous checkpoint): shared references resolve to its subtrees,
    /// so the result shares structure with it. `src` is where
    /// [`structure::NodeOwned::Lazy`] leaves materialize from, on first
    /// access (`find`/`range`/iteration touch only the pages their path
    /// crosses) — building them is `O(structure)` work, independent of
    /// the data size, and only valid for unaugmented maps.
    ///
    /// # Errors
    ///
    /// [`structure::BuildError`] when the stream's source fails or the
    /// stream is structurally invalid (oversized leaves, runaway depth,
    /// shared indices past the base tree, lazy leaves without a source
    /// or in an augmented map).
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn from_node_stream<S>(
        b: usize,
        base: Option<&Self>,
        src: Option<std::sync::Arc<dyn crate::BlockSource<C::Block>>>,
        next: &mut impl FnMut() -> Result<structure::NodeOwned<(K, V), C::Block>, S>,
    ) -> Result<Self, structure::BuildError<S>> {
        assert!(b > 0, "block size must be positive");
        let subtrees = base.map(|base| structure::collect_preorder(&base.root));
        Ok(PacMap {
            root: structure::build_preorder(b, subtrees.as_deref(), src.as_ref(), next, 0)?,
            b,
        })
    }

    /// Verifies every structural invariant; returns the first violation.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant (imbalance, block size out of
    /// bounds, key disorder, stale cached size or aggregate).
    pub fn check_invariants(&self) -> Result<(), String>
    where
        K: std::fmt::Debug,
        A::Value: PartialEq + std::fmt::Debug,
    {
        verify::check_ordered(self.b, &self.root)
    }

    /// Splits into (entries with key < `k`, value at `k`, entries with
    /// key > `k`) — the raw `split` primitive (Fig. 5).
    pub fn split(&self, k: &K) -> (Self, Option<V>, Self) {
        let (l, m, r) = jn::split(self.b, self.root.clone(), k);
        (
            PacMap { root: l, b: self.b },
            m.map(|e| e.1),
            PacMap { root: r, b: self.b },
        )
    }

    /// Joins `left ++ [(k, v)] ++ right`; all keys in `left` must be
    /// `< k` and all keys in `right` `> k` (debug-checked). The raw
    /// `join` primitive (Fig. 5).
    pub fn join(left: &Self, k: K, v: V, right: &Self) -> Self {
        debug_assert!(left.last().is_none_or(|(a, _)| a < k));
        debug_assert!(right.first().is_none_or(|(a, _)| a > k));
        PacMap {
            root: jn::join(left.b, None, left.root.clone(), (k, v), right.root.clone()),
            b: left.b,
        }
    }
}

impl<K, V, A, C> PartialEq for PacMap<K, V, A, C>
where
    K: ScalarKey,
    V: Element + PartialEq,
    A: Augmentation<(K, V)>,
    C: Codec<(K, V)>,
{
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<K, V, A, C> FromIterator<(K, V)> for PacMap<K, V, A, C>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
    C: Codec<(K, V)>,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Self::from_pairs_with(DEFAULT_B, iter.into_iter().collect())
    }
}
