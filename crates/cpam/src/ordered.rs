//! [`PacOrd`]: the one purely-functional ordered collection on
//! PaC-trees.
//!
//! As in PAM, sets, maps and augmented maps are instantiations of one
//! entry-parameterised tree: a set is the collection whose entry is its
//! own key. [`crate::PacSet`] is `PacOrd<K>` and [`crate::PacMap`] is
//! `PacOrd<(K, V)>` — type aliases, not wrappers. Every operation that
//! only needs [`Entry::key`] is written here once; `set.rs` and `map.rs`
//! add the entry-shaped sugar (`insert(k)` against `insert(k, v)`,
//! `contains` against `find`) as two small inherent impl blocks that
//! delegate to the entry-level `*_by` methods below.
//!
//! Work and span bounds are the paper's (Table 1, Theorems 6.2–6.4):
//! `n` is the collection's size, `m ≤ n` the smaller operand or the
//! batch, `B` the block size.

use std::ops::ControlFlow;

use codecs::{Codec, RawCodec};

use crate::aug::{Augmentation, NoAug};
use crate::entry::{Edit, Entry};
use crate::iter::Iter;
use crate::node::{aug_of, size, SpaceStats, Tree};
use crate::{algos, base, join as jn, setops, structure, verify, DEFAULT_B};

/// A purely-functional ordered collection of entries `E` with blocked,
/// optionally compressed leaves and user-defined augmentation — used
/// through its two aliases, [`crate::PacMap`] (`E = (K, V)`) and
/// [`crate::PacSet`] (`E = K`).
///
/// All operations are non-destructive: they return a new collection
/// sharing structure with the old one, so a `clone` is an `O(1)`
/// snapshot that can be read while newer versions are being produced —
/// the paper's multiversioning story.
///
/// # Consuming updates
///
/// Every update also has a *consuming* variant (`insert_owned`,
/// `remove_owned`, `multi_insert_owned`, `union_owned`, ...). Semantics
/// are identical, but because the collection is passed by value the
/// update can check, per node, whether it holds the only reference —
/// and rebuild uniquely-owned nodes **in place** instead of path-copying
/// (the paper's refcount-1 optimization). Holding a clone anywhere keeps
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
/// Type parameters: entry `E`, augmentation `A` (default none) and block
/// codec `C` (default blocking without compression). The block size `B`
/// is a runtime parameter fixed at creation (paper default 128); every
/// operation taking two collections requires them to have the same `B`.
pub struct PacOrd<E, A = NoAug, C = RawCodec>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    pub(crate) root: Tree<E, A, C>,
    pub(crate) b: usize,
}

impl<E, A, C> Clone for PacOrd<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    fn clone(&self) -> Self {
        PacOrd {
            root: self.root.clone(),
            b: self.b,
        }
    }
}

impl<E, A, C> Default for PacOrd<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<E, A, C> std::fmt::Debug for PacOrd<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacOrd")
            .field("len", &self.len())
            .field("block_size", &self.b)
            .finish()
    }
}

impl<E, A, C> PartialEq for PacOrd<E, A, C>
where
    E: Entry + PartialEq,
    A: Augmentation<E>,
    C: Codec<E>,
{
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<E, A, C> FromIterator<E> for PacOrd<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    fn from_iter<I: IntoIterator<Item = E>>(iter: I) -> Self {
        Self::from_entries(DEFAULT_B, iter.into_iter().collect())
    }
}

/// Sorts `batch` by key (stably, in parallel) and collapses each run of
/// equal keys into its first slot: `merge(kept, later)` is called for
/// every further entry of the run, in batch order.
pub(crate) fn sort_dedup<E: Entry>(batch: &mut Vec<E>, merge: impl Fn(&mut E, &mut E)) {
    parlay::par_sort_by(batch, &|a, b| a.key().cmp(b.key()));
    batch.dedup_by(|later, kept| {
        let same = kept.key() == later.key();
        if same {
            merge(kept, later);
        }
        same
    });
}

impl<E, A, C> PacOrd<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    /// An empty collection with the default block size (`B = 128`).
    pub fn new() -> Self {
        Self::with_block_size(DEFAULT_B)
    }

    /// An empty collection with block size `b` (leaves hold `b..2b`
    /// entries). Every other constructor goes through this one.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn with_block_size(b: usize) -> Self {
        assert!(b > 0, "block size must be positive");
        PacOrd { root: None, b }
    }

    /// Builds from arbitrary entries: sorted in parallel, and on
    /// duplicate keys the *last* entry wins. Paper's Build: `O(n log n)`
    /// work, `O(log n)` span beyond the sort.
    pub(crate) fn from_entries(b: usize, mut entries: Vec<E>) -> Self {
        sort_dedup(&mut entries, |kept, later| std::mem::swap(kept, later));
        Self::from_sorted_entries(b, &entries)
    }

    /// Builds from entries already sorted by strictly increasing key
    /// (debug-checked). `O(n)` work, `O(log n)` span.
    pub(crate) fn from_sorted_entries(b: usize, entries: &[E]) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].key() < w[1].key()));
        Self::with_block_size(b).apply(|b, _| base::from_sorted(b, entries))
    }

    /// The collection `f(B, root)` with this one's block size: how every
    /// consuming one-tree update is phrased.
    pub(crate) fn apply(self, f: impl FnOnce(usize, Tree<E, A, C>) -> Tree<E, A, C>) -> Self {
        PacOrd {
            root: f(self.b, self.root),
            b: self.b,
        }
    }

    /// [`PacOrd::apply`] for two trees, and the one place their block
    /// sizes are compared: the result shares subtrees with both inputs,
    /// so a mismatched `B` would silently violate the leaf-size
    /// invariant.
    pub(crate) fn apply2(
        self,
        other: Self,
        f: impl FnOnce(usize, Tree<E, A, C>, Tree<E, A, C>) -> Tree<E, A, C>,
    ) -> Self {
        assert_eq!(
            self.b, other.b,
            "operations on two collections require equal block sizes"
        );
        self.apply(|b, root| f(b, root, other.root))
    }

    /// Number of entries. `O(1)`.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The block size this collection was created with.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// The entry stored under `k`, if any. `O(log n + B)` work.
    pub(crate) fn find_entry(&self, k: &E::Key) -> Option<E> {
        algos::find(&self.root, k)
    }

    /// Consuming insert of `e`; on an existing key the stored entry
    /// becomes `f(old, new)`. `O(log n + B)` work.
    pub(crate) fn insert_by(self, e: E, f: &(impl Fn(&E, &E) -> E + Sync)) -> Self {
        self.apply(|b, root| setops::multi_update(b, root, &[Edit::Put(e)], true, f))
    }

    /// A new collection without key `k`. `O(log n + B)` work.
    pub fn remove(&self, k: &E::Key) -> Self {
        self.clone().remove_owned(k)
    }

    /// Consuming [`PacOrd::remove`].
    pub fn remove_owned(self, k: &E::Key) -> Self {
        let edit = [Edit::Remove(k.clone())];
        self.apply(|b, root| setops::multi_update(b, root, &edit, true, &|_, new| new.clone()))
    }

    /// Consuming union with `f(self_entry, other_entry)` combining
    /// duplicates: the smaller operand applied to the larger as a batch
    /// of puts. `O(m log(n/m + 1) + min(mB, n))` work (Theorem 6.3);
    /// the larger side's uniquely owned nodes are reused in place.
    pub(crate) fn union_by(self, other: Self, f: &(impl Fn(&E, &E) -> E + Sync)) -> Self {
        let put = |e: &E, _| Edit::Put(e.clone());
        self.apply2(other, |b, l, r| {
            setops::by_batch(b, (l, r), f, put, |_| true)
        })
    }

    /// Consuming intersection; kept entries are `f(self_entry,
    /// other_entry)`. The smaller operand is met against the larger;
    /// bounds as for [`PacOrd::union_by`].
    pub(crate) fn intersect_by(self, other: Self, f: &(impl Fn(&E, &E) -> E + Sync)) -> Self {
        let meet = |e: &E, _| Edit::Meet(e.clone());
        self.apply2(other, |b, l, r| {
            setops::by_batch(b, (l, r), f, meet, |_| false)
        })
    }

    /// Entries of `self` whose keys are not in `other`: `other`'s keys
    /// removed from a larger `self`, or `self`'s entries kept where a
    /// larger `other` misses them. Bounds as for union.
    ///
    /// # Panics
    ///
    /// Panics if the two collections have different block sizes.
    pub fn difference(&self, other: &Self) -> Self {
        self.clone().difference_owned(other.clone())
    }

    /// Consuming [`PacOrd::difference`].
    ///
    /// # Panics
    ///
    /// See [`PacOrd::difference`].
    pub fn difference_owned(self, other: Self) -> Self {
        let edit = |e: &E, swapped| match swapped {
            true => Edit::Unless(e.clone()),
            false => Edit::Remove(e.key().clone()),
        };
        let f = |_: &E, new: &E| new.clone();
        self.apply2(other, |b, l, r| {
            setops::by_batch(b, (l, r), &f, edit, |swapped| !swapped)
        })
    }

    /// Consuming batch insert (paper's `multi_insert`): sorts the batch
    /// in parallel, then merges it in `O(m log(n/m) + min(mB, n))` work.
    /// `f(old, new)` combines an existing entry with a new one, and
    /// duplicate keys *within* the batch likewise, in batch order.
    pub(crate) fn multi_insert_by(
        self,
        mut batch: Vec<E>,
        f: &(impl Fn(&E, &E) -> E + Sync),
    ) -> Self {
        sort_dedup(&mut batch, |kept, later| *kept = f(kept, later));
        let edits: Vec<_> = batch.into_iter().map(Edit::Put).collect();
        self.apply(|b, root| setops::multi_update(b, root, &edits, true, f))
    }

    /// Batch delete: removes every key in `keys`. Bounds as for batch
    /// insert.
    pub fn multi_delete(&self, keys: Vec<E::Key>) -> Self {
        self.clone().multi_delete_owned(keys)
    }

    /// Consuming [`PacOrd::multi_delete`].
    pub fn multi_delete_owned(self, mut keys: Vec<E::Key>) -> Self {
        parlay::par_sort(&mut keys);
        keys.dedup();
        let edits: Vec<_> = keys.into_iter().map(Edit::Remove).collect();
        self.apply(|b, root| setops::multi_update(b, root, &edits, true, &|_, new| new.clone()))
    }

    /// Consuming filter: keeps entries satisfying `pred`; surviving
    /// spans of a uniquely-owned tree are rebuilt in place. `O(n)` work,
    /// `O(log² n)` span.
    pub(crate) fn filter_by(self, pred: &(impl Fn(&E) -> bool + Sync)) -> Self {
        self.apply(|b, root| algos::filter(b, root, pred))
    }

    /// Parallel map-reduce over entries. `O(n)` work, `O(log n)` span.
    pub(crate) fn map_reduce_by<R: Send + Sync + Clone>(
        &self,
        m: &(impl Fn(&E) -> R + Sync),
        op: &(impl Fn(R, R) -> R + Sync),
        id: R,
    ) -> R {
        algos::map_reduce(&self.root, m, op, id)
    }

    /// Number of keys strictly less than `k`. `O(log n + B)` work, like
    /// every query down to [`PacOrd::last`].
    pub fn rank(&self, k: &E::Key) -> usize {
        algos::rank(&self.root, k)
    }

    /// The `i`-th entry in key order.
    pub fn select(&self, i: usize) -> Option<E> {
        algos::select(&self.root, i)
    }

    /// Smallest entry with key `>= k`.
    pub fn succ(&self, k: &E::Key) -> Option<E> {
        algos::succ(&self.root, k)
    }

    /// Largest entry with key `<= k`.
    pub fn pred(&self, k: &E::Key) -> Option<E> {
        algos::pred(&self.root, k)
    }

    /// First (smallest-key) entry.
    pub fn first(&self) -> Option<E> {
        algos::first(&self.root)
    }

    /// Last (largest-key) entry.
    pub fn last(&self) -> Option<E> {
        algos::last(&self.root)
    }

    /// The sub-collection with keys in `[lo, hi]` (empty when
    /// `hi < lo`). `O(log n + B)` work.
    pub fn range(&self, lo: &E::Key, hi: &E::Key) -> Self {
        self.clone().apply(|b, root| algos::range(b, root, lo, hi))
    }

    /// The entries with keys in `[lo, hi]`, as a vector, without
    /// building a subtree: [`PacOrd::range_for_each`] collected.
    /// `O(log n + B + k)` work for `k` results.
    pub fn range_entries(&self, lo: &E::Key, hi: &E::Key) -> Vec<E> {
        let mut out = Vec::new();
        let _ = self.range_for_each(lo, hi, |e| {
            out.push(e.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// Feeds the entries with keys in `[lo, hi]` to `f` in key order,
    /// stopping as soon as `f` breaks; returns `Break` iff it did.
    /// `O(log n + B + k)` work for the `k` entries fed, however large
    /// the range.
    pub fn range_for_each(
        &self,
        lo: &E::Key,
        hi: &E::Key,
        mut f: impl FnMut(&E) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        algos::range_for_each(&self.root, lo, hi, &mut f)
    }

    /// Number of entries with keys in `[lo, hi]` — the length of
    /// [`PacOrd::range_entries`], by two rank queries; 0 when `hi < lo`.
    pub fn count_range(&self, lo: &E::Key, hi: &E::Key) -> usize {
        if hi < lo {
            return 0;
        }
        // `lo <= hi`, so the rank of `lo` cannot exceed that of `hi`.
        self.rank(hi) + usize::from(self.find_entry(hi).is_some()) - self.rank(lo)
    }

    /// Aggregate of all entries (identity if empty). `O(1)`.
    pub fn aug_value(&self) -> A::Value {
        aug_of(&self.root)
    }

    /// Aggregate of the entries with keys in `[lo, hi]` (paper's
    /// `aug_range`). `O(log n + B)` work.
    pub fn aug_range(&self, lo: &E::Key, hi: &E::Key) -> A::Value {
        algos::aug_range(&self.root, lo, hi)
    }

    /// Folds over every *stored* augmented value (one per regular node
    /// and one per leaf block). Used to account for the space of
    /// tree-valued augmentations such as range-tree inner sets.
    pub fn fold_augs<R>(&self, init: R, mut f: impl FnMut(R, &A::Value) -> R) -> R {
        algos::fold_augs(&self.root, init, &mut f)
    }

    /// Concatenates two collections; every key of `self` must be
    /// smaller than every key of `other` (debug-checked).
    /// `O(log n + B)` work.
    ///
    /// # Panics
    ///
    /// Panics if the two collections have different block sizes.
    pub fn append(&self, other: &Self) -> Self {
        debug_assert!(match (self.last(), other.first()) {
            (Some(a), Some(b)) => a.key() < b.key(),
            _ => true,
        });
        self.clone()
            .apply2(other.clone(), |b, l, r| jn::join2(b, None, l, r))
    }

    /// Splits into (entries with key < `k`, the entry at `k`, entries
    /// with key > `k`) — the raw `split` primitive (Fig. 5).
    /// `O(log n + B)` work.
    pub(crate) fn split_entry(&self, k: &E::Key) -> (Self, Option<E>, Self) {
        let (l, m, r) = jn::split(self.b, self.root.clone(), k);
        let part = |root| PacOrd { root, b: self.b };
        (part(l), m, part(r))
    }

    /// All entries in key order. `O(n)` work, `O(log n)` span.
    pub fn to_vec(&self) -> Vec<E> {
        algos::entries_vec(&self.root)
    }

    /// Streaming in-order iterator (a snapshot: later updates to the
    /// collection do not affect it).
    pub fn iter(&self) -> Iter<E, A, C> {
        Iter::new(&self.root)
    }

    /// Heap-space statistics (the paper's Fig. 13 measurements).
    pub fn space_stats(&self) -> SpaceStats {
        crate::node::space(&self.root)
    }

    /// Pre-order walk over the tree's nodes: regular pivot entries and
    /// *already-encoded* leaf blocks (see [`crate::structure`]). This is
    /// the serialization hook — a snapshot codec copies blocks verbatim
    /// instead of flattening and re-encoding the collection.
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
        f: &mut impl FnMut(structure::NodeRef<'_, E, C::Block>),
    ) {
        let index = base.map(|base| structure::index_preorder(&base.root));
        structure::visit_preorder(&self.root, index.as_ref(), f);
    }

    /// Bulk constructor from a pre-order node stream — the inverse of
    /// [`PacOrd::visit_nodes`]. Rebuilds the identical tree (same shape,
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
    /// the data size, and only valid for unaugmented collections.
    ///
    /// # Errors
    ///
    /// [`structure::BuildError`] when the stream's source fails or the
    /// stream is structurally invalid (oversized leaves, runaway depth,
    /// shared indices past the base tree, lazy leaves without a source
    /// or in an augmented collection).
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn from_node_stream<S>(
        b: usize,
        base: Option<&Self>,
        src: Option<std::sync::Arc<dyn crate::BlockSource<C::Block>>>,
        next: &mut impl FnMut() -> Result<structure::NodeOwned<E, C::Block>, S>,
    ) -> Result<Self, structure::BuildError<S>> {
        let mut built = Self::with_block_size(b);
        let subtrees = base.map(|base| structure::collect_preorder(&base.root));
        built.root = structure::build_preorder(b, subtrees.as_deref(), src.as_ref(), next, 0)?;
        Ok(built)
    }

    /// Verifies every structural invariant; returns the first violation.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant (imbalance, block size out of
    /// bounds, key disorder, stale cached size or aggregate).
    pub fn check_invariants(&self) -> Result<(), String>
    where
        E::Key: std::fmt::Debug,
        A::Value: PartialEq + std::fmt::Debug,
    {
        verify::check_ordered(self.b, &self.root)
    }
}
