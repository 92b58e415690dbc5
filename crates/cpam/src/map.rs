//! [`PacMap`]: a purely-functional ordered map on PaC-trees — the
//! `(K, V)`-entry alias of [`PacOrd`] plus the pair-shaped methods.

use codecs::{Codec, RawCodec};

use crate::aug::{Augmentation, NoAug};
use crate::entry::{Edit, Element, ScalarKey};
use crate::ordered::{sort_dedup, PacOrd};
use crate::{algos, join as jn, setops};

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
/// leaves and user-defined augmentation: [`PacOrd`] whose entries are
/// `(K, V)` pairs ordered by `K`.
///
/// Everything key-only (`remove`, `difference`, `rank`/`select`,
/// `range`, `aug_range`, `append`, iteration, ...) is documented on
/// [`PacOrd`], together with the persistent/consuming update contract;
/// the methods that take or return keys and values separately are in
/// the `PacOrd<(K, V), A, C>` impl block.
///
/// Type parameters: key `K`, value `V`, augmentation `A` (default none)
/// and block codec `C` (default blocking without compression).
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
pub type PacMap<K, V, A = NoAug, C = RawCodec> = PacOrd<(K, V), A, C>;

/// Lifts a value combiner to whole entries, keeping the stored key.
fn on_values<K: Clone, V>(f: impl Fn(&V, &V) -> V) -> impl Fn(&(K, V), &(K, V)) -> (K, V) {
    move |old, new| (old.0.clone(), f(&old.1, &new.1))
}

/// The map-shaped methods of [`PacOrd`] (see [`PacMap`]).
impl<K, V, A, C> PacOrd<(K, V), A, C>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
    C: Codec<(K, V)>,
{
    /// Builds from arbitrary pairs (sorted in parallel; on duplicate keys
    /// the *last* pair wins). Paper's Build: `O(n log n)` work.
    pub fn from_pairs(pairs: Vec<(K, V)>) -> Self {
        Self::from_entries(crate::DEFAULT_B, pairs)
    }

    /// [`PacMap::from_pairs`] with an explicit block size.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn from_pairs_with(b: usize, pairs: Vec<(K, V)>) -> Self {
        Self::from_entries(b, pairs)
    }

    /// Builds from pairs already sorted by strictly increasing key.
    /// `O(n)` work, `O(log n)` span.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`; debug-panics if keys are not strictly
    /// increasing.
    pub fn from_sorted_pairs(b: usize, pairs: &[(K, V)]) -> Self {
        Self::from_sorted_entries(b, pairs)
    }

    /// The value stored under `k`, if any. `O(log n + B)` work.
    pub fn find(&self, k: &K) -> Option<V> {
        self.find_entry(k).map(|e| e.1)
    }

    /// True if `k` is present.
    pub fn contains_key(&self, k: &K) -> bool {
        self.find_entry(k).is_some()
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
    pub fn insert_with(&self, k: K, v: V, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        self.clone().insert_with_owned(k, v, f)
    }

    /// Consuming [`PacMap::insert_with`].
    pub fn insert_with_owned(self, k: K, v: V, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        self.insert_by((k, v), &on_values(f))
    }

    /// Union; on duplicate keys the entry from `other` wins.
    ///
    /// # Panics
    ///
    /// Panics if the two maps have different block sizes (the result
    /// shares subtrees with the larger input, and with the smaller one
    /// too when their key ranges do not interleave, so mismatched `B`
    /// would silently violate the leaf-size invariant).
    pub fn union(&self, other: &Self) -> Self {
        self.clone().union_owned(other.clone())
    }

    /// Union with `f(self_value, other_value)` combining duplicates.
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn union_with(&self, other: &Self, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        self.clone().union_with_owned(other.clone(), f)
    }

    /// Consuming [`PacMap::union_with`]: both operands are consumed, the
    /// smaller is applied to the larger as a batch, and the larger's
    /// uniquely owned nodes are reused in place.
    ///
    /// # Panics
    ///
    /// See [`PacMap::union`].
    pub fn union_with_owned(self, other: Self, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        self.union_by(other, &on_values(f))
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
        self.intersect_by(other, &on_values(f))
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
        batch: Vec<(K, V)>,
        f: impl Fn(&V, &V) -> V + Sync,
    ) -> Self {
        self.multi_insert_by(batch, &on_values(f))
    }

    /// Consuming batch update: `(k, Some(v))` puts `(k, v)`, replacing
    /// any existing value, and `(k, None)` removes `k`; the last edit per
    /// key wins. Puts and removals go down the tree together, in one
    /// pass of `O(m log(n/m) + min(mB, n))` work.
    pub fn multi_update_owned(self, mut batch: Vec<(K, Option<V>)>) -> Self {
        sort_dedup(&mut batch, std::mem::swap);
        let edits: Vec<_> = batch
            .into_iter()
            .map(|(k, v)| match v {
                Some(v) => Edit::Put((k, v)),
                None => Edit::Remove(k),
            })
            .collect();
        self.apply(|b, root| setops::multi_update(b, root, &edits, true, &|_, new| new.clone()))
    }

    /// Keeps entries satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&K, &V) -> bool + Sync) -> Self {
        self.clone().filter_owned(pred)
    }

    /// Consuming [`PacMap::filter`]: surviving spans of a uniquely-owned
    /// map are rebuilt in place.
    pub fn filter_owned(self, pred: impl Fn(&K, &V) -> bool + Sync) -> Self {
        self.filter_by(&|e: &(K, V)| pred(&e.0, &e.1))
    }

    /// Maps values (keys unchanged); the result drops augmentation and
    /// compression (choose them explicitly with a typed constructor if
    /// needed).
    pub fn map_values<V2: Element>(&self, f: impl Fn(&K, &V) -> V2 + Sync) -> PacMap<K, V2> {
        PacOrd {
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
        self.map_reduce_by(&|e: &(K, V)| m(&e.0, &e.1), &op, id)
    }

    /// Canonical range decomposition: `f` receives the aggregate of each
    /// maximal subtree fully inside `[lo, hi]` and each boundary entry.
    /// The building block for range-tree count queries.
    pub fn range_decompose(
        &self,
        lo: &K,
        hi: &K,
        mut f: impl FnMut(RangePart<'_, K, V, A::Value>),
    ) {
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

    /// Splits into (entries with key < `k`, value at `k`, entries with
    /// key > `k`) — the raw `split` primitive (Fig. 5).
    pub fn split(&self, k: &K) -> (Self, Option<V>, Self) {
        let (l, m, r) = self.split_entry(k);
        (l, m.map(|e| e.1), r)
    }

    /// Joins `left ++ [(k, v)] ++ right`; all keys in `left` must be
    /// `< k` and all keys in `right` `> k` (debug-checked). The raw
    /// `join` primitive (Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if `left` and `right` have different block sizes.
    pub fn join(left: &Self, k: K, v: V, right: &Self) -> Self {
        debug_assert!(left.last().is_none_or(|(a, _)| a < k));
        debug_assert!(right.first().is_none_or(|(a, _)| a > k));
        left.clone()
            .apply2(right.clone(), |b, l, r| jn::join(b, None, l, (k, v), r))
    }
}
