//! [`PacSeq`]: a purely-functional sequence on PaC-trees.

use codecs::{Codec, RawCodec};

use crate::aug::{Augmentation, NoAug};
use crate::entry::Element;
use crate::iter::Iter;
use crate::node::{size, SpaceStats, Tree};
use crate::{algos, base, seq, verify, DEFAULT_B};

/// A purely-functional sequence with blocked leaves.
///
/// Same tree as [`crate::PacMap`], but positional: no keys, no ordering.
/// The asymptotics the paper highlights in Fig. 2 hold here:
/// [`PacSeq::append`] is `O(log n + B)` (arrays pay `O(n)`), while
/// [`PacSeq::nth`] is `O(log n + B)` (arrays are `O(1)`).
///
/// # Examples
///
/// ```
/// use cpam::PacSeq;
///
/// let s: PacSeq<u64> = PacSeq::from_slice(&(0..1000).collect::<Vec<_>>());
/// let (front, back) = (s.take(500), s.drop_first(500));
/// let whole = front.append(&back);
/// assert_eq!(whole.nth(999), Some(999));
/// assert_eq!(whole.len(), 1000);
/// ```
pub struct PacSeq<V, A = NoAug, C = RawCodec>
where
    V: Element,
    A: Augmentation<V>,
    C: Codec<V>,
{
    pub(crate) root: Tree<V, A, C>,
    pub(crate) b: usize,
}

impl<V, A, C> Clone for PacSeq<V, A, C>
where
    V: Element,
    A: Augmentation<V>,
    C: Codec<V>,
{
    fn clone(&self) -> Self {
        PacSeq {
            root: self.root.clone(),
            b: self.b,
        }
    }
}

impl<V, A, C> Default for PacSeq<V, A, C>
where
    V: Element,
    A: Augmentation<V>,
    C: Codec<V>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<V, A, C> std::fmt::Debug for PacSeq<V, A, C>
where
    V: Element,
    A: Augmentation<V>,
    C: Codec<V>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacSeq")
            .field("len", &self.len())
            .field("block_size", &self.b)
            .finish()
    }
}

impl<V, A, C> PacSeq<V, A, C>
where
    V: Element,
    A: Augmentation<V>,
    C: Codec<V>,
{
    /// An empty sequence with the default block size.
    pub fn new() -> Self {
        Self::with_block_size(DEFAULT_B)
    }

    /// An empty sequence with block size `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn with_block_size(b: usize) -> Self {
        assert!(b > 0, "block size must be positive");
        PacSeq { root: None, b }
    }

    /// Builds from a slice, preserving order (paper's Build: `O(n)`
    /// work, `O(log n)` span).
    pub fn from_slice(values: &[V]) -> Self {
        Self::from_slice_with(DEFAULT_B, values)
    }

    /// [`PacSeq::from_slice`] with an explicit block size.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn from_slice_with(b: usize, values: &[V]) -> Self {
        assert!(b > 0, "block size must be positive");
        PacSeq {
            root: seq::from_slice(b, values),
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

    /// The block size this sequence was created with.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// The element at position `i` (paper's `n-th`): `O(log n + B)`.
    pub fn nth(&self, i: usize) -> Option<V> {
        algos::select(&self.root, i)
    }

    /// The first `i` elements (paper's Take): `O(log n + B)`.
    pub fn take(&self, i: usize) -> Self {
        PacSeq {
            root: seq::take(self.b, &self.root, i),
            b: self.b,
        }
    }

    /// Everything after the first `i` elements.
    pub fn drop_first(&self, i: usize) -> Self {
        PacSeq {
            root: seq::drop_first(self.b, &self.root, i),
            b: self.b,
        }
    }

    /// The subsequence `[lo, hi)`.
    pub fn subseq(&self, lo: usize, hi: usize) -> Self {
        PacSeq {
            root: seq::subseq(self.b, &self.root, lo, hi),
            b: self.b,
        }
    }

    /// Concatenation (paper's Append): `O(log n + B)` — no copying of
    /// either input.
    ///
    /// # Panics
    ///
    /// Panics if the two sequences have different block sizes (the
    /// result shares subtrees with both inputs, so mismatched `B` would
    /// silently violate the leaf-size invariant).
    pub fn append(&self, other: &Self) -> Self {
        assert_eq!(self.b, other.b, "append requires equal block sizes");
        PacSeq {
            root: seq::append(self.b, &self.root, &other.root),
            b: self.b,
        }
    }

    /// The reversed sequence (paper's Reverse): `O(n)` work.
    pub fn reverse(&self) -> Self {
        PacSeq {
            root: seq::reverse(&self.root),
            b: self.b,
        }
    }

    /// Maps every element (paper's Map): `O(n)` work, `O(log n)` span.
    pub fn map<U: Element>(&self, f: impl Fn(&V) -> U + Sync) -> PacSeq<U> {
        PacSeq {
            root: algos::map_entries(&self.root, &f),
            b: self.b,
        }
    }

    /// Keeps elements satisfying `pred` (paper's Filter).
    pub fn filter(&self, pred: impl Fn(&V) -> bool + Sync) -> Self {
        PacSeq {
            root: algos::filter(self.b, self.root.clone(), &pred),
            b: self.b,
        }
    }

    /// Parallel map-reduce (paper's Reduce): `O(n)` work, `O(log n)` span.
    pub fn map_reduce<R: Send + Sync + Clone>(
        &self,
        m: impl Fn(&V) -> R + Sync,
        op: impl Fn(R, R) -> R + Sync,
        id: R,
    ) -> R {
        algos::map_reduce(&self.root, &m, &op, id)
    }

    /// Reduction with an associative operator over the elements.
    pub fn reduce(&self, id: V, op: impl Fn(V, V) -> V + Sync) -> V {
        algos::map_reduce(&self.root, &|v: &V| v.clone(), &op, id)
    }

    /// Index of the first element satisfying `pred` (paper's FindFirst):
    /// `O(k)` work for a match at position `k`.
    pub fn find_first(&self, pred: impl Fn(&V) -> bool + Sync) -> Option<usize> {
        seq::find_first(&self.root, &pred)
    }

    /// True if the elements are in nondecreasing order.
    pub fn is_sorted(&self) -> bool
    where
        V: Ord,
    {
        // Monoid: (first, last, sorted-so-far) per segment.
        let r = self.map_reduce(
            |v| Some((v.clone(), v.clone(), true)),
            |a, b| match (a, b) {
                (None, x) | (x, None) => x,
                (Some((af, al, asorted)), Some((bf, bl, bsorted))) => {
                    Some((af, bl, asorted && bsorted && al <= bf))
                }
            },
            None,
        );
        r.is_none_or(|(_, _, sorted)| sorted)
    }

    /// All elements in order.
    pub fn to_vec(&self) -> Vec<V> {
        base::to_vec(&self.root)
    }

    /// Streaming iterator (snapshot semantics).
    pub fn iter(&self) -> Iter<V, A, C> {
        Iter::new(&self.root)
    }

    /// Heap-space statistics.
    pub fn space_stats(&self) -> SpaceStats {
        crate::node::space(&self.root)
    }

    /// Verifies the structural invariants (balance, block bounds, sizes).
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        verify::check_structure(self.b, &self.root)
    }
}

impl<V, A, C> PartialEq for PacSeq<V, A, C>
where
    V: Element + PartialEq,
    A: Augmentation<V>,
    C: Codec<V>,
{
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<V, A, C> FromIterator<V> for PacSeq<V, A, C>
where
    V: Element,
    A: Augmentation<V>,
    C: Codec<V>,
{
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        let values: Vec<V> = iter.into_iter().collect();
        Self::from_slice_with(DEFAULT_B, &values)
    }
}
