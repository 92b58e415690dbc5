//! Structural hooks: walking a tree's nodes and rebuilding one from a
//! node stream, without going through entry arrays.
//!
//! These are the serialization hooks the `store` crate's page-file
//! format is built on. A PaC-tree's value is that its leaves are
//! *already encoded* blocks ([`codecs::Codec::Block`]); a byte-level
//! snapshot should therefore copy those blocks verbatim rather than
//! flatten the tree to entries and rebuild it (which would re-sort,
//! re-balance and re-encode `O(n)` data). The hooks expose exactly
//! enough structure to do that while keeping the node representation
//! private:
//!
//! * [`PacOrd::visit_nodes`](crate::PacOrd::visit_nodes) (one method
//!   for maps and sets alike) walks the tree in *pre-order*, reporting
//!   each node as a [`NodeRef`]: a regular node's pivot entry, a leaf's encoded block, an empty subtree, or —
//!   when walking against a base tree — a whole subtree physically
//!   shared with that base. Every regular node is followed by the full
//!   visit of its left subtree, then its right — so the visit order
//!   alone reconstructs the shape.
//! * [`PacOrd::from_node_stream`](crate::PacOrd::from_node_stream) is
//!   the inverse bulk constructor: it pulls [`NodeOwned`]s from a
//!   callback in the same pre-order and rebuilds the identical tree —
//!   same shape, same blocks — recomputing only the cached sizes and
//!   augmented values. No sorting, no re-encoding. Shared references
//!   resolve against the optional base tree; leaves may arrive as
//!   references into an optional [`BlockSource`] instead of as blocks.
//!
//! A shared subtree is named by its *coordinate*: the base rank of its
//! first entry and its entry count. The pair is unique per non-empty
//! node, because a parent strictly contains its children's entries.
//! Neither side enumerates the base. The walk finds each node it
//! reaches in the base by one descent from the base root, steered by the
//! node's key bounds in the walked tree; the builder finds the subtree
//! by one descent over cached sizes. Each costs `O(log n)` base nodes
//! per walked node, and neither reads a base leaf; the walk reads a leaf
//! of the walked tree only to place it beside a key deleted since the
//! base.
//!
//! The builder trusts the stream's *entry data* (a tree read back from
//! bytes whose integrity was verified upstream, e.g. by the `store`
//! page checksums) but still validates structure: impossible block
//! sizes, runaway recursion depth, dangling references and truncated
//! streams all produce a typed [`BuildError`] instead of a panic or an
//! invalid tree.

use std::cmp::Ordering;
use std::sync::Arc;

use codecs::Codec;

use crate::aug::Augmentation;
use crate::entry::{Element, Entry};
use crate::node::{make_flat_from_block, make_lazy, make_regular, size, BlockSource, Node, Tree};

/// One node of a pre-order tree walk, by reference.
#[derive(Debug)]
pub enum NodeRef<'a, E, B> {
    /// An empty subtree (also emitted for an empty collection).
    Empty,
    /// A regular (binary) node's pivot entry; its left subtree is
    /// visited next, then its right.
    Regular(&'a E),
    /// A leaf's encoded block (a lazy leaf is materialized for the
    /// callback's duration).
    Flat(&'a B),
    /// Only in a walk against a base tree: the whole subtree is
    /// physically shared with the base (same `Arc` allocation) and is
    /// not descended into. It is named by its coordinate in the base —
    /// a purely structural one, so an encoder and a decoder that hold
    /// behaviourally equal copies of the base (e.g. the in-memory
    /// pinned root and its read-back-from-disk counterpart) agree on it.
    /// Finding it cost one descent of the base, which reads no base
    /// leaf.
    Shared {
        /// Base rank of the subtree's first entry.
        rank: u64,
        /// The subtree's entry count.
        len: u64,
    },
}

/// One node of a pre-order tree stream, by value (the decode-side
/// counterpart of [`NodeRef`]).
#[derive(Debug)]
pub enum NodeOwned<E, B> {
    /// An empty subtree.
    Empty,
    /// A regular node's pivot entry (left subtree follows, then right).
    Regular(E),
    /// A leaf's encoded block, adopted verbatim as a resident leaf.
    Flat(B),
    /// A leaf of `len` entries left on `page` of the stream's
    /// [`BlockSource`], materialized through it on first access. Only
    /// unaugmented trees can hold one: a lazy leaf cannot supply an
    /// aggregate without being read.
    Lazy {
        /// The page id handed to [`BlockSource::load`].
        page: u32,
        /// Number of entries on the page.
        len: u32,
    },
    /// A subtree taken wholesale from the base tree: the one whose
    /// first entry has base rank `rank` and which holds `len` entries
    /// (see [`NodeRef::Shared`]), found by one descent over the base's
    /// cached sizes.
    Shared {
        /// Base rank of the subtree's first entry.
        rank: u64,
        /// The subtree's entry count.
        len: u64,
    },
}

/// Why [`from_node_stream`](crate::PacOrd::from_node_stream) rejected a
/// stream.
#[derive(Debug, PartialEq, Eq)]
pub enum BuildError<S> {
    /// The stream's own source failed (e.g. truncated or corrupt bytes).
    Source(S),
    /// The stream was structurally invalid for this tree.
    Invalid(&'static str),
}

impl<S: std::fmt::Display> std::fmt::Display for BuildError<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Source(e) => write!(f, "node stream source: {e}"),
            BuildError::Invalid(what) => write!(f, "invalid node stream: {what}"),
        }
    }
}

impl<S: std::fmt::Debug + std::fmt::Display> std::error::Error for BuildError<S> {}

/// Maximum regular-node nesting a stream may request. A weight-balanced
/// tree's height is `O(log n)` — far below this for any feasible size —
/// so deeper streams can only come from corrupt or adversarial input.
const MAX_DEPTH: usize = 512;

/// One descent of `base` from its root — the one way both sides of a
/// [`NodeRef::Shared`] coordinate find a subtree. Returns the first
/// subtree `stop` accepts, with the rank of its first entry; below a
/// regular node it goes where `side` says for the pivot entry and its
/// rank, and `Equal` (or a leaf or an empty subtree reached first)
/// ends it empty-handed. It reads no leaf.
fn descend<E, A, C>(
    base: &Tree<E, A, C>,
    stop: impl Fn(&Arc<Node<E, A, C>>, u64) -> bool,
    side: impl Fn(&E, u64) -> Ordering,
) -> Option<(&Tree<E, A, C>, u64)>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let (mut cur, mut first) = (base, 0u64);
    loop {
        let here = cur.as_ref()?;
        if stop(here, first) {
            return Some((cur, first));
        }
        let Node::Regular {
            left, entry, right, ..
        } = &**here
        else {
            return None;
        };
        let pivot = first + size(left) as u64;
        match side(entry, pivot) {
            Ordering::Less => cur = left,
            Ordering::Greater => (cur, first) = (right, pivot + 1),
            Ordering::Equal => return None,
        }
    }
}

/// Pre-order walk of `t`, invoking `f` on every node (including empty
/// subtrees, which delimit the shape). `lo`/`hi` are `t`'s key bounds:
/// the pivots of its nearest ancestors left and right (`None` at the
/// root), so every key under `t` lies strictly between them.
///
/// With `base`, a pinned tree, each node is looked up in it by one
/// [`descend`]. If the node is in `base`, each base pivot on the way
/// down has all of the node on one side: a pivot `≥ hi` steers left
/// and one `≤ lo` right. A pivot strictly between the bounds is not in
/// `t` (it would lie under the node), so it is a key deleted since
/// `base`; then the node's own key decides, read from its pivot or its
/// leaf's first entry (the one case that loads a lazy leaf). An equal
/// key, or a base leaf that is not the node, means the node is not in
/// `base`. A node found by `Arc` identity is reported as
/// [`NodeRef::Shared`] and pruned.
///
/// `Arc` identity witnesses "same content" only while `base` is
/// *pinned* (its `Arc`s held alive by the caller): a live second
/// reference keeps every refcount ≥ 2, which is exactly the condition
/// under which the ownership-aware update path refuses to mutate a node
/// in place.
pub(crate) fn visit_preorder<E, A, C, F>(
    t: &Tree<E, A, C>,
    base: Option<&Tree<E, A, C>>,
    (lo, hi): (Option<&E::Key>, Option<&E::Key>),
    f: &mut F,
) where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: FnMut(NodeRef<'_, E, C::Block>),
{
    let Some(node) = t else {
        return f(NodeRef::Empty);
    };
    let side = |pivot: &E, _| match pivot.key() {
        p if hi.is_some_and(|hi| p >= hi) => Ordering::Less,
        p if lo.is_some_and(|lo| p <= lo) => Ordering::Greater,
        p => match &**node {
            Node::Regular { entry, .. } => entry.key().cmp(p),
            leaf => C::get(&leaf.leaf_block_once(), 0).key().cmp(p),
        },
    };
    let shared = base.and_then(|b| descend(b, |here, _| Arc::ptr_eq(here, node), side));
    if let Some((_, rank)) = shared {
        let len = node.size() as u64;
        return f(NodeRef::Shared { rank, len });
    }
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            f(NodeRef::Regular(entry));
            visit_preorder(left, base, (lo, Some(entry.key())), f);
            visit_preorder(right, base, (Some(entry.key()), hi), f);
        }
        // A lazy leaf that reaches here is either part of a full walk
        // or genuinely changed identity since the base: its bytes must
        // travel, so it is materialized for the callback's duration,
        // through `load_once` — the walk visits each leaf once, and
        // caching what it reads would only evict what queries re-use.
        _ => f(NodeRef::Flat(&node.leaf_block_once())),
    }
}

/// Rebuilds a tree from a pre-order node stream; inverse of
/// [`visit_preorder`]. Cached sizes and augmented values are recomputed
/// bottom-up; blocks are adopted as-is. `base` is the tree the encoder
/// walked against: a shared reference resolves, by one [`descend`] over
/// cached sizes, to an `Arc` clone of its subtree, so the rebuilt tree
/// shares those subtrees with the base. `src` is where
/// [`NodeOwned::Lazy`] leaves materialize from; `depth` is the nesting
/// so far (0 at the root).
pub(crate) fn build_preorder<E, A, C, S, N>(
    b: usize,
    base: Option<&Tree<E, A, C>>,
    src: Option<&Arc<dyn BlockSource<C::Block>>>,
    next: &mut N,
    depth: usize,
) -> Result<Tree<E, A, C>, BuildError<S>>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    N: FnMut() -> Result<NodeOwned<E, C::Block>, S>,
{
    if depth > MAX_DEPTH {
        return Err(BuildError::Invalid("deeper than any balanced tree"));
    }
    let leaf_len = |len: usize| match len {
        0 => Err(BuildError::Invalid("empty leaf")),
        _ if len > b.saturating_mul(2) => Err(BuildError::Invalid("leaf larger than 2b")),
        _ => Ok(len),
    };
    match next().map_err(BuildError::Source)? {
        NodeOwned::Empty => Ok(None),
        NodeOwned::Shared { rank, len } => {
            let stop = |t: &Arc<Node<E, A, C>>, first| first == rank && t.size() as u64 == len;
            let found = base.and_then(|b| descend(b, stop, |_, pivot| rank.cmp(&pivot)));
            let (found, _) = found.ok_or(BuildError::Invalid("shared subtree not in the base"))?;
            Ok(found.clone())
        }
        NodeOwned::Flat(block) => {
            leaf_len(C::len(&block))?;
            Ok(make_flat_from_block(block))
        }
        NodeOwned::Lazy { page, len } => {
            // The identity aggregate a lazy leaf carries is only right
            // when it is the sole value of its type.
            if std::mem::size_of::<A::Value>() != 0 {
                return Err(BuildError::Invalid("lazy leaf in an augmented tree"));
            }
            let src = src.ok_or(BuildError::Invalid("lazy leaf without a block source"))?;
            Ok(make_lazy(leaf_len(len as usize)?, page, Arc::clone(src)))
        }
        NodeOwned::Regular(entry) => {
            let left = build_preorder(b, base, src, next, depth + 1)?;
            let right = build_preorder(b, base, src, next, depth + 1)?;
            Ok(make_regular(left, entry, right))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoAug, PacMap, PacSet};
    use codecs::{DeltaCodec, RawCodec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn drain<E, B>(
        nodes: Vec<NodeOwned<E, B>>,
    ) -> impl FnMut() -> Result<NodeOwned<E, B>, &'static str> {
        let mut it = nodes.into_iter();
        move || it.next().ok_or("stream exhausted")
    }

    fn owned<E: Clone, B: Clone>(n: NodeRef<'_, E, B>) -> NodeOwned<E, B> {
        match n {
            NodeRef::Empty => NodeOwned::Empty,
            NodeRef::Regular(e) => NodeOwned::Regular(e.clone()),
            NodeRef::Flat(b) => NodeOwned::Flat(b.clone()),
            NodeRef::Shared { rank, len } => NodeOwned::Shared { rank, len },
        }
    }

    fn collect_set<K, A, C>(s: &PacSet<K, A, C>) -> Vec<NodeOwned<K, C::Block>>
    where
        K: crate::ScalarKey,
        A: Augmentation<K>,
        C: Codec<K>,
    {
        let mut nodes = Vec::new();
        s.visit_nodes(None, &mut |n| nodes.push(owned(n)));
        nodes
    }

    type MapNode = NodeOwned<(u64, u32), Box<[(u64, u32)]>>;

    fn collect_map(m: &PacMap<u64, u32>, base: Option<&PacMap<u64, u32>>) -> Vec<MapNode> {
        let mut nodes = Vec::new();
        m.visit_nodes(base, &mut |n| nodes.push(owned(n)));
        nodes
    }

    #[test]
    fn set_roundtrips_through_node_stream() {
        let s: PacSet<u64, NoAug, DeltaCodec> =
            PacSet::from_keys_with(16, (0..10_000).map(|i| 3 * i).collect());
        let rebuilt: PacSet<u64, NoAug, DeltaCodec> =
            PacSet::from_node_stream(16, None, None, &mut drain(collect_set(&s))).expect("rebuild");
        assert_eq!(rebuilt.to_vec(), s.to_vec());
        // Blocks were adopted verbatim: identical space accounting.
        assert_eq!(rebuilt.space_stats(), s.space_stats());
        rebuilt.check_invariants().expect("invariants");
    }

    #[test]
    fn map_roundtrips_through_node_stream() {
        let m: PacMap<u64, u32> =
            PacMap::from_pairs_with(32, (0..5_000).map(|i| (i, (i % 97) as u32)).collect());
        let rebuilt: PacMap<u64, u32> =
            PacMap::from_node_stream(32, None, None, &mut drain(collect_map(&m, None)))
                .expect("rebuild");
        assert_eq!(rebuilt.to_vec(), m.to_vec());
        assert_eq!(rebuilt.space_stats(), m.space_stats());
        rebuilt.check_invariants().expect("invariants");
    }

    #[test]
    fn empty_and_singleton_roundtrip() {
        for keys in [vec![], vec![42u64]] {
            let s: PacSet<u64> = PacSet::from_keys(keys);
            let rebuilt: PacSet<u64> =
                PacSet::from_node_stream(s.block_size(), None, None, &mut drain(collect_set(&s)))
                    .expect("rebuild");
            assert_eq!(rebuilt.to_vec(), s.to_vec());
        }
    }

    #[test]
    fn truncated_stream_reports_source_error() {
        let s: PacSet<u64> = PacSet::from_keys_with(4, (0..1000).collect());
        let mut nodes = collect_set(&s);
        nodes.truncate(nodes.len() / 2);
        let err = PacSet::<u64>::from_node_stream(4, None, None, &mut drain(nodes)).unwrap_err();
        assert_eq!(err, BuildError::Source("stream exhausted"));
    }

    #[test]
    fn walk_against_a_base_roundtrips_and_prunes_shared_subtrees() {
        let base: PacMap<u64, u32> =
            PacMap::from_pairs_with(8, (0..4_000).map(|i| (i, i as u32)).collect());
        // A sparse update: most of the tree stays physically shared.
        let mut m = base.clone();
        for k in [3u64, 1_999, 3_998] {
            m = m.insert(k, 7);
        }

        let diff = collect_map(&m, Some(&base));
        let full_len = collect_map(&m, None).len();
        let shared = diff
            .iter()
            .filter(|n| matches!(n, NodeOwned::Shared { .. }))
            .count();
        assert!(
            shared > 0,
            "sparse update must share subtrees with the base"
        );
        assert!(
            diff.len() < full_len,
            "diff stream ({}) should be shorter than the full walk ({full_len})",
            diff.len()
        );

        let rebuilt: PacMap<u64, u32> =
            PacMap::from_node_stream(8, Some(&base), None, &mut drain(diff)).expect("rebuild");
        assert_eq!(rebuilt.to_vec(), m.to_vec());
        rebuilt.check_invariants().expect("invariants");
    }

    #[test]
    fn walk_against_a_disjoint_base_degenerates_to_the_full_stream() {
        let base: PacMap<u64, u32> = PacMap::from_pairs_with(8, vec![(1, 1)]);
        let m: PacMap<u64, u32> =
            PacMap::from_pairs_with(8, (0..500).map(|i| (i, i as u32)).collect());
        let diff = collect_map(&m, Some(&base));
        assert!(diff.iter().all(|n| !matches!(n, NodeOwned::Shared { .. })));
        let rebuilt: PacMap<u64, u32> =
            PacMap::from_node_stream(8, Some(&base), None, &mut drain(diff)).expect("rebuild");
        assert_eq!(rebuilt.to_vec(), m.to_vec());
    }

    #[test]
    fn dangling_references_are_rejected() {
        let base: PacMap<u64, u32> = PacMap::from_pairs_with(8, vec![(1, 1)]);
        // A base with regular nodes: its root's pivot has rank `pivot`,
        // and every subtree starting at rank 0 is shorter than 199.
        let big: PacMap<u64, u32> =
            PacMap::from_pairs_with(8, (0..200).map(|i| (i, i as u32)).collect());
        let mut root_key = None;
        big.visit_nodes(None, &mut |n| {
            if let (None, NodeRef::Regular(e)) = (root_key, n) {
                root_key = Some(e.0);
            }
        });
        let pivot = big.rank(&root_key.expect("a regular root")) as u64;
        let shared = |rank, len| NodeOwned::Shared { rank, len };
        // A shared reference past the base, one with no base at all, and
        // a lazy leaf with no source to load it from; then coordinates
        // that name no subtree of `big`: an empty one, one whose end
        // overflows `u64`, one past the end, one across the root's
        // pivot, and a right rank with a length no subtree has.
        for (base, node) in [
            (Some(&base), shared(999, 1)),
            (None, shared(0, 1)),
            (None, NodeOwned::Lazy { page: 0, len: 4 }),
            (Some(&big), shared(0, 0)),
            (Some(&big), shared(u64::MAX, u64::MAX)),
            (Some(&big), shared(1, u64::MAX)),
            (Some(&big), shared(199, 2)),
            (Some(&big), shared(pivot - 1, 2)),
            (Some(&big), shared(0, pivot + 1)),
            (Some(&big), shared(0, 199)),
        ] {
            let err = PacMap::<u64, u32>::from_node_stream(8, base, None, &mut drain(vec![node]))
                .unwrap_err();
            assert!(matches!(err, BuildError::Invalid(_)));
        }
    }

    #[test]
    fn oversized_block_is_rejected() {
        let s: PacSet<u64> = PacSet::from_keys_with(64, (0..100).collect());
        // Rebuild claiming a block size too small for the stored block.
        let err = PacSet::<u64>::from_node_stream(4, None, None, &mut drain(collect_set(&s)))
            .unwrap_err();
        assert!(matches!(err, BuildError::Invalid(_)));
    }

    /// What a walk reports, comparable across the walk and its oracle.
    #[derive(Debug, PartialEq)]
    enum Token {
        Empty,
        Regular(u64),
        Flat { len: usize, first: u64 },
        Shared { rank: u64, len: u64 },
    }

    fn token<C: Codec<(u64, u64)>>(n: &NodeRef<'_, (u64, u64), C::Block>) -> Token {
        match *n {
            NodeRef::Empty => Token::Empty,
            NodeRef::Regular(e) => Token::Regular(e.0),
            NodeRef::Flat(b) => Token::Flat {
                len: C::len(b),
                first: C::get(b, 0).0,
            },
            NodeRef::Shared { rank, len } => Token::Shared { rank, len },
        }
    }

    type Tree64<C> = Tree<(u64, u64), NoAug, C>;
    type Stream<C> = Vec<NodeOwned<(u64, u64), <C as Codec<(u64, u64)>>::Block>>;

    /// The rule the descent replaced, kept as the oracle: the addresses
    /// of every node of the pinned base.
    fn addresses<C: Codec<(u64, u64)>>(t: &Tree64<C>, out: &mut HashSet<usize>) {
        if let Some(node) = t {
            out.insert(Arc::as_ptr(node) as *const () as usize);
            if let Node::Regular { left, right, .. } = &**node {
                addresses(left, out);
                addresses(right, out);
            }
        }
    }

    /// The oracle walk: pre-order over `t`, reporting every maximal
    /// subtree whose address is in `base` as shared, its rank found by
    /// key in the base (an independent descent).
    fn oracle_walk<C: Codec<(u64, u64)>>(
        t: &Tree64<C>,
        base: (&HashSet<usize>, &PacMap<u64, u64, NoAug, C>),
        out: &mut Vec<Token>,
    ) {
        let Some(node) = t else {
            return out.push(Token::Empty);
        };
        if base.0.contains(&(Arc::as_ptr(node) as *const () as usize)) {
            let first = crate::algos::first(t).expect("non-empty").0;
            let (rank, len) = (base.1.rank(&first) as u64, node.size() as u64);
            return out.push(Token::Shared { rank, len });
        }
        match &**node {
            Node::Regular {
                left, entry, right, ..
            } => {
                out.push(Token::Regular(entry.0));
                oracle_walk(left, base, out);
                oracle_walk(right, base, out);
            }
            leaf => out.push(token::<C>(&NodeRef::Flat(&leaf.leaf_block()))),
        }
    }

    fn walk<C: Codec<(u64, u64)>>(
        t: &PacMap<u64, u64, NoAug, C>,
        base: &PacMap<u64, u64, NoAug, C>,
    ) -> (Vec<Token>, Stream<C>) {
        let (mut tokens, mut nodes) = (Vec::new(), Vec::new());
        t.visit_nodes(Some(base), &mut |n| {
            tokens.push(token::<C>(&n));
            nodes.push(owned(n));
        });
        (tokens, nodes)
    }

    /// One seeded edit script: a base map, then point and range inserts
    /// and deletes, including deletes of keys the base holds as pivots.
    fn exact_script<C: Codec<(u64, u64)>>(seed: u64, b: usize) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let span = rng.gen_range(1..6_000u64);
        let pairs: Vec<(u64, u64)> = (0..rng.gen_range(0..3_000))
            .map(|_| (rng.gen_range(0..span), rng.gen()))
            .collect();
        let base: PacMap<u64, u64, NoAug, C> = PacMap::from_pairs_with(b, pairs);
        let mut pivots = Vec::new();
        base.visit_nodes(None, &mut |n| {
            if let NodeRef::Regular(e) = n {
                pivots.push(e.0);
            }
        });
        let mut next = base.clone();
        for _ in 0..rng.gen_range(0..8) {
            let (lo, run) = (rng.gen_range(0..span), rng.gen_range(1..200));
            next = match rng.gen_range(0..5) {
                0 => next.insert(lo, rng.gen()),
                1 => next.remove(&lo),
                2 => next.multi_insert((lo..lo + run).map(|k| (k, k)).collect()),
                3 => next.multi_delete((lo..lo + run).collect()),
                _ if pivots.is_empty() => next,
                _ => next.remove(&pivots[rng.gen_range(0..pivots.len())]),
            };
        }

        let mut in_base = HashSet::new();
        addresses(&base.root, &mut in_base);
        let mut want = Vec::new();
        oracle_walk(&next.root, (&in_base, &base), &mut want);
        let (got, nodes) = walk(&next, &base);
        if got != want {
            return Err(format!("walk {got:?}\n  oracle {want:?}"));
        }
        let rebuilt = PacMap::from_node_stream(b, Some(&base), None, &mut drain(nodes))
            .map_err(|e| format!("rebuild: {e}"))?;
        rebuilt.check_invariants()?;
        if rebuilt.to_vec() != next.to_vec() || rebuilt.space_stats() != next.space_stats() {
            return Err("the stream rebuilt a different tree".into());
        }
        // The rebuilt tree shares exactly what the walked one did.
        if walk(&rebuilt, &base).0 != got {
            return Err("the rebuilt tree shares other subtrees".into());
        }
        Ok(())
    }

    /// The descent against the address-set oracle, on raw and delta maps
    /// at B ∈ {1, 2, 4, 8, 32, 128}: the walk reports exactly the maximal
    /// subtrees the oracle finds in the base, each rank is the base rank
    /// of the subtree's first key, and the stream rebuilds the walked
    /// tree. `PROPTEST_SEED=<n>` replays one script everywhere;
    /// `PROPTEST_CASES=<n>` sets the number of scripts.
    #[test]
    fn the_descent_finds_exactly_the_shared_subtrees() {
        let name = "the_descent_finds_exactly_the_shared_subtrees";
        proptest::check_seeded(name, 40, |seed| {
            [1, 2, 4, 8, 32, 128].into_iter().try_for_each(|b| {
                let raw = exact_script::<RawCodec>(seed, b).map_err(|e| ("raw", e));
                let delta = exact_script::<DeltaCodec>(seed, b).map_err(|e| ("delta", e));
                raw.and(delta)
                    .map_err(|(codec, e)| format!("{codec} map, B = {b}: {e}"))
            })
        });
    }
}
