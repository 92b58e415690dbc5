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
//! The builder trusts the stream's *entry data* (a tree read back from
//! bytes whose integrity was verified upstream, e.g. by the `store`
//! page checksums) but still validates structure: impossible block
//! sizes, runaway recursion depth, dangling references and truncated
//! streams all produce a typed [`BuildError`] instead of a panic or an
//! invalid tree.

use std::collections::HashMap;
use std::sync::Arc;

use codecs::Codec;

use crate::aug::Augmentation;
use crate::entry::Element;
use crate::node::{make_flat_from_block, make_lazy, make_regular, BlockSource, Node, Tree};

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
    /// not descended into. The value is the subtree root's position in
    /// the base tree's pre-order enumeration of *non-empty* nodes — a
    /// purely structural coordinate, so an encoder and a decoder that
    /// hold behaviourally equal copies of the base (e.g. the in-memory
    /// pinned root and its read-back-from-disk counterpart) agree on it.
    Shared(u64),
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
    /// A subtree taken wholesale from the base tree, by its
    /// base-pre-order index (see [`NodeRef::Shared`]).
    Shared(u64),
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

/// Calls `f` on every non-empty node of `t` in pre-order: the one
/// enumeration both sides of a [`NodeRef::Shared`] index count by. A
/// DAG-shared node is visited (and counted) once per path.
fn each_preorder<E, A, C>(t: &Tree<E, A, C>, f: &mut impl FnMut(&Arc<Node<E, A, C>>))
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(arc) = t else { return };
    f(arc);
    if let Node::Regular { left, right, .. } = &**arc {
        each_preorder(left, f);
        each_preorder(right, f);
    }
}

fn address<T>(arc: &Arc<T>) -> usize {
    Arc::as_ptr(arc) as *const () as usize
}

/// Indexes every non-empty node of `t` by allocation address, mapping
/// it to its pre-order position (the latest one for a node reachable by
/// several paths — any of them resolves to the same subtree on the
/// decode side). Shared-with-base detection in [`visit_preorder`] is a
/// lookup in this map.
///
/// Address identity is sound as a "same content" witness only while the
/// base tree is *pinned* (its `Arc`s held alive by the caller): a live
/// second reference keeps every refcount ≥ 2, which is exactly the
/// condition under which the ownership-aware update path refuses to
/// mutate a node in place. A node inside the base can therefore never
/// be overwritten while the pin lasts, so pointer equality implies
/// structural equality.
pub(crate) fn index_preorder<E, A, C>(t: &Tree<E, A, C>) -> HashMap<usize, u64>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut map = HashMap::new();
    let mut next = 0;
    each_preorder(t, &mut |arc| {
        map.insert(address(arc), next);
        next += 1;
    });
    map
}

/// Collects every non-empty subtree of `t` in pre-order — the decode
/// side's resolution table for [`NodeOwned::Shared`] indices. Each
/// entry is an `Arc` clone, so the vector is cheap (`O(n)` pointer
/// copies) and shares all structure with `t`.
pub(crate) fn collect_preorder<E, A, C>(t: &Tree<E, A, C>) -> Vec<Tree<E, A, C>>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut out = Vec::new();
    each_preorder(t, &mut |arc| out.push(Some(Arc::clone(arc))));
    out
}

/// Pre-order walk of `t`, invoking `f` on every node (including empty
/// subtrees, which delimit the shape). With `base` — the address index
/// of a pinned base tree, see [`index_preorder`] — subtrees found in it
/// are reported as [`NodeRef::Shared`] and pruned.
pub(crate) fn visit_preorder<E, A, C, F>(
    t: &Tree<E, A, C>,
    base: Option<&HashMap<usize, u64>>,
    f: &mut F,
) where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    F: FnMut(NodeRef<'_, E, C::Block>),
{
    let Some(node) = t else {
        return f(NodeRef::Empty);
    };
    if let Some(&idx) = base.and_then(|index| index.get(&address(node))) {
        return f(NodeRef::Shared(idx));
    }
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            f(NodeRef::Regular(entry));
            visit_preorder(left, base, f);
            visit_preorder(right, base, f);
        }
        // A lazy leaf that reaches here is either part of a full walk
        // or genuinely changed identity since the base: its bytes must
        // travel, so `leaf_block` materializes it for the callback's
        // duration (the source's cache keeps its own copy under its
        // budget).
        _ => f(NodeRef::Flat(&node.leaf_block())),
    }
}

/// Rebuilds a tree from a pre-order node stream; inverse of
/// [`visit_preorder`]. Cached sizes and augmented values are recomputed
/// bottom-up; blocks are adopted as-is. `base` is the pre-order subtree
/// table of the tree the encoder walked against (see
/// [`collect_preorder`]): shared references resolve to `Arc` clones out
/// of it, so the rebuilt tree shares those subtrees with the base.
/// `src` is where [`NodeOwned::Lazy`] leaves materialize from; `depth`
/// is the nesting so far (0 at the root).
pub(crate) fn build_preorder<E, A, C, S, N>(
    b: usize,
    base: Option<&[Tree<E, A, C>]>,
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
        return Err(BuildError::Invalid(
            "node stream deeper than any balanced tree",
        ));
    }
    let leaf_len = |len: usize| match len {
        0 => Err(BuildError::Invalid("empty leaf")),
        _ if len > b.saturating_mul(2) => Err(BuildError::Invalid("leaf larger than 2b")),
        _ => Ok(len),
    };
    match next().map_err(BuildError::Source)? {
        NodeOwned::Empty => Ok(None),
        NodeOwned::Shared(idx) => usize::try_from(idx)
            .ok()
            .and_then(|i| base?.get(i).cloned())
            .ok_or(BuildError::Invalid(
                "shared subtree index past the base tree",
            )),
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
    use codecs::DeltaCodec;

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
            NodeRef::Shared(i) => NodeOwned::Shared(i),
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
            .filter(|n| matches!(n, NodeOwned::Shared(_)))
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
        assert!(diff.iter().all(|n| !matches!(n, NodeOwned::Shared(_))));
        let rebuilt: PacMap<u64, u32> =
            PacMap::from_node_stream(8, Some(&base), None, &mut drain(diff)).expect("rebuild");
        assert_eq!(rebuilt.to_vec(), m.to_vec());
    }

    #[test]
    fn dangling_references_are_rejected() {
        let base: PacMap<u64, u32> = PacMap::from_pairs_with(8, vec![(1, 1)]);
        // A shared index past the base, a shared index with no base at
        // all, and a lazy leaf with no source to load it from.
        for (base, node) in [
            (Some(&base), NodeOwned::Shared(999)),
            (None, NodeOwned::Shared(0)),
            (None, NodeOwned::Lazy { page: 0, len: 4 }),
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
}
