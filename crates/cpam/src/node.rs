//! The PaC-tree node representation (Definition 4.1 of the paper).
//!
//! A tree is either empty, a *regular* (binary) node, or a *flat* node: a
//! leaf whose `B..2B` entries are packed into one encoded block. Regular
//! nodes stay binary so path copying is cheap; flat nodes carry one
//! augmented value for the whole block.
//!
//! Persistence comes from `Arc`: updates copy the `O(log n)` nodes on the
//! affected path and share everything else with previous versions, which
//! is exactly the paper's reference-counting scheme. The scheme cuts the
//! other way too: when a node's refcount is 1 the caller holds the *only*
//! reference, so an update may overwrite the node in place instead of
//! path-copying — [`reuse_regular`] / [`reuse_flat`] implement that
//! ownership-aware fast path (PaC-trees §4; the same trick PAM uses to
//! keep functional maps competitive with imperative ones). Sharing is
//! detected per node with [`std::sync::Arc::get_mut`], so a single pinned
//! snapshot anywhere above automatically forces the copying path.
//!
//! Dropping is also ownership-aware: a plain recursive `Arc` drop would
//! recurse once per tree level *per field*, and degenerate shapes (or
//! very small `B`) make that a stack hazard. [`Node`]'s `Drop` unlinks
//! children of large subtrees iteratively — walking single-child spines
//! in a loop and forking two-child splits through [`parlay::join`] — so
//! a million-node tree drops in bounded stack space, in parallel.

use std::ops::Deref;
use std::sync::Arc;

use codecs::Codec;

use crate::aug::Augmentation;
use crate::entry::Element;
use crate::stats;

/// A (sub)tree: `None` is the empty tree.
pub(crate) type Tree<E, A, C> = Option<Arc<Node<E, A, C>>>;

/// Source of leaf blocks for *lazy* leaves: a leaf built from a
/// [`crate::structure::NodeOwned::Lazy`] stream node holds a page id
/// instead of the encoded bytes and asks its source for them on *every*
/// access. The source is the one owner of residency: the tree keeps no
/// handle of its own between accesses, so what stays in memory, for how
/// long and at what budget is the source's policy alone — the `store`
/// crate's buffer pool is the canonical implementation — and every
/// access shows up in the source's counters.
///
/// The returned [`Arc`] is the pin: whoever holds it keeps the block
/// alive for as long as they need it, whatever the source evicts in the
/// meantime. Operations therefore load a leaf once and hold the handle
/// across everything they do with it.
///
/// `load` is infallible by contract: tree queries (`find`, iteration,
/// ...) have no error channel, so a source that cannot produce the page
/// it promised at build time must panic (the pool panics with the
/// underlying typed I/O error's message). Loads must be idempotent —
/// the same page is requested once per access.
pub trait BlockSource<B>: Send + Sync + 'static {
    /// Loads (or retrieves from cache) the block stored on `page`.
    fn load(&self, page: u32) -> Arc<B>;

    /// Loads the block on `page` for a walk that reads each leaf once
    /// and moves on (a page write of the whole tree): a cached copy is
    /// served, but a fetched one is not cached, so such a walk leaves the
    /// source's resident set as it found it. Same contract as
    /// [`BlockSource::load`] otherwise; by default it *is* `load`.
    fn load_once(&self, page: u32) -> Arc<B> {
        self.load(page)
    }
}

/// A borrow of a leaf's encoded block: either a plain borrow out of a
/// resident [`Node::Flat`], or a shared handle a lazy leaf materialized
/// through its [`BlockSource`]. Derefs to the block either way, so the
/// flat base cases are written once against `&C::Block`.
pub(crate) enum BlockRef<'a, B> {
    /// The block lives inline in the node.
    Borrowed(&'a B),
    /// The block was materialized through a [`BlockSource`]; the `Arc`
    /// keeps it alive for the borrow's duration.
    Loaded(Arc<B>),
}

impl<B> Deref for BlockRef<'_, B> {
    type Target = B;

    #[inline]
    fn deref(&self) -> &B {
        match self {
            BlockRef::Borrowed(b) => b,
            BlockRef::Loaded(arc) => arc,
        }
    }
}

/// One tree node; see the module docs.
pub(crate) enum Node<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    /// A binary node holding a single entry.
    Regular {
        /// Number of entries in this subtree.
        size: usize,
        /// Aggregate of all entries in this subtree.
        aug: A::Value,
        /// Entries with keys before `entry`.
        left: Tree<E, A, C>,
        /// The pivot entry.
        entry: E,
        /// Entries with keys after `entry`.
        right: Tree<E, A, C>,
    },
    /// A leaf block of `B..2B` entries in collection order.
    Flat {
        /// Aggregate of the block's entries.
        aug: A::Value,
        /// The encoded entries.
        block: C::Block,
    },
    /// A *lazy* leaf: the entries live on a page of a [`BlockSource`]
    /// and are materialized through `src` on every access. Only
    /// built for unaugmented trees (`aug` is the identity — a lazy
    /// leaf cannot compute an aggregate without touching its page, and
    /// the store only pages `NoAug` trees).
    Lazy {
        /// Aggregate placeholder (identity; see above).
        aug: A::Value,
        /// Number of entries on the page (from the structure stream,
        /// so `size()` never does I/O).
        len: usize,
        /// The page holding the encoded block.
        page: u32,
        /// Where to materialize the block from.
        src: Arc<dyn BlockSource<C::Block>>,
    },
}

impl<E, A, C> Node<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    /// Number of entries under this node.
    pub(crate) fn size(&self) -> usize {
        match self {
            Node::Regular { size, .. } => *size,
            Node::Flat { block, .. } => C::len(block),
            Node::Lazy { len, .. } => *len,
        }
    }

    /// The node's aggregate value.
    pub(crate) fn aug(&self) -> &A::Value {
        match self {
            Node::Regular { aug, .. } => aug,
            Node::Flat { aug, .. } => aug,
            Node::Lazy { aug, .. } => aug,
        }
    }

    /// True for leaf (blocked) nodes — resident or lazy.
    pub(crate) fn is_flat(&self) -> bool {
        !matches!(self, Node::Regular { .. })
    }

    /// The leaf's encoded block, materializing a lazy leaf through its
    /// [`BlockSource`] (a resident leaf is a plain borrow).
    ///
    /// # Panics
    ///
    /// Panics on regular nodes.
    pub(crate) fn leaf_block(&self) -> BlockRef<'_, C::Block> {
        match self {
            Node::Flat { block, .. } => BlockRef::Borrowed(block),
            Node::Lazy { page, src, .. } => BlockRef::Loaded(src.load(*page)),
            Node::Regular { .. } => unreachable!("leaf_block on regular node"),
        }
    }

    /// [`Node::leaf_block`] for a one-pass walk: a lazy leaf is read
    /// through [`BlockSource::load_once`].
    ///
    /// # Panics
    ///
    /// Panics on regular nodes.
    pub(crate) fn leaf_block_once(&self) -> BlockRef<'_, C::Block> {
        match self {
            Node::Lazy { page, src, .. } => BlockRef::Loaded(src.load_once(*page)),
            _ => self.leaf_block(),
        }
    }
}

/// Subtree size above which `Drop` switches from the plain recursive
/// drop (fine: depth is `O(log size)` on weight-balanced trees) to the
/// iterative/parallel unlink walk.
const PAR_DROP_MIN: usize = 1 << 14;

impl<E, A, C> Drop for Node<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    fn drop(&mut self) {
        // Every node deallocation passes through here exactly once
        // (drop_heavy only hollows out children before dropping the
        // owning Arc, whose own drop still lands in this impl).
        stats::count_node_drop();
        if let Node::Regular {
            left, right, size, ..
        } = self
        {
            if *size >= PAR_DROP_MIN {
                let (l, r) = (left.take(), right.take());
                drop_heavy(l, r);
            }
        }
    }
}

/// Drops two large subtrees without deep recursion: single-child chains
/// are walked in a loop, two-child splits fork through [`parlay::join`]
/// when both children are uniquely owned and the drop already runs on a
/// pool worker (halving weights keep the depth `O(log n)` with tiny
/// frames, forked or not), and shared nodes are just a refcount
/// decrement. Each `Arc` dropped here has had its heavy children taken
/// out first, so its own `Drop` returns immediately.
///
/// Off the pool the walk never forks: there a `join` is an injection and
/// a blocking wait, and the usual drop off the pool is a store commit
/// evicting a superseded version, which owns about one commit's worth of
/// paths. A caller that wants a whole tree torn down in parallel drops it
/// inside [`parlay::run`].
fn drop_heavy<E, A, C>(l: Tree<E, A, C>, r: Tree<E, A, C>)
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    fn one<E, A, C>(t: Tree<E, A, C>)
    where
        E: Element,
        A: Augmentation<E>,
        C: Codec<E>,
    {
        let Some(mut arc) = t else { return };
        loop {
            match Arc::get_mut(&mut arc) {
                Some(Node::Regular {
                    left, right, size, ..
                }) => {
                    if *size < PAR_DROP_MIN {
                        // Small enough for the plain recursive drop.
                        return;
                    }
                    match (left.take(), right.take()) {
                        (Some(a), Some(b)) => {
                            drop(arc);
                            return drop_heavy(Some(a), Some(b));
                        }
                        (Some(x), None) | (None, Some(x)) => arc = x,
                        (None, None) => return,
                    }
                }
                // Shared or leaf: dropping `arc` is shallow.
                _ => return,
            }
        }
    }
    match (l, r) {
        // A fork pays only on a worker and only when both sides have
        // nodes to free: a shared side — all but one path of a
        // superseded version — is one refcount decrement, and off the
        // pool a `join` is a hand-off to a worker and a wait.
        (Some(a), Some(b))
            if parlay::in_worker() && Arc::strong_count(&a) == 1 && Arc::strong_count(&b) == 1 =>
        {
            parlay::join(|| one(Some(a)), || one(Some(b)));
        }
        (a, b) => {
            one(a);
            one(b);
        }
    }
}

/// Size of a tree (0 for empty).
#[inline]
pub(crate) fn size<E, A, C>(t: &Tree<E, A, C>) -> usize
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    t.as_ref().map_or(0, |n| n.size())
}

/// Weight of a tree: `size + 1` (paper's `w(T)`).
#[inline]
pub(crate) fn weight<E, A, C>(t: &Tree<E, A, C>) -> usize
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    size(t) + 1
}

/// Aggregate of a tree (identity for empty).
#[inline]
pub(crate) fn aug_of<E, A, C>(t: &Tree<E, A, C>) -> A::Value
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    t.as_ref().map_or_else(A::identity, |n| n.aug().clone())
}

/// Computes the cached fields of a regular node over `(left, entry,
/// right)` and assembles the node value.
fn regular_node<E, A, C>(left: Tree<E, A, C>, entry: E, right: Tree<E, A, C>) -> Node<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let size = size(&left) + size(&right) + 1;
    let aug = A::combine(
        &A::combine(&aug_of(&left), &A::from_entry(&entry)),
        &aug_of(&right),
    );
    Node::Regular {
        size,
        aug,
        left,
        entry,
        right,
    }
}

/// Builds a regular node, computing its size and aggregate.
pub(crate) fn make_regular<E, A, C>(
    left: Tree<E, A, C>,
    entry: E,
    right: Tree<E, A, C>,
) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    stats::count_node_alloc();
    Some(Arc::new(regular_node(left, entry, right)))
}

/// Ownership-aware [`make_regular`]: when `src` is a uniquely-owned node
/// (refcount 1, any variant) its allocation is overwritten in place —
/// the in-place update of the paper's reference-counting scheme. A
/// shared (or absent) `src` falls back to a fresh allocation; the two
/// outcomes are tallied as [`crate::stats::OpCounts::nodes_reused`] vs
/// [`crate::stats::OpCounts::nodes_copied`].
pub(crate) fn reuse_regular<E, A, C>(
    src: Tree<E, A, C>,
    left: Tree<E, A, C>,
    entry: E,
    right: Tree<E, A, C>,
) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    if let Some(mut arc) = src {
        if let Some(slot) = Arc::get_mut(&mut arc) {
            *slot = regular_node(left, entry, right);
            stats::count_node_reuse();
            return Some(arc);
        }
    }
    stats::count_node_copy();
    make_regular(left, entry, right)
}

/// Ownership-aware [`make_flat`]: re-encodes `entries` into `src`'s
/// allocation when `src` is uniquely owned, else copies (see
/// [`reuse_regular`] for the accounting).
pub(crate) fn reuse_flat<E, A, C>(src: Tree<E, A, C>, entries: &[E]) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    if entries.is_empty() {
        return None;
    }
    if let Some(mut arc) = src {
        if let Some(slot) = Arc::get_mut(&mut arc) {
            stats::count_block_encode();
            *slot = Node::Flat {
                aug: A::from_entries(entries),
                block: C::encode(entries),
            };
            stats::count_node_reuse();
            return Some(arc);
        }
    }
    stats::count_node_copy();
    make_flat(entries)
}

/// [`reuse_flat`] for a block the codec has already built (a
/// [`Codec::splice`]): installs it in `src`'s allocation when uniquely
/// owned, else in a new node. Counts one block encode either way.
pub(crate) fn reuse_block<E, A, C>(src: Tree<E, A, C>, block: C::Block) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    if C::is_empty(&block) {
        return None;
    }
    stats::count_block_encode();
    let aug = block_aug::<E, A, C>(&block);
    if let Some(mut arc) = src {
        if let Some(slot) = Arc::get_mut(&mut arc) {
            *slot = Node::Flat { aug, block };
            stats::count_node_reuse();
            return Some(arc);
        }
    }
    stats::count_node_copy();
    stats::count_node_alloc();
    Some(Arc::new(Node::Flat { aug, block }))
}

/// The aggregate of a block's entries, folded over its cursor — a
/// decode, but no materialized entries. An unaugmented tree (a
/// zero-sized aggregate) skips the walk.
fn block_aug<E, A, C>(block: &C::Block) -> A::Value
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut aug = A::identity();
    if std::mem::size_of::<A::Value>() != 0 {
        C::for_each(block, &mut |e| aug = A::combine(&aug, &A::from_entry(e)));
    }
    aug
}

/// Builds a flat node from entries in collection order.
pub(crate) fn make_flat<E, A, C>(entries: &[E]) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    if entries.is_empty() {
        return None;
    }
    stats::count_node_alloc();
    stats::count_block_encode();
    Some(Arc::new(Node::Flat {
        aug: A::from_entries(entries),
        block: C::encode(entries),
    }))
}

/// Builds a flat node directly from an already-encoded block, computing
/// the augmentation by streaming the block's entries. Used by
/// deserialization ([`crate::structure`]) so compressed blocks read off
/// disk are adopted verbatim instead of being decoded and re-encoded.
pub(crate) fn make_flat_from_block<E, A, C>(block: C::Block) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    if C::is_empty(&block) {
        return None;
    }
    stats::count_node_alloc();
    let aug = block_aug::<E, A, C>(&block);
    Some(Arc::new(Node::Flat { aug, block }))
}

/// Builds a lazy leaf over `page` of `src`, with `len` entries.
///
/// The aggregate is the identity — callers must only build lazy leaves
/// for unaugmented trees (enforced by the one caller, the stream builder
/// in [`crate::structure`]).
pub(crate) fn make_lazy<E, A, C>(
    len: usize,
    page: u32,
    src: Arc<dyn BlockSource<C::Block>>,
) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    debug_assert!(len > 0, "lazy leaf must hold entries");
    stats::count_node_alloc();
    Some(Arc::new(Node::Lazy {
        aug: A::identity(),
        len,
        page,
        src,
    }))
}

/// Decodes a leaf node's block into a fresh vector (materializing a
/// lazy leaf first).
///
/// This is the decode-everything *oracle* path: hot code uses the
/// codec's cursor layer or [`decode_flat_into`] with a scratch buffer
/// instead. Kept for the invariant checker and differential tests,
/// whose point is to compare against a full materialization.
pub(crate) fn decode_flat<E, A, C>(node: &Node<E, A, C>) -> Vec<E>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    match node {
        Node::Regular { .. } => unreachable!("decode_flat on regular node"),
        _ => {
            stats::count_block_decode();
            let block = node.leaf_block();
            let mut out = Vec::with_capacity(C::len(&block));
            C::decode(&block, &mut out);
            out
        }
    }
}

/// Appends a leaf node's entries to `out` (typically a
/// [`crate::scratch`] buffer sized by the caller). Still a *full* block
/// decode — it counts as one — but allocation-free when `out` has
/// capacity (a lazy leaf additionally pays its page load).
pub(crate) fn decode_flat_into<E, A, C>(node: &Node<E, A, C>, out: &mut Vec<E>)
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    match node {
        Node::Regular { .. } => unreachable!("decode_flat_into on regular node"),
        _ => {
            stats::count_block_decode();
            let block = node.leaf_block();
            C::decode(&block, out);
        }
    }
}

/// Per-(sub)tree space statistics for the paper's space experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Number of regular (binary) nodes.
    pub regular_nodes: usize,
    /// Number of flat (blocked leaf) nodes, including lazy ones.
    pub flat_nodes: usize,
    /// Leaf nodes that are *lazy* (paged out; their block bytes live in
    /// the buffer pool or on disk, not in the tree).
    pub lazy_nodes: usize,
    /// Total heap bytes of the *resident* encoded blocks.
    pub block_bytes: usize,
    /// Number of entries stored.
    pub entries: usize,
    /// Estimated total heap bytes (nodes + refcounts + resident
    /// blocks). Lazy leaves count only their node shell — their pages
    /// are accounted by the pool that owns them.
    pub total_bytes: usize,
}

impl SpaceStats {
    fn add(self, other: SpaceStats) -> SpaceStats {
        SpaceStats {
            regular_nodes: self.regular_nodes + other.regular_nodes,
            flat_nodes: self.flat_nodes + other.flat_nodes,
            lazy_nodes: self.lazy_nodes + other.lazy_nodes,
            block_bytes: self.block_bytes + other.block_bytes,
            entries: self.entries + other.entries,
            total_bytes: self.total_bytes + other.total_bytes,
        }
    }
}

/// `Arc` control-block overhead: strong + weak counters.
const ARC_OVERHEAD: usize = 2 * std::mem::size_of::<usize>();

/// Walks a tree and accounts for all heap memory it owns.
pub(crate) fn space<E, A, C>(t: &Tree<E, A, C>) -> SpaceStats
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let node_bytes = std::mem::size_of::<Node<E, A, C>>() + ARC_OVERHEAD;
    match t {
        None => SpaceStats::default(),
        Some(n) => match &**n {
            Node::Regular {
                left, right, size, ..
            } => {
                let here = SpaceStats {
                    regular_nodes: 1,
                    entries: 1,
                    total_bytes: node_bytes,
                    ..SpaceStats::default()
                };
                let _ = size;
                here.add(space(left)).add(space(right))
            }
            Node::Flat { block, .. } => SpaceStats {
                flat_nodes: 1,
                block_bytes: C::heap_bytes(block),
                entries: C::len(block),
                total_bytes: node_bytes + C::heap_bytes(block),
                ..SpaceStats::default()
            },
            Node::Lazy { len, .. } => SpaceStats {
                flat_nodes: 1,
                lazy_nodes: 1,
                entries: *len,
                total_bytes: node_bytes,
                ..SpaceStats::default()
            },
        },
    }
}
