//! Point operations, range queries, and bulk functional operations
//! (Figs. 6 and 8 of the paper, plus the augmented-query primitives the
//! applications in Section 9 are built on).
//!
//! Flat-node base cases go through the codec's zero-allocation access
//! layer ([`codecs::Codec::search_by`] / [`codecs::Codec::get`] /
//! cursors): point queries and range walks never materialize a block,
//! and the structural base cases that do need every entry decode into a
//! reused [`crate::scratch`] buffer instead of a fresh `Vec` per node.

use std::ops::ControlFlow;

use codecs::{BlockCursor, Codec};

use crate::aug::Augmentation;
use crate::base::{rebuild_leaf, to_vec};
use crate::entry::{Element, Entry};
use crate::iter::fold_tree;
use crate::join::{expose_owned, join, join2, split};
use crate::node::{size, Node, Tree};
use crate::scratch::with_scratch;
use crate::stats;

use crate::grain::{par_grain, walk_grain};

/// Looks up the entry with key `k`. `O(log n + B)` work, allocation-free
/// (the flat base case is a sampled in-block search, not a decode).
pub(crate) fn find<E, A, C>(t: &Tree<E, A, C>, k: &E::Key) -> Option<E>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut cur = t;
    loop {
        let node = cur.as_ref()?;
        match &**node {
            Node::Regular {
                left, entry, right, ..
            } => match k.cmp(entry.key()) {
                std::cmp::Ordering::Equal => return Some(entry.clone()),
                std::cmp::Ordering::Less => cur = left,
                std::cmp::Ordering::Greater => cur = right,
            },
            leaf => {
                stats::count_cursor_op();
                let block = leaf.leaf_block();
                return C::search_by(&block, |e| e.key().cmp(k))
                    .ok()
                    .map(|(_, e)| e);
            }
        }
    }
}

/// Number of entries with keys strictly less than `k` (the paper's Rank).
pub(crate) fn rank<E, A, C>(t: &Tree<E, A, C>, k: &E::Key) -> usize
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut acc = 0;
    let mut cur = t;
    loop {
        let Some(node) = cur else { return acc };
        match &**node {
            Node::Regular {
                left, entry, right, ..
            } => match k.cmp(entry.key()) {
                std::cmp::Ordering::Less | std::cmp::Ordering::Equal => cur = left,
                std::cmp::Ordering::Greater => {
                    acc += size(left) + 1;
                    cur = right;
                }
            },
            leaf => {
                stats::count_cursor_op();
                // Both outcomes of the sampled search give the number of
                // keys strictly below `k` (keys are unique).
                let block = leaf.leaf_block();
                return acc
                    + match C::search_by(&block, |e| e.key().cmp(k)) {
                        Ok((i, _)) | Err(i) => i,
                    };
            }
        }
    }
}

/// The entry at in-order position `i` (the paper's `n-th`/Select).
/// `O(log n + B)` work — contrast with `O(1)` array indexing in Fig. 2.
pub(crate) fn select<E, A, C>(t: &Tree<E, A, C>, i: usize) -> Option<E>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut cur = t;
    let mut i = i;
    loop {
        let node = cur.as_ref()?;
        if i >= node.size() {
            return None;
        }
        match &**node {
            Node::Regular {
                left, entry, right, ..
            } => {
                let lsize = size(left);
                match i.cmp(&lsize) {
                    std::cmp::Ordering::Less => cur = left,
                    std::cmp::Ordering::Equal => return Some(entry.clone()),
                    std::cmp::Ordering::Greater => {
                        i -= lsize + 1;
                        cur = right;
                    }
                }
            }
            leaf => {
                stats::count_cursor_op();
                let block = leaf.leaf_block();
                return Some(C::get(&block, i));
            }
        }
    }
}

/// Smallest entry with key `>= k` (the paper's Next, inclusive flavour):
/// the first piece of the walk from `k`, which is always an entry (a
/// subtree is whole only once an entry before it was emitted).
pub(crate) fn succ<E, A, C>(t: &Tree<E, A, C>, k: &E::Key) -> Option<E>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut out = None;
    let _ = walk(t, Some(k), None, &mut |piece| {
        match piece {
            Piece::Entry(e) => out = Some(e.clone()),
            Piece::Whole(_) => unreachable!("a lower-bounded walk starts with an entry"),
        }
        ControlFlow::Break(())
    });
    out
}

/// Largest entry with key `<= k` (the paper's Previous, inclusive).
pub(crate) fn pred<E, A, C>(t: &Tree<E, A, C>, k: &E::Key) -> Option<E>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut best: Option<E> = None;
    let mut cur = t;
    loop {
        let Some(node) = cur else { return best };
        match &**node {
            Node::Regular {
                left, entry, right, ..
            } => {
                if entry.key() <= k {
                    best = Some(entry.clone());
                    cur = right;
                } else {
                    cur = left;
                }
            }
            leaf => {
                stats::count_cursor_op();
                let block = leaf.leaf_block();
                return match C::search_by(&block, |e| e.key().cmp(k)) {
                    Ok((_, e)) => Some(e),
                    Err(i) if i > 0 => {
                        stats::count_cursor_op();
                        Some(C::get(&block, i - 1))
                    }
                    Err(_) => best,
                };
            }
        }
    }
}

/// The subtree of entries with keys in `[lo, hi]` (the paper's Range);
/// empty when `hi < lo`. `O(log n + B)` work.
pub(crate) fn range<E, A, C>(b: usize, t: Tree<E, A, C>, lo: &E::Key, hi: &E::Key) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    // The two splits below put the entry *at* `lo` back even when `hi`
    // lies before it, so an inverted interval is answered here.
    if hi < lo {
        return None;
    }
    let (_, m_lo, ge_lo) = split(b, t, lo);
    let (mid, m_hi, _) = split(b, ge_lo, hi);
    let mut out = mid;
    if let Some(e) = m_hi {
        out = join(b, None, out, e, None);
    }
    if let Some(e) = m_lo {
        out = join(b, None, None, e, out);
    }
    out
}

/// One piece of a bounded in-order walk (see [`walk`]).
pub(crate) enum Piece<'a, E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    /// A subtree lying wholly inside the bounds: every entry under it.
    Whole(&'a Node<E, A, C>),
    /// One entry inside the bounds.
    Entry(&'a E),
}

/// The one bounded descent every range read is built on: feeds `f`, in
/// key order, the entries of `t` with keys in `[lo, hi]` (`None` is an
/// open bound), and stops as soon as `f` breaks.
///
/// A subtree reached with both bounds open is one [`Piece::Whole`]; every
/// other entry is a [`Piece::Entry`] of its own — the pivots on the two
/// boundary paths and the in-range entries of the (at most two) leaves
/// where the paths end, which are positioned with `C::search_by` and read
/// with a cursor. So a range is `O(log n)` pieces plus `O(B)` entries,
/// and a walk that breaks after `k` entries has touched `O(log n + B + k)`
/// of them. Returns `Break` iff `f` did.
pub(crate) fn walk<E, A, C, F>(
    t: &Tree<E, A, C>,
    lo: Option<&E::Key>,
    hi: Option<&E::Key>,
    f: &mut F,
) -> ControlFlow<()>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: FnMut(Piece<'_, E, A, C>) -> ControlFlow<()>,
{
    let Some(node) = t else {
        return ControlFlow::Continue(());
    };
    if lo.is_none() && hi.is_none() {
        return f(Piece::Whole(node));
    }
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            let k = entry.key();
            if lo.is_some_and(|lo| k < lo) {
                return walk(right, lo, hi, f);
            }
            if hi.is_some_and(|hi| k > hi) {
                return walk(left, lo, hi, f);
            }
            // `k` is inside: everything left of it is below `hi`, and
            // everything right of it above `lo`.
            walk(left, lo, None, f)?;
            f(Piece::Entry(entry))?;
            walk(right, None, hi, f)
        }
        leaf => {
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            let from = lo.map_or(0, |lo| match C::search_by(&block, |e| e.key().cmp(lo)) {
                Ok((i, _)) | Err(i) => i,
            });
            let mut cur = C::cursor_at(&block, from);
            while let Some(e) = cur.peek() {
                if hi.is_some_and(|hi| e.key() > hi) {
                    break;
                }
                f(Piece::Entry(e))?;
                cur.advance();
            }
            ControlFlow::Continue(())
        }
    }
}

/// Feeds the entries with keys in `[lo, hi]` to `f` in key order until
/// it breaks: the [`walk`] with its whole subtrees expanded by
/// [`fold_tree`]. `O(log n + B + k)` work for `k` entries fed.
pub(crate) fn range_for_each<E, A, C>(
    t: &Tree<E, A, C>,
    lo: &E::Key,
    hi: &E::Key,
    f: &mut impl FnMut(&E) -> ControlFlow<()>,
) -> ControlFlow<()>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    walk(t, Some(lo), Some(hi), &mut |piece| match piece {
        Piece::Whole(node) => fold_tree(node, f),
        Piece::Entry(e) => f(e),
    })
}

/// Aggregate of all entries with keys in `[lo, hi]` (the paper's
/// `aug_range`), combined in key order. `O(log n + B)` work.
pub(crate) fn aug_range<E, A, C>(t: &Tree<E, A, C>, lo: &E::Key, hi: &E::Key) -> A::Value
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut acc = A::identity();
    let _ = walk(t, Some(lo), Some(hi), &mut |piece| {
        acc = match piece {
            Piece::Whole(node) => A::combine(&acc, node.aug()),
            Piece::Entry(e) => A::combine(&acc, &A::from_entry(e)),
        };
        ControlFlow::Continue(())
    });
    acc
}

/// Augmentation-pruned search: collects entries with key `<= kmax`
/// satisfying `pred`, skipping any subtree where `enter(aug)` is false.
///
/// With the max-right-endpoint augmentation this is exactly the interval
/// tree's stabbing query: `O(k log n)` for `k` reported intervals.
pub(crate) fn prune_search<E, A, C>(
    t: &Tree<E, A, C>,
    kmax: &E::Key,
    enter: &dyn Fn(&A::Value) -> bool,
    pred: &dyn Fn(&E) -> bool,
    out: &mut Vec<E>,
) where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else { return };
    if !enter(node.aug()) {
        return;
    }
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            prune_search(left, kmax, enter, pred, out);
            if entry.key() <= kmax {
                if pred(entry) {
                    out.push(entry.clone());
                }
                prune_search(right, kmax, enter, pred, out);
            }
        }
        leaf => {
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            let mut cur = C::cursor(&block);
            while let Some(e) = cur.peek() {
                if e.key() > kmax {
                    break;
                }
                if pred(e) {
                    out.push(e.clone());
                }
                cur.advance();
            }
        }
    }
}

/// Keeps entries satisfying `pred` (Fig. 6's `filter`).
/// `O(n)` work, `O(log^2 n)` span. Consumes the tree: surviving spans of
/// a uniquely-owned tree are rebuilt in place.
pub(crate) fn filter<E, A, C, F>(b: usize, t: Tree<E, A, C>, pred: &F) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E) -> bool + Sync,
{
    let grain = par_grain(b, crate::node::size(&t));
    filter_rec(b, grain, t, pred)
}

fn filter_rec<E, A, C, F>(b: usize, grain: usize, t: Tree<E, A, C>, pred: &F) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E) -> bool + Sync,
{
    let node = t?;
    if node.is_flat() {
        stats::count_cursor_op();
        return with_scratch(node.size(), |kept: &mut Vec<E>| {
            {
                let block = node.leaf_block();
                C::for_each(&block, &mut |e| {
                    if pred(e) {
                        kept.push(e.clone());
                    }
                });
            }
            rebuild_leaf(b, Some(node), kept)
        });
    }
    let sz = node.size();
    let (left, entry, right, husk) = expose_owned(Some(node));
    let (tl, tr) = if sz > grain {
        parlay::join(
            || filter_rec(b, grain, left, pred),
            || filter_rec(b, grain, right, pred),
        )
    } else {
        (
            filter_rec(b, grain, left, pred),
            filter_rec(b, grain, right, pred),
        )
    };
    if pred(&entry) {
        join(b, husk, tl, entry, tr)
    } else {
        join2(b, husk, tl, tr)
    }
}

/// Structure-preserving entry map: same shape (and therefore same cost
/// profile), entries transformed by `f`.
///
/// For keyed trees `f` must preserve the relative key order (the typical
/// use is mapping values only).
pub(crate) fn map_entries<E, A, C, E2, A2, C2, F>(t: &Tree<E, A, C>, f: &F) -> Tree<E2, A2, C2>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    E2: Element,
    A2: Augmentation<E2>,
    C2: Codec<E2>,
    F: Fn(&E) -> E2 + Sync,
{
    let grain = walk_grain(crate::node::size(t));
    map_entries_rec(grain, t, f)
}

fn map_entries_rec<E, A, C, E2, A2, C2, F>(
    grain: usize,
    t: &Tree<E, A, C>,
    f: &F,
) -> Tree<E2, A2, C2>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    E2: Element,
    A2: Augmentation<E2>,
    C2: Codec<E2>,
    F: Fn(&E) -> E2 + Sync,
{
    let Some(node) = t else { return None };
    match &**node {
        Node::Regular {
            left,
            entry,
            right,
            size: sz,
            ..
        } => {
            let (tl, tr) = if *sz > grain {
                parlay::join(
                    || map_entries_rec(grain, left, f),
                    || map_entries_rec(grain, right, f),
                )
            } else {
                (
                    map_entries_rec(grain, left, f),
                    map_entries_rec(grain, right, f),
                )
            };
            crate::node::make_regular(tl, f(entry), tr)
        }
        leaf => {
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            with_scratch(node.size(), |mapped: &mut Vec<E2>| {
                C::for_each(&block, &mut |e| mapped.push(f(e)));
                crate::node::make_flat(mapped)
            })
        }
    }
}

/// Parallel map-reduce over all entries (Fig. 8's `reduce`).
/// `O(n)` work, `O(log n)` span.
pub(crate) fn map_reduce<E, A, C, R, M, Op>(t: &Tree<E, A, C>, m: &M, op: &Op, id: R) -> R
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    R: Send + Sync + Clone,
    M: Fn(&E) -> R + Sync,
    Op: Fn(R, R) -> R + Sync,
{
    let grain = walk_grain(crate::node::size(t));
    map_reduce_rec(grain, t, m, op, id)
}

fn map_reduce_rec<E, A, C, R, M, Op>(grain: usize, t: &Tree<E, A, C>, m: &M, op: &Op, id: R) -> R
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    R: Send + Sync + Clone,
    M: Fn(&E) -> R + Sync,
    Op: Fn(R, R) -> R + Sync,
{
    let Some(node) = t else { return id };
    match &**node {
        Node::Regular {
            left,
            entry,
            right,
            size: sz,
            ..
        } => {
            let (a, c) = if *sz > grain {
                parlay::join(
                    || map_reduce_rec(grain, left, m, op, id.clone()),
                    || map_reduce_rec(grain, right, m, op, id.clone()),
                )
            } else {
                (
                    map_reduce_rec(grain, left, m, op, id.clone()),
                    map_reduce_rec(grain, right, m, op, id.clone()),
                )
            };
            op(op(a, m(entry)), c)
        }
        leaf => {
            let block = leaf.leaf_block();
            let mut acc = id;
            C::for_each(&block, &mut |e| {
                acc = op(acc.clone(), m(e));
            });
            acc
        }
    }
}

/// Folds over every stored augmented value (one per node, regular or
/// flat) — used for space accounting of tree-valued augmentations.
pub(crate) fn fold_augs<E, A, C, R>(
    t: &Tree<E, A, C>,
    acc: R,
    f: &mut dyn FnMut(R, &A::Value) -> R,
) -> R
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else { return acc };
    match &**node {
        Node::Regular {
            left, right, aug, ..
        } => {
            let acc = f(acc, aug);
            let acc = fold_augs(left, acc, f);
            fold_augs(right, acc, f)
        }
        leaf => f(acc, leaf.aug()),
    }
}

/// First entry (in order), if any.
pub(crate) fn first<E, A, C>(t: &Tree<E, A, C>) -> Option<E>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    select(t, 0)
}

/// Last entry (in order), if any.
pub(crate) fn last<E, A, C>(t: &Tree<E, A, C>) -> Option<E>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let n = size(t);
    if n == 0 {
        None
    } else {
        select(t, n - 1)
    }
}

/// All entries as a vector (delegates to the parallel flattener).
pub(crate) fn entries_vec<E, A, C>(t: &Tree<E, A, C>) -> Vec<E>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    to_vec(t)
}
