//! Point operations, range queries, and bulk functional operations
//! (Figs. 6 and 8 of the paper, plus the augmented-query primitives the
//! applications in Section 9 are built on).
//!
//! Flat-node base cases go through the codec's zero-allocation access
//! layer ([`codecs::Codec::search_by`] / [`codecs::Codec::get`] /
//! cursors): point queries and range walks never materialize a block,
//! and the structural base cases that do need every entry decode into a
//! reused [`crate::scratch`] buffer instead of a fresh `Vec` per node.

use codecs::{BlockCursor, Codec};

use crate::aug::Augmentation;
use crate::base::{rebuild_leaf, to_vec};
use crate::entry::{Element, Entry};
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

/// Smallest entry with key `>= k` (the paper's Next, inclusive flavour).
pub(crate) fn succ<E, A, C>(t: &Tree<E, A, C>, k: &E::Key) -> Option<E>
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
                if entry.key() >= k {
                    best = Some(entry.clone());
                    cur = left;
                } else {
                    cur = right;
                }
            }
            leaf => {
                stats::count_cursor_op();
                let block = leaf.leaf_block();
                return match C::search_by(&block, |e| e.key().cmp(k)) {
                    Ok((_, e)) => Some(e),
                    Err(i) if i < C::len(&block) => {
                        stats::count_cursor_op();
                        Some(C::get(&block, i))
                    }
                    Err(_) => best,
                };
            }
        }
    }
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

/// One piece of a canonical range decomposition: either the aggregate of
/// a maximal subtree fully inside the range, or a boundary entry.
pub(crate) enum Part<'a, E, AV> {
    /// Aggregate of a subtree entirely contained in the range.
    Aug(&'a AV),
    /// A single boundary entry inside the range.
    Entry(&'a E),
}

/// The callback a range decomposition feeds its [`Part`]s to.
pub(crate) type PartSink<'f, E, AV> = dyn for<'a> FnMut(Part<'a, E, AV>) + 'f;

/// Canonical range decomposition of `[lo, hi]` (inclusive): calls `f`
/// with the aggregate of each maximal subtree entirely inside the range
/// and with each of the `O(log n + B)` boundary entries.
///
/// This powers `aug_range` and the 2D range tree's count query without
/// materializing the range or combining heavyweight augmented values.
pub(crate) fn range_decompose<E, A, C>(
    t: &Tree<E, A, C>,
    lo: &E::Key,
    hi: &E::Key,
    f: &mut PartSink<'_, E, A::Value>,
) where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    // Invariant: only called on subtrees that may intersect [lo, hi].
    let Some(node) = t else { return };
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            let k = entry.key();
            if k < lo {
                range_decompose(right, lo, hi, f);
            } else if k > hi {
                range_decompose(left, lo, hi, f);
            } else {
                descend_ge(left, lo, f);
                f(Part::Entry(entry));
                descend_le(right, hi, f);
            }
        }
        leaf => {
            // Whole-block containment check via the first/last entries
            // (both O(RESTART_INTERVAL) point gets, no decode).
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            let first = C::get(&block, 0);
            let last = C::get(&block, C::len(&block) - 1);
            if first.key() >= lo && last.key() <= hi {
                f(Part::Aug(leaf.aug()));
            } else {
                // Seek to the first in-range entry, stream until past hi.
                let start = match C::search_by(&block, |e| e.key().cmp(lo)) {
                    Ok((i, _)) | Err(i) => i,
                };
                let mut cur = C::cursor_at(&block, start);
                while let Some(e) = cur.peek() {
                    if e.key() > hi {
                        break;
                    }
                    f(Part::Entry(e));
                    cur.advance();
                }
            }
        }
    }
}

/// Contributes everything with key >= `lo` from `t`.
fn descend_ge<E, A, C>(t: &Tree<E, A, C>, lo: &E::Key, f: &mut PartSink<'_, E, A::Value>)
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else { return };
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            if entry.key() >= lo {
                f(Part::Entry(entry));
                on_aug_whole(right, f);
                descend_ge(left, lo, f);
            } else {
                descend_ge(right, lo, f);
            }
        }
        leaf => {
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            if C::get(&block, 0).key() >= lo {
                f(Part::Aug(leaf.aug()));
            } else {
                let start = match C::search_by(&block, |e| e.key().cmp(lo)) {
                    Ok((i, _)) | Err(i) => i,
                };
                let mut cur = C::cursor_at(&block, start);
                while let Some(e) = cur.peek() {
                    f(Part::Entry(e));
                    cur.advance();
                }
            }
        }
    }
}

/// Contributes everything with key <= `hi` from `t`.
fn descend_le<E, A, C>(t: &Tree<E, A, C>, hi: &E::Key, f: &mut PartSink<'_, E, A::Value>)
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else { return };
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            if entry.key() <= hi {
                on_aug_whole(left, f);
                f(Part::Entry(entry));
                descend_le(right, hi, f);
            } else {
                descend_le(left, hi, f);
            }
        }
        leaf => {
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            if C::get(&block, C::len(&block) - 1).key() <= hi {
                f(Part::Aug(leaf.aug()));
            } else {
                let mut cur = C::cursor(&block);
                while let Some(e) = cur.peek() {
                    if e.key() > hi {
                        break;
                    }
                    f(Part::Entry(e));
                    cur.advance();
                }
            }
        }
    }
}

fn on_aug_whole<E, A, C>(t: &Tree<E, A, C>, f: &mut PartSink<'_, E, A::Value>)
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    if let Some(node) = t {
        f(Part::Aug(node.aug()));
    }
}

/// Aggregate of all entries with keys in `[lo, hi]` (the paper's
/// `aug_range`). `O(log n + B)` work.
pub(crate) fn aug_range<E, A, C>(t: &Tree<E, A, C>, lo: &E::Key, hi: &E::Key) -> A::Value
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut acc = A::identity();
    range_decompose(t, lo, hi, &mut |part| {
        acc = match part {
            Part::Aug(v) => A::combine(&acc, v),
            Part::Entry(e) => A::combine(&acc, &A::from_entry(e)),
        };
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

/// Extracts the entries in `[lo, hi]` as a vector (report query).
pub(crate) fn range_entries<E, A, C>(t: &Tree<E, A, C>, lo: &E::Key, hi: &E::Key) -> Vec<E>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut out = Vec::new();
    collect_range(t, lo, hi, &mut out);
    out
}

fn collect_range<E, A, C>(t: &Tree<E, A, C>, lo: &E::Key, hi: &E::Key, out: &mut Vec<E>)
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else { return };
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            let k = entry.key();
            if k >= lo {
                collect_range(left, lo, hi, out);
            }
            if k >= lo && k <= hi {
                out.push(entry.clone());
            }
            if k <= hi {
                collect_range(right, lo, hi, out);
            }
        }
        leaf => {
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            let from = match C::search_by(&block, |e| e.key().cmp(lo)) {
                Ok((i, _)) | Err(i) => i,
            };
            let mut cur = C::cursor_at(&block, from);
            while let Some(e) = cur.peek() {
                if e.key() > hi {
                    break;
                }
                out.push(e.clone());
                cur.advance();
            }
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
