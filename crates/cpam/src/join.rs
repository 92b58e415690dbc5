//! The `join`/`expose` layer (Fig. 5 of the paper).
//!
//! Everything above this module — union, filter, maps, sequences — is
//! written against `join`, `join2`, `split` and `expose` exactly as in
//! PAM; blocked leaves and compression are handled *only* here, which is
//! the paper's central implementation claim (Section 5).
//!
//! # Ownership threading
//!
//! Every primitive here consumes its tree arguments. Where the old
//! code borrowed a node and cloned its children (bumping refcounts down
//! the whole spine, which forces the copying path everywhere below), the
//! consuming code *moves* children out of uniquely-owned nodes with
//! [`expose_owned`] and hands the emptied node — its **husk** — to the
//! rebuild site, where [`crate::node::reuse_regular`] /
//! [`crate::node::reuse_flat`] overwrite it in place. A shared node
//! (refcount > 1: some snapshot still reaches it) takes the classic
//! path-copying route instead, so persistence semantics are untouched —
//! the refcount check *is* the safety proof, per node, at the moment of
//! the rebuild.

use codecs::Codec;

use crate::aug::Augmentation;
use crate::base::{build_regular, flatten_into, from_sorted, rebuild_leaf};
use crate::entry::{Element, Entry};
use crate::node::{
    decode_flat_into, make_flat, reuse_flat, reuse_regular, size, weight, Node, Tree,
};
use crate::scratch::with_scratch;

/// Weight-balance factor α = 0.29 (paper default; α ≤ 1 − 1/√2).
const ALPHA_NUM: usize = 29;
const ALPHA_DEN: usize = 100;

/// True if a node with child weights `(wl, wr)` satisfies BB[α].
#[inline]
pub(crate) fn balanced(wl: usize, wr: usize) -> bool {
    let total = wl + wr;
    wl * ALPHA_DEN >= ALPHA_NUM * total && wr * ALPHA_DEN >= ALPHA_NUM * total
}

/// True if the left side is too heavy to link directly.
#[inline]
fn left_heavy(wl: usize, wr: usize) -> bool {
    wl * ALPHA_DEN > (ALPHA_DEN - ALPHA_NUM) * (wl + wr)
}

/// The `node()` smart constructor (Fig. 5): links `l`, `e`, `r` and
/// enforces the blocked-leaves invariant:
///
/// * total > 4b, or `l` and `r` are both leaves of `b..=2b` entries —
///   plain regular node. Two valid leaves are BB[α]-balanced whatever
///   their fill ((b+1)/(3b+2) ≥ 0.29), so the pair is already what the
///   redistribution below would produce: linking it leaves the sibling
///   of a rewritten leaf untouched — not decoded, not re-encoded, a lazy
///   one not even loaded (`size()` reads no page) — and shared with the
///   previous version;
/// * total ≤ 2b — fold everything into one flat node;
/// * otherwise (an undersized leaf, a regular or empty child) —
///   redistribute into two half-size flat children.
///
/// `src` is the husk of the node this rebuild replaces (or `None` when
/// the caller does not own one); a uniquely-owned husk is overwritten in
/// place instead of allocating.
pub(crate) fn node_ctor<E, A, C>(
    b: usize,
    src: Tree<E, A, C>,
    l: Tree<E, A, C>,
    e: E,
    r: Tree<E, A, C>,
) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let valid_leaf = |t: &Tree<E, A, C>| {
        t.as_ref()
            .is_some_and(|n| n.is_flat() && (b..=2 * b).contains(&n.size()))
    };
    let total = size(&l) + size(&r) + 1;
    if total > 4 * b || (valid_leaf(&l) && valid_leaf(&r)) {
        return reuse_regular(src, l, e, r);
    }
    // Folding path: flatten into a reused scratch buffer (sized once
    // from the subtree sizes), then re-encode.
    with_scratch(total, |entries| {
        flatten_into(&l, &e, &r, entries);
        drop((l, r));
        if total <= 2 * b {
            return reuse_flat(src, entries);
        }
        // 2b < total <= 4b: both halves land in [b, 2b].
        let mid = total / 2;
        reuse_regular(
            src,
            make_flat(&entries[..mid]),
            entries[mid].clone(),
            make_flat(&entries[mid + 1..]),
        )
    })
}

/// `expose` (Fig. 5): splits a nonempty tree into `(left, entry, right)`.
///
/// Regular nodes hand back their fields; flat nodes are *unfolded* into a
/// perfectly balanced expanded form first (`O(B)` work).
pub(crate) fn expose<E, A, C>(t: &Node<E, A, C>) -> (Tree<E, A, C>, E, Tree<E, A, C>)
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    match t {
        Node::Regular {
            left, entry, right, ..
        } => (left.clone(), entry.clone(), right.clone()),
        _ => with_scratch(t.size(), |entries| {
            decode_flat_into(t, entries);
            let mid = entries.len() / 2;
            let l = build_regular::<E, A, C>(&entries[..mid]);
            let r = build_regular::<E, A, C>(&entries[mid + 1..]);
            (l, entries[mid].clone(), r)
        }),
    }
}

/// What [`expose_owned`] yields: `(left, entry, right, husk)`.
pub(crate) type Exposed<E, A, C> = (Tree<E, A, C>, E, Tree<E, A, C>, Tree<E, A, C>);

/// What [`split`] yields: `(before, entry at the key, after)`.
pub(crate) type Split<E, A, C> = (Tree<E, A, C>, Option<E>, Tree<E, A, C>);

/// Consuming `expose`: `(left, entry, right, husk)`.
///
/// On a uniquely-owned regular node the children are *moved* out (no
/// refcount traffic, so ownership stays provable all the way down) and
/// the emptied node is returned as the `husk` for the rebuild site to
/// reuse. A shared node falls back to the cloning [`expose`] with no
/// husk; a uniquely-owned flat node unfolds but still donates its
/// allocation as the husk.
pub(crate) fn expose_owned<E, A, C>(t: Tree<E, A, C>) -> Exposed<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut arc = t.expect("expose_owned on empty tree");
    if let Some(Node::Regular {
        left, entry, right, ..
    }) = std::sync::Arc::get_mut(&mut arc)
    {
        let (l, e, r) = (left.take(), entry.clone(), right.take());
        return (l, e, r, Some(arc));
    }
    let unique = std::sync::Arc::get_mut(&mut arc).is_some();
    let (l, e, r) = expose(&arc);
    (l, e, r, unique.then_some(arc))
}

/// `join` (Fig. 5): concatenates `l ++ [e] ++ r` into a balanced
/// PaC-tree, reusing the husk `src` for the linking node when owned.
///
/// `O(B + log(n/m))` work where `n`, `m` are the larger/smaller sizes
/// (Theorem 6.1).
pub(crate) fn join<E, A, C>(
    b: usize,
    src: Tree<E, A, C>,
    l: Tree<E, A, C>,
    e: E,
    r: Tree<E, A, C>,
) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let (wl, wr) = (weight(&l), weight(&r));
    if left_heavy(wl, wr) {
        join_right(b, src, l, e, r)
    } else if left_heavy(wr, wl) {
        join_left(b, src, l, e, r)
    } else {
        node_ctor(b, src, l, e, r)
    }
}

fn join_right<E, A, C>(
    b: usize,
    spare: Tree<E, A, C>,
    tl: Tree<E, A, C>,
    e: E,
    tr: Tree<E, A, C>,
) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    if balanced(weight(&tl), weight(&tr)) {
        return node_ctor(b, spare, tl, e, tr);
    }
    // tl is strictly heavier, hence nonempty.
    let (l, k2, c, husk) = expose_owned(tl);
    // The spare travels down to where the new linking node is built;
    // each rebuilt node on the way back up pairs with the husk of the
    // node it replaces.
    let t2 = join_right(b, spare, c, e, tr);
    if balanced(weight(&l), weight(&t2)) {
        return node_ctor(b, husk, l, k2, t2);
    }
    let (l1, k1, r1, husk2) = expose_owned(t2);
    if balanced(weight(&l), weight(&l1)) && balanced(weight(&l) + weight(&l1), weight(&r1)) {
        // Single left rotation.
        node_ctor(b, husk2, node_ctor(b, husk, l, k2, l1), k1, r1)
    } else {
        // Double rotation: rotate `l1` right, then left.
        let (l2, k3, r2, husk3) = expose_owned(l1);
        node_ctor(
            b,
            husk3,
            node_ctor(b, husk, l, k2, l2),
            k3,
            node_ctor(b, husk2, r2, k1, r1),
        )
    }
}

fn join_left<E, A, C>(
    b: usize,
    spare: Tree<E, A, C>,
    tl: Tree<E, A, C>,
    e: E,
    tr: Tree<E, A, C>,
) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    if balanced(weight(&tl), weight(&tr)) {
        return node_ctor(b, spare, tl, e, tr);
    }
    let (c, k2, r, husk) = expose_owned(tr);
    let t2 = join_left(b, spare, tl, e, c);
    if balanced(weight(&t2), weight(&r)) {
        return node_ctor(b, husk, t2, k2, r);
    }
    let (l1, k1, r1, husk2) = expose_owned(t2);
    if balanced(weight(&r1), weight(&r)) && balanced(weight(&r1) + weight(&r), weight(&l1)) {
        // Single right rotation.
        node_ctor(b, husk2, l1, k1, node_ctor(b, husk, r1, k2, r))
    } else {
        // Double rotation: rotate `r1` left, then right.
        let (l2, k3, r2, husk3) = expose_owned(r1);
        node_ctor(
            b,
            husk3,
            node_ctor(b, husk2, l1, k1, l2),
            k3,
            node_ctor(b, husk, r2, k2, r),
        )
    }
}

/// Removes and returns the last entry (`splitLast` in Fig. 10).
pub(crate) fn split_last<E, A, C>(b: usize, t: Tree<E, A, C>) -> (Tree<E, A, C>, E)
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let node = t.expect("split_last on empty tree");
    if node.is_flat() {
        return with_scratch(node.size(), |entries: &mut Vec<E>| {
            decode_flat_into(&node, entries);
            let last = entries.pop().expect("flat node is never empty");
            (rebuild_leaf(b, Some(node), entries), last)
        });
    }
    let (left, entry, right, husk) = expose_owned(Some(node));
    if right.is_none() {
        (left, entry)
    } else {
        let (r2, last) = split_last(b, right);
        (join(b, husk, left, entry, r2), last)
    }
}

/// Concatenates two trees with no middle entry (`join2`, Fig. 10),
/// reusing the husk `spare` when owned. An empty side returns the other
/// side untouched: nothing is split off, rejoined or rebuilt.
pub(crate) fn join2<E, A, C>(
    b: usize,
    spare: Tree<E, A, C>,
    l: Tree<E, A, C>,
    r: Tree<E, A, C>,
) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    match (l, r) {
        (None, t) | (t, None) => t,
        (l, r) => {
            let (l2, last) = split_last(b, l);
            join(b, spare, l2, last, r)
        }
    }
}

/// `split` (Fig. 5): partitions `t` by key `k` into entries strictly
/// before, the entry with key `k` (if present), and entries strictly
/// after. `O(B + log(|T|/B))` work on complex trees (Theorem 6.2).
pub(crate) fn split<E, A, C>(b: usize, t: Tree<E, A, C>, k: &E::Key) -> Split<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else {
        return (None, None, None);
    };
    if node.is_flat() {
        // Efficient base case: decode into scratch, binary-search,
        // and rebuild both sides as packed trees.
        return with_scratch(node.size(), |entries: &mut Vec<E>| {
            decode_flat_into(&node, entries);
            match entries.binary_search_by(|e| e.key().cmp(k)) {
                Ok(i) => (
                    from_sorted(b, &entries[..i]),
                    Some(entries[i].clone()),
                    from_sorted(b, &entries[i + 1..]),
                ),
                Err(i) => (
                    from_sorted(b, &entries[..i]),
                    None,
                    from_sorted(b, &entries[i..]),
                ),
            }
        });
    }
    let (left, entry, right, husk) = expose_owned(Some(node));
    match k.cmp(entry.key()) {
        std::cmp::Ordering::Equal => (left, Some(entry), right),
        std::cmp::Ordering::Less => {
            let (ll, m, lr) = split(b, left, k);
            (ll, m, join(b, husk, lr, entry, right))
        }
        std::cmp::Ordering::Greater => {
            let (rl, m, rr) = split(b, right, k);
            (join(b, husk, left, entry, rl), m, rr)
        }
    }
}

/// Splits by position: left tree gets the first `i` entries.
pub(crate) fn split_at<E, A, C>(
    b: usize,
    t: Tree<E, A, C>,
    i: usize,
) -> (Tree<E, A, C>, Tree<E, A, C>)
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else {
        return (None, None);
    };
    if i == 0 {
        return (None, Some(node));
    }
    if i >= node.size() {
        return (Some(node), None);
    }
    if node.is_flat() {
        return with_scratch(node.size(), |entries: &mut Vec<E>| {
            decode_flat_into(&node, entries);
            (from_sorted(b, &entries[..i]), from_sorted(b, &entries[i..]))
        });
    }
    let (left, entry, right, husk) = expose_owned(Some(node));
    let lsize = size(&left);
    if i <= lsize {
        let (a, c) = split_at(b, left, i);
        (a, join(b, husk, c, entry, right))
    } else if i == lsize + 1 {
        (join(b, husk, left, entry, None), right)
    } else {
        let (a, c) = split_at(b, right, i - lsize - 1);
        (join(b, husk, left, entry, a), c)
    }
}
