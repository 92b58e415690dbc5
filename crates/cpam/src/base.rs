//! Construction and flattening: `from_sorted`, `unfold`, `to_vec`.
//!
//! These are the paper's `fold`/`unfold` primitives (Fig. 5): a tree can
//! be flattened into an entry array and rebuilt from one, and a flat node
//! can be expanded into a perfectly balanced all-regular subtree.
//!
//! It is also where an update finally meets a leaf: [`merge_sorted`]
//! applies a key-sorted batch of puts and removals to one leaf (or one
//! small subtree), and is the one routine through which every update —
//! point or batch, insert or remove — rewrites blocks.

use std::ops::ControlFlow;

use codecs::Codec;
use parlay::SendPtr;

use crate::aug::Augmentation;
use crate::entry::{Edit, Element, Entry};
use crate::iter::fold_tree;
use crate::node::{
    make_flat, make_regular, reuse_block, reuse_flat, reuse_regular, size, Node, Tree,
};
use crate::scratch::Scratch;
use crate::stats;

/// Fork floor of the builds and whole-tree walks (`from_sorted`,
/// `to_vec`, map, reduce, reverse), whose per-entry work does not depend
/// on the block size: a subtree of at most this many entries is never
/// worth a fork. Each entry point passes it to [`parlay::cutoff`] once,
/// with the size of the whole tree.
pub(crate) const WALK_FLOOR: usize = 4096;

/// Builds a PaC-tree from entries already in collection order.
///
/// Maintains Definition 4.1 deterministically: midpoint splitting keeps
/// every leaf block within `[b, 2b]` once the tree has at least `b`
/// entries (smaller trees are one undersized block). `O(n)` work,
/// `O(log n)` span; forks stop at [`parlay::cutoff`] over
/// [`WALK_FLOOR`].
pub(crate) fn from_sorted<E, A, C>(b: usize, entries: &[E]) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    from_sorted_rec(b, parlay::cutoff(entries.len(), WALK_FLOOR), entries)
}

fn from_sorted_rec<E, A, C>(b: usize, grain: usize, entries: &[E]) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let n = entries.len();
    if n == 0 {
        return None;
    }
    if n <= 2 * b {
        // Any tree of at most 2b entries is a single block; Definition
        // 4.1 only constrains block sizes once |T| >= b, and packing
        // small trees is what the CPAM implementation does (it is also
        // essential for the graph application, where most edge lists are
        // far smaller than b).
        return make_flat(entries);
    }
    let mid = n / 2;
    let (l, r) = parlay::join_if(
        n > grain,
        || from_sorted_rec(b, grain, &entries[..mid]),
        || from_sorted_rec(b, grain, &entries[mid + 1..]),
    );
    make_regular(l, entries[mid].clone(), r)
}

/// Ownership-aware [`from_sorted`] for the *small* rebuilds the update
/// base cases produce: a leaf-sized result re-encodes into `src`'s
/// allocation in place ([`reuse_flat`]), a `2b..4b` result redistributes
/// with `src` as the top regular node, and anything larger falls back to
/// the parallel builder (tallied as a copy — the site was reuse-eligible
/// but the shape outgrew one node).
pub(crate) fn rebuild_leaf<E, A, C>(b: usize, src: Tree<E, A, C>, entries: &[E]) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let n = entries.len();
    if n == 0 {
        return None;
    }
    if n <= 2 * b {
        return reuse_flat(src, entries);
    }
    if n <= 4 * b {
        let mid = n / 2;
        return reuse_regular(
            src,
            make_flat(&entries[..mid]),
            entries[mid].clone(),
            make_flat(&entries[mid + 1..]),
        );
    }
    stats::count_node_copy();
    drop(src);
    from_sorted(b, entries)
}

/// Builds a perfectly balanced tree of only regular nodes (the paper's
/// `unfold` target, and the representation of simplex trees).
pub(crate) fn build_regular<E, A, C>(entries: &[E]) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let n = entries.len();
    if n == 0 {
        return None;
    }
    let mid = n / 2;
    let l = build_regular::<E, A, C>(&entries[..mid]);
    let r = build_regular::<E, A, C>(&entries[mid + 1..]);
    make_regular(l, entries[mid].clone(), r)
}

/// Flattens a tree into a vector, in collection order. Parallel.
pub(crate) fn to_vec<E, A, C>(t: &Tree<E, A, C>) -> Vec<E>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let mut out = Vec::new();
    extend_with(t, &E::clone, &mut out);
    out
}

/// Appends `f` of every entry of `t` to `out`, in collection order: a
/// tree flattened straight into whatever the caller keeps per entry.
/// Parallel, as [`to_vec`].
pub(crate) fn extend_with<E, A, C, T: Send>(
    t: &Tree<E, A, C>,
    f: &(impl Fn(&E) -> T + Sync),
    out: &mut Vec<T>,
) where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let (len, n) = (out.len(), size(t));
    out.reserve(n);
    let ptr = SendPtr(out.as_mut_ptr());
    write_tree(t, f, ptr, len, parlay::cutoff(n, WALK_FLOOR));
    // SAFETY: write_tree initializes exactly the `size(t)` slots after
    // `len`, within the capacity reserved above.
    unsafe { out.set_len(len + n) };
}

fn write_tree<E, A, C, T: Send>(
    t: &Tree<E, A, C>,
    f: &(impl Fn(&E) -> T + Sync),
    out: SendPtr<T>,
    offset: usize,
    grain: usize,
) where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else { return };
    match &**node {
        Node::Regular {
            left,
            entry,
            right,
            size: sz,
            ..
        } => {
            let lsize = size(left);
            // SAFETY: disjoint slots, within the capacity reserved by the
            // caller (extend_with).
            unsafe { out.0.add(offset + lsize).write(f(entry)) };
            parlay::join_if(
                *sz > grain,
                || write_tree(left, f, out, offset, grain),
                || write_tree(right, f, out, offset + lsize + 1, grain),
            );
        }
        leaf => {
            crate::stats::count_block_decode();
            let block = leaf.leaf_block();
            let mut at = offset;
            C::for_each(&block, &mut |e| {
                // SAFETY: as above; blocks own a disjoint range.
                unsafe { out.0.add(at).write(f(e)) };
                at += 1;
            });
        }
    }
}

/// Flattens `left ++ [entry] ++ right` into `out` (sequential; used by
/// the `node()` smart constructor on at most `4b` entries, with `out` a
/// scratch buffer sized once by the caller).
pub(crate) fn flatten_into<E, A, C>(
    left: &Tree<E, A, C>,
    entry: &E,
    right: &Tree<E, A, C>,
    out: &mut Vec<E>,
) where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    push_all(left, out);
    out.push(entry.clone());
    push_all(right, out);
}

/// Appends all entries of `t` to `out`, in order (sequential).
pub(crate) fn push_all<E, A, C>(t: &Tree<E, A, C>, out: &mut Vec<E>)
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let Some(node) = t else { return };
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            push_all(left, out);
            out.push(entry.clone());
            push_all(right, out);
        }
        leaf => {
            crate::stats::count_block_decode();
            let block = leaf.leaf_block();
            C::decode(&block, out);
        }
    }
}

/// Applies the key-sorted, duplicate-free `edits` to `t`; a put on an
/// existing key stores `f(old, new)`, and an entry no edit names
/// survives only if `keep`. `t` is a leaf — where a point update and a
/// sparse batch slice end up — or a subtree of at most κ entries that
/// the batch hits densely (the Section 8 array base case).
///
/// Under `keep`, a leaf with under one edit per 16 entries whose result
/// fits in `2b` entries is spliced ([`Codec::splice`]) and the new block
/// takes its place ([`reuse_block`]). Only puts can grow a leaf, so the
/// per-key search that discounts hits runs only when the puts alone
/// could overflow it. Anything else is streamed against the batch into
/// one scratch buffer and rebuilt as one packed piece ([`rebuild_leaf`]).
/// `O(|t| + |edits|)` work either way.
///
/// A batch that only removes keys `t` does not hold returns `t` as it
/// went in — not re-encoded, and for a single leaf not even copied: a
/// sparse batch is probed first, on the same load the splice then reads.
pub(crate) fn merge_sorted<E, A, C, F>(
    b: usize,
    t: Tree<E, A, C>,
    edits: &[Edit<E>],
    keep: bool,
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E,
{
    let grows = edits.iter().filter(|e| e.grows()).count();
    // A leaf is loaded once for the whole update: a lazy leaf asks its
    // source here and nowhere else.
    let leaf = t.as_deref().filter(|n| n.is_flat()).map(|n| {
        stats::count_cursor_op();
        n.leaf_block()
    });
    if let Some(block) = leaf
        .as_ref()
        .filter(|l| keep && C::len(l) >= 16 * edits.len())
    {
        let hit = |e: &Edit<E>| {
            let k = e.key();
            C::search_by(block, |x| x.key().cmp(k)).is_ok()
        };
        if grows == 0 && !edits.iter().any(hit) {
            drop(leaf);
            return t;
        }
        let len = C::len(block);
        if len + grows <= 2 * b || len + grows - edits.iter().filter(|e| hit(e)).count() <= 2 * b {
            let spliced = C::splice(
                block,
                edits,
                |x, e| x.key().cmp(e.key()),
                |old, e| e.apply(old, f),
            );
            drop(leaf);
            return reuse_block(t, spliced);
        }
    }
    let mut out = Scratch::take(size(&t) + grows);
    let mut rest = edits;
    let mut merge = |x: &E| {
        while let Some((e, tail)) = rest.split_first() {
            match e.key().cmp(x.key()) {
                std::cmp::Ordering::Less => out.extend(e.apply(None, f)),
                std::cmp::Ordering::Equal => {
                    out.extend(e.apply(Some(x), f));
                    rest = tail;
                    return;
                }
                std::cmp::Ordering::Greater => break,
            }
            rest = tail;
        }
        if keep {
            out.push(x.clone());
        }
    };
    match &leaf {
        Some(block) => C::for_each(block, &mut merge),
        None => {
            if let Some(node) = &t {
                let _ = fold_tree(node, &mut |x| {
                    merge(x);
                    ControlFlow::Continue(())
                });
            }
        }
    }
    out.extend(rest.iter().filter_map(|e| e.apply(None, f)));
    drop(leaf);
    if keep && grows == 0 && out.len() == size(&t) {
        return t;
    }
    rebuild_leaf(b, t, &out)
}
