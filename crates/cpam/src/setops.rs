//! Join-based set algorithms: union, intersection, difference, and batch
//! updates (Figs. 8 and 10 of the paper).
//!
//! Each algorithm comes in two flavours: the *optimized* version with the
//! Section 8 base case (inputs of combined size below κ = 8B are
//! flattened into arrays, merged, and rebuilt — 4–7x faster in the paper)
//! and a *naive* expose-only version kept for the Section 8 ablation.

use std::sync::Arc;

use codecs::Codec;

use crate::aug::Augmentation;
use crate::base::{from_sorted, merge_sorted, push_all, rebuild_leaf, to_vec};
use crate::entry::{Edit, Entry};
use crate::grain::{batch_grain, par_grain};
use crate::join::{expose_owned, join, join2, split};
use crate::node::{size, Tree};
use crate::scratch::with_scratch;

/// κ = `KAPPA_BLOCKS * b`: the base-case granularity (paper uses 8B).
pub(crate) const KAPPA_BLOCKS: usize = 8;

/// Re-folds a small tree whose root is an (invariant-violating) regular
/// node back into a flat leaf. [`expose`] unfolds flat nodes into their
/// expanded all-regular form, and union's empty-side shortcut can
/// return such a subtree verbatim; every other constructor folds via
/// `node()`. Trees larger than `2b` are already valid and pass through.
fn refold<E, A, C>(b: usize, t: Tree<E, A, C>) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    match &t {
        Some(node) if !node.is_flat() && node.size() <= 2 * b => from_sorted(b, &to_vec(&t)),
        _ => t,
    }
}

/// Picks the better reuse husk out of two consumed operands: a uniquely
/// owned root wins (its allocation can be overwritten), the other is
/// dropped.
fn pick_husk<E, A, C>(a: Tree<E, A, C>, b: Tree<E, A, C>) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    match (a, b) {
        (Some(x), y) if Arc::strong_count(&x) == 1 => {
            drop(y);
            Some(x)
        }
        (x, y) => y.or(x),
    }
}

/// Flattens both trees into scratch buffers (sized once from the root
/// sizes), merges them with `merge` into a third, and rebuilds — the
/// Section 8 array base case, allocation-free in steady state. Both
/// operands are consumed; whichever root is uniquely owned donates its
/// allocation to the rebuilt result.
fn merge_base_case<E, A, C>(
    b: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    merge: impl FnOnce(&[E], &[E], &mut Vec<E>),
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    with_scratch(size(&t1), |xs: &mut Vec<E>| {
        push_all(&t1, xs);
        with_scratch(size(&t2), |ys: &mut Vec<E>| {
            push_all(&t2, ys);
            with_scratch(xs.len() + ys.len(), |out: &mut Vec<E>| {
                merge(xs, ys, out);
                rebuild_leaf(b, pick_husk(t1, t2), out)
            })
        })
    })
}

fn merge_union<E: Entry>(xs: &[E], ys: &[E], f: &impl Fn(&E, &E) -> E, out: &mut Vec<E>) {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].key().cmp(ys[j].key()) {
            std::cmp::Ordering::Less => {
                out.push(xs[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(ys[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(f(&xs[i], &ys[j]));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&xs[i..]);
    out.extend_from_slice(&ys[j..]);
}

fn merge_intersect<E: Entry>(xs: &[E], ys: &[E], f: &impl Fn(&E, &E) -> E, out: &mut Vec<E>) {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].key().cmp(ys[j].key()) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(f(&xs[i], &ys[j]));
                i += 1;
                j += 1;
            }
        }
    }
}

fn merge_difference<E: Entry>(xs: &[E], ys: &[E], out: &mut Vec<E>) {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() {
        if j >= ys.len() {
            out.extend_from_slice(&xs[i..]);
            break;
        }
        match xs[i].key().cmp(ys[j].key()) {
            std::cmp::Ordering::Less => {
                out.push(xs[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
}

/// Union with a combiner for duplicate keys (`f(from_t1, from_t2)`).
///
/// Work `O(m log(n/m) + min(mB, n))`, span `O(log n log m)` (Thm 6.3).
pub(crate) fn union_with<E, A, C, F>(
    b: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let grain = par_grain(b, size(&t1) + size(&t2));
    union_rec(b, grain, t1, t2, f)
}

fn union_rec<E, A, C, F>(
    b: usize,
    grain: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let (Some(n1), Some(n2)) = (&t1, &t2) else {
        // One side may be an expose-expanded subtree: re-fold it.
        return refold(b, t1.or(t2));
    };
    let (s1, s2) = (n1.size(), n2.size());
    if s1 + s2 <= KAPPA_BLOCKS * b {
        // Section 8 base case: flatten into scratch, merge, rebuild.
        return merge_base_case(b, t1, t2, |xs, ys, out| merge_union(xs, ys, f, out));
    }
    let (l2, k2, r2, husk) = expose_owned(t2);
    let (l1, m, r1) = split(b, t1, k2.key());
    let entry = match m {
        Some(e1) => f(&e1, &k2),
        None => k2,
    };
    let (tl, tr) = if s1 + s2 > grain {
        parlay::join(
            || union_rec(b, grain, l1, l2, f),
            || union_rec(b, grain, r1, r2, f),
        )
    } else {
        (
            union_rec(b, grain, l1, l2, f),
            union_rec(b, grain, r1, r2, f),
        )
    };
    join(b, husk, tl, entry, tr)
}

/// Expose-only union (Fig. 5 style, no array base case) — kept for the
/// Section 8 ablation benchmark.
pub(crate) fn union_naive<E, A, C, F>(
    b: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let grain = par_grain(b, size(&t1) + size(&t2));
    union_naive_rec(b, grain, t1, t2, f)
}

fn union_naive_rec<E, A, C, F>(
    b: usize,
    grain: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let (Some(_), Some(n2)) = (&t1, &t2) else {
        // One side may be an expose-expanded subtree: re-fold it.
        return refold(b, t1.or(t2));
    };
    let total = size(&t1) + n2.size();
    let (l2, k2, r2, husk) = expose_owned(t2);
    let (l1, m, r1) = split(b, t1, k2.key());
    let entry = match m {
        Some(e1) => f(&e1, &k2),
        None => k2,
    };
    let (tl, tr) = if total > grain {
        parlay::join(
            || union_naive_rec(b, grain, l1, l2, f),
            || union_naive_rec(b, grain, r1, r2, f),
        )
    } else {
        (
            union_naive_rec(b, grain, l1, l2, f),
            union_naive_rec(b, grain, r1, r2, f),
        )
    };
    join(b, husk, tl, entry, tr)
}

/// Intersection with a combiner for the retained entries.
pub(crate) fn intersect_with<E, A, C, F>(
    b: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let grain = par_grain(b, size(&t1) + size(&t2));
    intersect_rec(b, grain, t1, t2, f)
}

fn intersect_rec<E, A, C, F>(
    b: usize,
    grain: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let (Some(n1), Some(n2)) = (&t1, &t2) else {
        return None;
    };
    let (s1, s2) = (n1.size(), n2.size());
    if s1 + s2 <= KAPPA_BLOCKS * b {
        return merge_base_case(b, t1, t2, |xs, ys, out| merge_intersect(xs, ys, f, out));
    }
    let (l2, k2, r2, husk) = expose_owned(t2);
    let (l1, m, r1) = split(b, t1, k2.key());
    let (tl, tr) = if s1 + s2 > grain {
        parlay::join(
            || intersect_rec(b, grain, l1, l2, f),
            || intersect_rec(b, grain, r1, r2, f),
        )
    } else {
        (
            intersect_rec(b, grain, l1, l2, f),
            intersect_rec(b, grain, r1, r2, f),
        )
    };
    match m {
        Some(e1) => join(b, husk, tl, f(&e1, &k2), tr),
        None => join2(b, husk, tl, tr),
    }
}

/// Difference `t1 \ t2`: entries of `t1` whose keys are not in `t2`.
pub(crate) fn difference<E, A, C>(b: usize, t1: Tree<E, A, C>, t2: Tree<E, A, C>) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let grain = par_grain(b, size(&t1) + size(&t2));
    difference_rec(b, grain, t1, t2)
}

fn difference_rec<E, A, C>(
    b: usize,
    grain: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
{
    let (Some(n1), Some(n2)) = (&t1, &t2) else {
        return t1;
    };
    let (s1, s2) = (n1.size(), n2.size());
    if s1 + s2 <= KAPPA_BLOCKS * b {
        return merge_base_case(b, t1, t2, |xs, ys, out| merge_difference(xs, ys, out));
    }
    let (l2, k2, r2, husk) = expose_owned(t2);
    let (l1, _m, r1) = split(b, t1, k2.key());
    let (tl, tr) = if s1 + s2 > grain {
        parlay::join(
            || difference_rec(b, grain, l1, l2),
            || difference_rec(b, grain, r1, r2),
        )
    } else {
        (
            difference_rec(b, grain, l1, l2),
            difference_rec(b, grain, r1, r2),
        )
    };
    join2(b, husk, tl, tr)
}

/// Entries a batch of `m` keys can touch under a node of `s` entries:
/// at most one leaf (`2b` entries) per key and never more than the
/// subtree, plus the batch itself — the `min(mB, n)` of Thm 6.3, and
/// the work the fork cutoff ([`batch_grain`]) is measured in.
fn batch_work(b: usize, s: usize, m: usize) -> usize {
    s.min(m.saturating_mul(2 * b)) + m
}

/// Whether `m` keys are *dense* in a subtree of `s` entries: at least
/// one key per full leaf, so rebuilding the subtree whole (the Section 8
/// array base case) decodes no more than the keys would touch anyway.
fn dense(b: usize, s: usize, m: usize) -> bool {
    m.saturating_mul(2 * b) >= s
}

/// Batch update (Fig. 8's `multi_insert`, with removals): applies the
/// key-sorted, duplicate-free `edits` to `t`, a put on an existing key
/// storing `f(old, new)`. Every update walks the tree through this one
/// recursion; a point insert or remove is a one-edit batch.
///
/// Work `O(m log(n/m) + min(mB, n))` (Thm 6.3): a slice that is dense in
/// its subtree takes the κ array base case, a sparse one keeps
/// descending until it reaches its one leaf — either way through
/// [`merge_sorted`] — so an edit costs about one leaf, not κ entries.
pub(crate) fn multi_update<E, A, C, F>(
    b: usize,
    t: Tree<E, A, C>,
    edits: &[Edit<E>],
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    debug_assert!(edits.windows(2).all(|w| w[0].key() < w[1].key()));
    let grain = batch_grain(batch_work(b, size(&t), edits.len()));
    multi_update_rec(b, grain, t, edits, f)
}

fn multi_update_rec<E, A, C, F>(
    b: usize,
    grain: usize,
    t: Tree<E, A, C>,
    edits: &[Edit<E>],
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    if edits.is_empty() {
        return t;
    }
    let Some(node) = &t else {
        let puts: Vec<E> = edits.iter().filter_map(|e| e.apply(None, f)).collect();
        return from_sorted(b, &puts);
    };
    let (s, m) = (node.size(), edits.len());
    // The κ base case: a subtree that the puts alone or the removes alone
    // hit densely (so a mixed batch rebuilds nothing whole that two
    // single-kind passes would not), and that stays within κ entries.
    if node.is_flat()
        || (s <= KAPPA_BLOCKS * b && dense(b, s, m) && {
            let puts = edits.iter().filter(|e| e.grows()).count();
            dense(b, s, puts.max(m - puts)) && s + puts <= KAPPA_BLOCKS * b
        })
    {
        return merge_sorted(b, t, edits, f);
    }
    let (l, e, r, husk) = expose_owned(t);
    let pos = edits.partition_point(|x| x.key() < e.key());
    let (entry, rest_at) = match edits.get(pos) {
        Some(hit) if hit.key() == e.key() => (hit.apply(Some(&e), f), pos + 1),
        _ => (Some(e), pos),
    };
    let (left, right) = (&edits[..pos], &edits[rest_at..]);
    // An empty side returns its subtree as it is: nothing to call or fork.
    let go = |t, edits: &[Edit<E>]| match edits {
        [] => t,
        _ => multi_update_rec(b, grain, t, edits, f),
    };
    let (tl, tr) = if !left.is_empty() && !right.is_empty() && batch_work(b, s, m) > grain {
        parlay::join(|| go(l, left), || go(r, right))
    } else {
        (go(l, left), go(r, right))
    };
    match entry {
        Some(entry) => join(b, husk, tl, entry, tr),
        None => join2(b, husk, tl, tr),
    }
}
