//! Join-based set algorithms (Figs. 8 and 10 of the paper): union,
//! intersection and difference as one split–join recursion, and batch
//! updates as one sorted-edit recursion.
//!
//! The three two-tree operations differ only in which entries survive,
//! a [`SetOp`]. Subproblems of combined size at most κ = 8B take the
//! Section 8 array base case: both sides are flattened into arrays,
//! merged under the same rule, and rebuilt (4–7x faster in the paper).
//! The base-case ablation (`PacSet::union_naive`) runs the same
//! recursion with κ = 0, so it exposes all the way down.

use std::cmp::Ordering;
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

/// Which entries a two-tree operation on `t1` and `t2` keeps.
pub(crate) enum SetOp<F> {
    /// Every entry; `f(from_t1, from_t2)` on a key both trees hold.
    Union(F),
    /// Only keys both trees hold, as `f(from_t1, from_t2)`.
    Intersect(F),
    /// The entries of `t1` whose keys `t2` lacks.
    Difference,
}

impl<F> SetOp<F> {
    /// Whether an entry whose key only `t1` holds survives.
    fn keeps_t1(&self) -> bool {
        !matches!(self, SetOp::Intersect(_))
    }

    /// Whether an entry whose key only `t2` holds survives.
    fn keeps_t2(&self) -> bool {
        matches!(self, SetOp::Union(_))
    }

    /// What survives of a key both trees hold.
    fn both<E>(&self, e1: &E, e2: &E) -> Option<E>
    where
        F: Fn(&E, &E) -> E,
    {
        match self {
            SetOp::Union(f) | SetOp::Intersect(f) => Some(f(e1, e2)),
            SetOp::Difference => None,
        }
    }

    /// Merges the sorted `xs` (from `t1`) and `ys` (from `t2`) into
    /// `out` under this rule.
    fn merge<E: Entry>(&self, xs: &[E], ys: &[E], out: &mut Vec<E>)
    where
        F: Fn(&E, &E) -> E,
    {
        let (mut i, mut j) = (0, 0);
        while i < xs.len() && j < ys.len() {
            match xs[i].key().cmp(ys[j].key()) {
                Ordering::Less => {
                    out.extend(self.keeps_t1().then(|| xs[i].clone()));
                    i += 1;
                }
                Ordering::Greater => {
                    out.extend(self.keeps_t2().then(|| ys[j].clone()));
                    j += 1;
                }
                Ordering::Equal => {
                    out.extend(self.both(&xs[i], &ys[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        if self.keeps_t1() {
            out.extend_from_slice(&xs[i..]);
        }
        if self.keeps_t2() {
            out.extend_from_slice(&ys[j..]);
        }
    }
}

/// Re-folds a small tree whose root is an (invariant-violating) regular
/// node back into a flat leaf. [`expose`] unfolds flat nodes into their
/// expanded all-regular form, and [`set_op`]'s empty-side shortcut can
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
/// sizes), merges them under `op` into a third, and rebuilds — the
/// Section 8 array base case, allocation-free in steady state. Both
/// operands are consumed; whichever root is uniquely owned donates its
/// allocation to the rebuilt result.
fn merge_base_case<E, A, C, F>(
    b: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    op: &SetOp<F>,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E,
{
    with_scratch(size(&t1), |xs: &mut Vec<E>| {
        push_all(&t1, xs);
        with_scratch(size(&t2), |ys: &mut Vec<E>| {
            push_all(&t2, ys);
            with_scratch(xs.len() + ys.len(), |out: &mut Vec<E>| {
                op.merge(xs, ys, out);
                rebuild_leaf(b, pick_husk(t1, t2), out)
            })
        })
    })
}

/// Union, intersection or difference of `t1` and `t2`, as `op` says
/// (Fig. 10): expose `t2`, split `t1` at its pivot, recurse on both
/// halves, and `join` back the pivot `op` keeps (`join2` if none).
/// Subproblems of at most `kappa` entries take the array base case:
/// `KAPPA_BLOCKS * b`, or 0 for the expose-only ablation.
///
/// Work `O(m log(n/m) + min(mB, n))`, span `O(log n log m)` (Thm 6.3).
pub(crate) fn set_op<E, A, C, F>(
    b: usize,
    kappa: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    op: &SetOp<F>,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let grain = par_grain(b, size(&t1) + size(&t2));
    set_op_rec(b, kappa, grain, t1, t2, op)
}

fn set_op_rec<E, A, C, F>(
    b: usize,
    kappa: usize,
    grain: usize,
    t1: Tree<E, A, C>,
    t2: Tree<E, A, C>,
    op: &SetOp<F>,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let (Some(n1), Some(n2)) = (&t1, &t2) else {
        // The other side survives if `op` keeps it. `t2`'s may be an
        // expose-expanded subtree: re-fold it.
        let kept = match (t1, t2) {
            (t, None) if op.keeps_t1() => t,
            (None, t) if op.keeps_t2() => t,
            _ => None,
        };
        return refold(b, kept);
    };
    let (s1, s2) = (n1.size(), n2.size());
    if s1 + s2 <= kappa {
        return merge_base_case(b, t1, t2, op);
    }
    let (l2, k2, r2, husk) = expose_owned(t2);
    let (l1, m, r1) = split(b, t1, k2.key());
    let pivot = match m {
        Some(e1) => op.both(&e1, &k2),
        None => op.keeps_t2().then_some(k2),
    };
    let rec = |t1, t2| set_op_rec(b, kappa, grain, t1, t2, op);
    let (tl, tr) = if s1 + s2 > grain {
        parlay::join(|| rec(l1, l2), || rec(r1, r2))
    } else {
        (rec(l1, l2), rec(r1, r2))
    };
    match pivot {
        Some(e) => join(b, husk, tl, e, tr),
        None => join2(b, husk, tl, tr),
    }
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
