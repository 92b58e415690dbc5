//! Join-based batch updates (Fig. 8 of the paper) and the set
//! algorithms built on them, as one sorted-edit recursion.
//!
//! Every update — a point insert or remove, a batch, a store commit — is
//! a key-sorted batch of [`Edit`]s applied by [`multi_update`], and so
//! are union, intersection and difference: as in PAM, the smaller
//! operand is flattened into a batch and applied to the larger one. Only
//! the larger operand's nodes are reused; the smaller is read once and
//! dropped, unless the two do not interleave, in which case one `join2`
//! (or nothing) settles the operation. Every path reaches a leaf through
//! [`merge_sorted`].

use codecs::Codec;

use crate::algos::{first, last};
use crate::aug::Augmentation;
use crate::base::{extend_with, from_sorted, merge_sorted};
use crate::entry::{Edit, Entry};
use crate::join::{expose_owned, join, join2};
use crate::node::{size, Tree};
use crate::scratch::Scratch;

/// κ = `KAPPA_BLOCKS * b`: the base-case granularity (paper uses 8B).
const KAPPA_BLOCKS: usize = 8;

/// Union, intersection or difference of `t1` and `t2`, with `f(from_t1,
/// from_t2)` on a shared key: the smaller operand becomes a batch of
/// `edit(entry, swapped)`s for the larger, whose entries the batch does
/// not name survive if `keep(swapped)`. `swapped` means the larger is
/// `t2`, so `f` is applied the other way round.
///
/// If the smaller operand spans more than one leaf and the two do not
/// interleave, nothing is flattened: the larger survives whole if
/// `keep`, the smaller if its edits add entries on a miss, and one
/// `join2` puts them together.
///
/// Work `O(m log(n/m + 1) + min(mB, n))` (Thm 6.3), as [`multi_update`].
pub(crate) fn by_batch<E, A, C, F>(
    b: usize,
    (t1, t2): (Tree<E, A, C>, Tree<E, A, C>),
    f: &F,
    edit: impl Fn(&E, bool) -> Edit<E> + Sync,
    keep: impl FnOnce(bool) -> bool,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    let swapped = size(&t1) < size(&t2);
    let (large, small) = if swapped { (t2, t1) } else { (t1, t2) };
    if small.as_ref().is_some_and(|n| !n.is_flat()) {
        let key = |e: Option<E>| e.map(|e| e.key().clone());
        let below = key(last(&small)) < key(first(&large));
        if below || key(first(&small)) > key(last(&large)) {
            let grows = first(&small).is_some_and(|e| edit(&e, swapped).grows());
            let (large, small) = (large.filter(|_| keep(swapped)), small.filter(|_| grows));
            return match below {
                true => join2(b, None, small, large),
                false => join2(b, None, large, small),
            };
        }
    }
    let mut edits = Scratch::take(size(&small));
    extend_with(&small, &|e| edit(e, swapped), &mut edits);
    // Nodes `small` shares with `large` are `large`'s alone from here.
    drop(small);
    match swapped {
        true => multi_update(b, large, &edits, keep(true), &|x: &E, y: &E| f(y, x)),
        false => multi_update(b, large, &edits, keep(false), f),
    }
}

/// Entries a batch of `m` keys can touch under a node of `s` entries:
/// at most one leaf (`2b` entries) per key and never more than the
/// subtree, plus the batch itself — the `min(mB, n)` of Thm 6.3, and
/// the work the fork cutoff is measured in: a small batch into a large
/// tree is a small problem, and under [`parlay::FORK_FLOOR`] entries of
/// it nothing forks.
fn batch_work(b: usize, s: usize, m: usize) -> usize {
    s.min(m.saturating_mul(2 * b)) + m
}

// A commit-sized batch — 64 keys at B = 128 touch at most 64·256 + 64
// entries — stays under the fork floor and never enters the scheduler.
const _: () = assert!(64 * 256 + 64 <= parlay::FORK_FLOOR);

/// Whether `m` keys are *dense* in a subtree of `s` entries: at least
/// one key per full leaf, so rebuilding the subtree whole (the Section 8
/// array base case) decodes no more than the keys would touch anyway.
fn dense(b: usize, s: usize, m: usize) -> bool {
    m.saturating_mul(2 * b) >= s
}

/// Batch update (Fig. 8's `multi_insert`, with removals): applies the
/// key-sorted, duplicate-free `edits` to `t`, a put on an existing key
/// storing `f(old, new)`. An entry of `t` that no edit names survives
/// only if `keep` (see [`merge_sorted`]). Every update walks the tree
/// through this one recursion; a point insert or remove is a one-edit
/// batch, and a set operation is its smaller operand as a batch.
///
/// Work `O(m log(n/m) + min(mB, n))` (Thm 6.3): a slice that is dense in
/// its subtree takes the κ array base case, a sparse one keeps
/// descending until it reaches its one leaf — either way through
/// [`merge_sorted`] — so an edit costs about one leaf, not κ entries.
pub(crate) fn multi_update<E, A, C, F>(
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
    F: Fn(&E, &E) -> E + Sync,
{
    debug_assert!(edits.windows(2).all(|w| w[0].key() < w[1].key()));
    let grain = parlay::cutoff(batch_work(b, size(&t), edits.len()), parlay::FORK_FLOOR);
    multi_update_rec(b, grain, t, edits, keep, f)
}

fn multi_update_rec<E, A, C, F>(
    b: usize,
    grain: usize,
    t: Tree<E, A, C>,
    edits: &[Edit<E>],
    keep: bool,
    f: &F,
) -> Tree<E, A, C>
where
    E: Entry,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E, &E) -> E + Sync,
{
    // A subtree no edit reaches is returned as it is, or dropped whole:
    // nothing to call or fork.
    if edits.is_empty() {
        return t.filter(|_| keep);
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
        return merge_sorted(b, t, edits, keep, f);
    }
    let (l, e, r, husk) = expose_owned(t);
    let pos = edits.partition_point(|x| x.key() < e.key());
    let (entry, rest_at) = match edits.get(pos) {
        Some(hit) if hit.key() == e.key() => (hit.apply(Some(&e), f), pos + 1),
        _ => (keep.then_some(e), pos),
    };
    let (left, right) = (&edits[..pos], &edits[rest_at..]);
    let go = |t, edits| multi_update_rec(b, grain, t, edits, keep, f);
    let fork = !left.is_empty() && !right.is_empty() && batch_work(b, s, m) > grain;
    let (tl, tr) = parlay::join_if(fork, || go(l, left), || go(r, right));
    match entry {
        Some(entry) => join(b, husk, tl, entry, tr),
        None => join2(b, husk, tl, tr),
    }
}
