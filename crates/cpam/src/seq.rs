//! Positional (sequence) operations: the paper's Sequence interface
//! (Table 1) — take, subseq, append, reverse, find-first — on top of the
//! same tree representation, ignoring keys entirely.

use codecs::{BlockCursor, Codec};

use crate::aug::Augmentation;
use crate::base::{from_sorted, WALK_FLOOR};
use crate::entry::Element;
use crate::join::{join2, split_at};
use crate::node::{decode_flat_into, make_flat, make_regular, size, Node, Tree};
use crate::scratch::with_scratch;
use crate::stats;

/// First `i` entries (the paper's Take). `O(log n + B)` work.
pub(crate) fn take<E, A, C>(b: usize, t: &Tree<E, A, C>, i: usize) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    split_at(b, t.clone(), i).0
}

/// Everything after the first `i` entries.
pub(crate) fn drop_first<E, A, C>(b: usize, t: &Tree<E, A, C>, i: usize) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    split_at(b, t.clone(), i).1
}

/// The subsequence `[lo, hi)` by position.
pub(crate) fn subseq<E, A, C>(b: usize, t: &Tree<E, A, C>, lo: usize, hi: usize) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    debug_assert!(lo <= hi);
    let (_, suffix) = split_at(b, t.clone(), lo);
    split_at(b, suffix, hi - lo).0
}

/// Concatenation (the paper's Append): `O(log n + B)` work — the
/// headline win over `O(n)` array append in Fig. 2.
pub(crate) fn append<E, A, C>(b: usize, l: &Tree<E, A, C>, r: &Tree<E, A, C>) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    join2(b, None, l.clone(), r.clone())
}

/// Reverses the sequence. `O(n)` work, `O(log n)` span: children swap and
/// blocks re-encode reversed.
pub(crate) fn reverse<E, A, C>(t: &Tree<E, A, C>) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    reverse_rec(parlay::cutoff(size(t), WALK_FLOOR), t)
}

fn reverse_rec<E, A, C>(grain: usize, t: &Tree<E, A, C>) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
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
            let (rl, rr) = parlay::join_if(
                *sz > grain,
                || reverse_rec(grain, right),
                || reverse_rec(grain, left),
            );
            make_regular(rl, entry.clone(), rr)
        }
        _ => with_scratch(node.size(), |entries: &mut Vec<E>| {
            decode_flat_into(node, entries);
            entries.reverse();
            make_flat(entries)
        }),
    }
}

/// Index of the first entry satisfying `pred`, scanning geometrically
/// growing prefixes so a match at position `k` costs `O(k)` work (the
/// paper's FindFirst).
pub(crate) fn find_first<E, A, C, F>(t: &Tree<E, A, C>, pred: &F) -> Option<usize>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E) -> bool + Sync,
{
    find_first_rec(t, pred, 0)
}

fn find_first_rec<E, A, C, F>(t: &Tree<E, A, C>, pred: &F, offset: usize) -> Option<usize>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
    F: Fn(&E) -> bool + Sync,
{
    let node = t.as_ref()?;
    match &**node {
        Node::Regular {
            left, entry, right, ..
        } => {
            let lsize = size(left);
            find_first_rec(left, pred, offset)
                .or_else(|| pred(entry).then_some(offset + lsize))
                .or_else(|| find_first_rec(right, pred, offset + lsize + 1))
        }
        leaf => {
            // Stream the block with early exit — a hit at position `i`
            // decodes only `i + 1` entries and allocates nothing.
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            let mut cur = C::cursor(&block);
            let mut i = 0;
            loop {
                let e = cur.peek()?;
                if pred(e) {
                    return Some(offset + i);
                }
                i += 1;
                cur.advance();
            }
        }
    }
}

/// Builds a sequence tree from a slice, preserving order.
pub(crate) fn from_slice<E, A, C>(b: usize, entries: &[E]) -> Tree<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    from_sorted(b, entries)
}
