//! Streaming in-order iteration over a tree.

use std::ops::ControlFlow;
use std::sync::Arc;

use codecs::{BlockCursor, Codec};

use crate::aug::Augmentation;
use crate::entry::Element;
use crate::node::{BlockRef, Node, Tree};
use crate::stats;

/// An in-order iterator over the entries of a PaC-tree.
///
/// Holds `Arc`s to the spine it is traversing, so it is a snapshot: the
/// source collection can be updated (functionally) while iterating.
///
/// Leaf blocks are streamed through the codec's cursor — entries decode
/// one at a time as the iterator advances, with no per-leaf `Vec`.
pub struct Iter<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    /// Cursor into `leaf`'s block.
    ///
    /// The `'static` lifetime is a privately-maintained fiction: the
    /// cursor actually borrows the block inside `leaf`'s heap
    /// allocation. Safety is kept local to this module by two rules,
    /// both upheld below: (1) `cursor` is cleared or replaced *before*
    /// `leaf` is, and the field is declared first so it also drops
    /// first; (2) `leaf` is never mutated while `cursor` is `Some`.
    /// Moving the `Iter` itself is fine — the block lives behind the
    /// `Arc`, not inline.
    cursor: Option<C::Cursor<'static>>,
    /// Keeps the current leaf's allocation (and thus the cursor's
    /// borrow target) alive.
    leaf: Option<Arc<Node<E, A, C>>>,
    /// For lazy leaves the cursor borrows a pool-loaded block that lives
    /// outside the node; this strong reference keeps it alive. Cleared
    /// together with `leaf`.
    lazy_block: Option<Arc<C::Block>>,
    /// Regular nodes whose entry and right subtree are still pending.
    stack: Vec<Arc<Node<E, A, C>>>,
}

impl<E, A, C> Iter<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    pub(crate) fn new(t: &Tree<E, A, C>) -> Self {
        let mut it = Iter {
            cursor: None,
            leaf: None,
            lazy_block: None,
            stack: Vec::new(),
        };
        it.push_left_spine(t);
        it
    }

    fn push_left_spine(&mut self, mut t: &Tree<E, A, C>) {
        while let Some(node) = t {
            match &**node {
                Node::Regular { left, .. } => {
                    self.stack.push(Arc::clone(node));
                    t = left;
                }
                _ => {
                    debug_assert!(self.cursor.is_none());
                    stats::count_cursor_op();
                    let leaf = Arc::clone(node);
                    // SAFETY: the block either lives inside `leaf`'s Arc
                    // allocation (flat), which `self.leaf` keeps alive
                    // for the cursor's whole lifetime (see the field
                    // docs), or in a pool-loaded Arc kept alive by
                    // `self.lazy_block`; Arc contents never move. The
                    // raw-pointer round-trip launders the borrow to the
                    // field's 'static.
                    let block: *const C::Block = match leaf.leaf_block() {
                        BlockRef::Borrowed(b) => {
                            self.lazy_block = None;
                            b
                        }
                        BlockRef::Loaded(arc) => {
                            let p = Arc::as_ptr(&arc);
                            self.lazy_block = Some(arc);
                            p
                        }
                    };
                    self.cursor = Some(C::cursor(unsafe { &*block }));
                    self.leaf = Some(leaf);
                    return;
                }
            }
        }
    }
}

/// Feeds every entry of a whole subtree to `f` in order, without
/// cursor state, and stops once `f` breaks: flat nodes stream through
/// the codec's `for_each` (the tightest decode loop), regular nodes
/// recurse. After a break inside a leaf the rest of that one leaf is
/// still decoded, but `f` is not called again.
pub(crate) fn fold_tree<E, A, C>(
    node: &Node<E, A, C>,
    f: &mut impl FnMut(&E) -> ControlFlow<()>,
) -> ControlFlow<()>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    match node {
        Node::Regular {
            left, entry, right, ..
        } => {
            if let Some(left) = left {
                fold_tree(left, f)?;
            }
            f(entry)?;
            match right {
                Some(right) => fold_tree(right, f),
                None => ControlFlow::Continue(()),
            }
        }
        leaf => {
            stats::count_cursor_op();
            let block = leaf.leaf_block();
            let mut flow = ControlFlow::Continue(());
            C::for_each(&block, &mut |e| {
                if flow.is_continue() {
                    flow = f(e);
                }
            });
            flow
        }
    }
}

impl<E, A, C> Iterator for Iter<E, A, C>
where
    E: Element,
    A: Augmentation<E>,
    C: Codec<E>,
{
    type Item = E;

    /// Internal iteration override: bulk consumers (`sum`, `collect`,
    /// `for` loops through adapters) bypass the per-entry cursor
    /// save/restore and run the codec's tight streaming loop per block.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, E) -> B,
    {
        let mut acc = init;
        // Drain the in-progress leaf, releasing the cursor before the
        // leaf Arc it borrows (same discipline as `next`).
        if let Some(mut cur) = self.cursor.take() {
            while let Some(e) = cur.peek() {
                let e = e.clone();
                cur.advance();
                acc = f(acc, e);
            }
            drop(cur);
            self.leaf = None;
            self.lazy_block = None;
        }
        // The stack holds ancestors root-first; each pending node
        // contributes its entry then its whole right subtree.
        let mut acc = Some(acc);
        let mut push = |e: &E| {
            acc = Some(f(acc.take().expect("acc threaded"), e.clone()));
            ControlFlow::Continue(())
        };
        while let Some(node) = self.stack.pop() {
            let Node::Regular { entry, right, .. } = &*node else {
                unreachable!("flat nodes never sit on the iterator stack");
            };
            let _ = push(entry);
            if let Some(right) = right {
                let _ = fold_tree(right, &mut push);
            }
        }
        acc.expect("acc threaded")
    }

    #[inline]
    fn next(&mut self) -> Option<E> {
        if let Some(cur) = self.cursor.as_mut() {
            if let Some(e) = cur.peek() {
                let e = e.clone();
                cur.advance();
                return Some(e);
            }
            // Exhausted: release the cursor before the leaf it borrows.
            self.cursor = None;
            self.leaf = None;
            self.lazy_block = None;
        }
        let node = self.stack.pop()?;
        let Node::Regular { entry, right, .. } = &*node else {
            unreachable!("flat nodes never sit on the iterator stack");
        };
        let e = entry.clone();
        // Clone the subtree handle before dropping our hold on `node`.
        let right = right.clone();
        self.push_left_spine(&right);
        // Keep `right`'s nodes alive: push_left_spine stored Arcs as needed.
        Some(e)
    }
}
