//! The P-tree internals: a plain persistent weight-balanced BST with one
//! entry per node, implemented with the same join-based approach as PAM.

use std::sync::Arc;

use cpam::{Augmentation, Entry};

/// One tree node: exactly one entry, plus cached size and aggregate.
pub(crate) struct Node<E, A>
where
    A: Augmentation<E>,
{
    pub(crate) size: usize,
    pub(crate) aug: A::Value,
    pub(crate) left: Tree<E, A>,
    pub(crate) entry: E,
    pub(crate) right: Tree<E, A>,
}

pub(crate) type Tree<E, A> = Option<Arc<Node<E, A>>>;

const ALPHA_NUM: usize = 29;
const ALPHA_DEN: usize = 100;

#[inline]
pub(crate) fn size<E, A: Augmentation<E>>(t: &Tree<E, A>) -> usize {
    t.as_ref().map_or(0, |n| n.size)
}

#[inline]
fn weight<E, A: Augmentation<E>>(t: &Tree<E, A>) -> usize {
    size(t) + 1
}

#[inline]
pub(crate) fn balanced(wl: usize, wr: usize) -> bool {
    let total = wl + wr;
    wl * ALPHA_DEN >= ALPHA_NUM * total && wr * ALPHA_DEN >= ALPHA_NUM * total
}

#[inline]
fn left_heavy(wl: usize, wr: usize) -> bool {
    wl * ALPHA_DEN > (ALPHA_DEN - ALPHA_NUM) * (wl + wr)
}

pub(crate) fn aug_of<E, A: Augmentation<E>>(t: &Tree<E, A>) -> A::Value {
    t.as_ref().map_or_else(A::identity, |n| n.aug.clone())
}

pub(crate) fn node<E: Clone, A: Augmentation<E>>(l: Tree<E, A>, e: E, r: Tree<E, A>) -> Tree<E, A> {
    let aug = A::combine(&A::combine(&aug_of(&l), &A::from_entry(&e)), &aug_of(&r));
    Some(Arc::new(Node {
        size: size(&l) + size(&r) + 1,
        aug,
        left: l,
        entry: e,
        right: r,
    }))
}

pub(crate) fn expose<E: Clone, A: Augmentation<E>>(n: &Node<E, A>) -> (Tree<E, A>, E, Tree<E, A>) {
    (n.left.clone(), n.entry.clone(), n.right.clone())
}

pub(crate) fn join<E: Clone, A: Augmentation<E>>(l: Tree<E, A>, e: E, r: Tree<E, A>) -> Tree<E, A> {
    let (wl, wr) = (weight(&l), weight(&r));
    if left_heavy(wl, wr) {
        join_right(l, e, r)
    } else if left_heavy(wr, wl) {
        join_left(l, e, r)
    } else {
        node(l, e, r)
    }
}

fn join_right<E: Clone, A: Augmentation<E>>(tl: Tree<E, A>, e: E, tr: Tree<E, A>) -> Tree<E, A> {
    if balanced(weight(&tl), weight(&tr)) {
        return node(tl, e, tr);
    }
    let n = tl.expect("join_right: heavy side empty");
    let (l, k2, c) = expose(&n);
    drop(n);
    let t2 = join_right(c, e, tr);
    if balanced(weight(&l), weight(&t2)) {
        return node(l, k2, t2);
    }
    let t2n = t2.expect("nonempty");
    let (l1, k1, r1) = expose(&t2n);
    drop(t2n);
    if balanced(weight(&l), weight(&l1)) && balanced(weight(&l) + weight(&l1), weight(&r1)) {
        node(node(l, k2, l1), k1, r1)
    } else {
        let l1n = l1.expect("nonempty");
        let (l2, k3, r2) = expose(&l1n);
        drop(l1n);
        node(node(l, k2, l2), k3, node(r2, k1, r1))
    }
}

fn join_left<E: Clone, A: Augmentation<E>>(tl: Tree<E, A>, e: E, tr: Tree<E, A>) -> Tree<E, A> {
    if balanced(weight(&tl), weight(&tr)) {
        return node(tl, e, tr);
    }
    let n = tr.expect("join_left: heavy side empty");
    let (c, k2, r) = expose(&n);
    drop(n);
    let t2 = join_left(tl, e, c);
    if balanced(weight(&t2), weight(&r)) {
        return node(t2, k2, r);
    }
    let t2n = t2.expect("nonempty");
    let (l1, k1, r1) = expose(&t2n);
    drop(t2n);
    if balanced(weight(&r1), weight(&r)) && balanced(weight(&r1) + weight(&r), weight(&l1)) {
        node(l1, k1, node(r1, k2, r))
    } else {
        let r1n = r1.expect("nonempty");
        let (l2, k3, r2) = expose(&r1n);
        drop(r1n);
        node(node(l1, k1, l2), k3, node(r2, k2, r))
    }
}

pub(crate) fn split_last<E: Clone, A: Augmentation<E>>(t: Tree<E, A>) -> (Tree<E, A>, E) {
    let n = t.expect("split_last on empty tree");
    let (l, e, r) = expose(&n);
    if r.is_none() {
        (l, e)
    } else {
        let (r2, last) = split_last(r);
        (join(l, e, r2), last)
    }
}

pub(crate) fn join2<E: Clone, A: Augmentation<E>>(l: Tree<E, A>, r: Tree<E, A>) -> Tree<E, A> {
    match l {
        None => r,
        Some(_) => {
            let (l2, last) = split_last(l);
            join(l2, last, r)
        }
    }
}

pub(crate) fn split<E: Entry, A: Augmentation<E>>(
    t: &Tree<E, A>,
    k: &E::Key,
) -> (Tree<E, A>, Option<E>, Tree<E, A>) {
    let Some(n) = t else {
        return (None, None, None);
    };
    match k.cmp(n.entry.key()) {
        std::cmp::Ordering::Equal => (n.left.clone(), Some(n.entry.clone()), n.right.clone()),
        std::cmp::Ordering::Less => {
            let (ll, m, lr) = split(&n.left, k);
            (ll, m, join(lr, n.entry.clone(), n.right.clone()))
        }
        std::cmp::Ordering::Greater => {
            let (rl, m, rr) = split(&n.right, k);
            (join(n.left.clone(), n.entry.clone(), rl), m, rr)
        }
    }
}

/// A balanced tree of the sorted entries `s`, its halves built in
/// parallel above `parlay::cutoff(s.len(), 4096)` entries.
pub(crate) fn from_sorted<E: Clone + Send + Sync, A: Augmentation<E>>(s: &[E]) -> Tree<E, A>
where
    A::Value: Send,
{
    fn go<E: Clone + Send + Sync, A: Augmentation<E>>(s: &[E], cut: usize) -> Tree<E, A>
    where
        A::Value: Send,
    {
        let n = s.len();
        if n == 0 {
            return None;
        }
        let mid = n / 2;
        let (l, r) = parlay::join_if(n > cut, || go(&s[..mid], cut), || go(&s[mid + 1..], cut));
        node(l, s[mid].clone(), r)
    }
    go(s, parlay::cutoff(s.len(), 4096))
}

pub(crate) fn push_all<E: Clone, A: Augmentation<E>>(t: &Tree<E, A>, out: &mut Vec<E>) {
    if let Some(n) = t {
        push_all(&n.left, out);
        out.push(n.entry.clone());
        push_all(&n.right, out);
    }
}

/// Checks weight balance, key order, and cached sizes/aggregates.
pub(crate) fn check<E: Entry, A: Augmentation<E>>(t: &Tree<E, A>) -> Result<(), String>
where
    A::Value: PartialEq + std::fmt::Debug,
{
    let Some(n) = t else { return Ok(()) };
    if n.size != size(&n.left) + size(&n.right) + 1 {
        return Err("cached size mismatch".into());
    }
    if !balanced(weight(&n.left), weight(&n.right)) {
        return Err(format!(
            "imbalance: {} vs {}",
            weight(&n.left),
            weight(&n.right)
        ));
    }
    if let Some(l) = &n.left {
        if l.entry.key() >= n.entry.key() {
            return Err("left key out of order".into());
        }
    }
    if let Some(r) = &n.right {
        if r.entry.key() <= n.entry.key() {
            return Err("right key out of order".into());
        }
    }
    let expected = A::combine(
        &A::combine(&aug_of(&n.left), &A::from_entry(&n.entry)),
        &aug_of(&n.right),
    );
    if n.aug != expected {
        return Err(format!("aug mismatch: {:?} != {:?}", n.aug, expected));
    }
    check(&n.left)?;
    check(&n.right)
}
