//! P-trees: the PAM baseline (Sun, Ferizovic, Blelloch; PPoPP 2018).
//!
//! A from-scratch reimplementation of the purely-functional augmented
//! maps the paper compares CPAM against: weight-balanced binary search
//! trees storing **one entry per node**, with join-based parallel set
//! algorithms and per-node augmented values.
//!
//! This crate serves two roles in the reproduction:
//!
//! 1. the *baseline* for every space and time comparison in the paper's
//!    evaluation (Figs. 1, 2, 11, 13; Tables 2, 3) — P-trees pay 3-5x the
//!    memory of PaC-trees since every entry carries two child pointers,
//!    a size, an aggregate and refcounts;
//! 2. an independent *oracle* for differential testing of `cpam` (two
//!    implementations of the same interface must agree).
//!
//! ```
//! use pam::PamMap;
//!
//! let m: PamMap<u64, u64> = PamMap::from_pairs((0..100).map(|i| (i, i)).collect());
//! let m2 = m.insert(200, 1);
//! assert_eq!(m.len(), 100);
//! assert_eq!(m2.len(), 101);
//! assert_eq!(m2.union(&m).len(), 101);
//! ```

mod tree;

use cpam::{Augmentation, Element, NoAug, ScalarKey};
use tree::Tree;

/// Least problem size, in entries, worth a fork: each operation passes
/// `parlay::cutoff(root size, FORK_FLOOR)` down its recursion and forks
/// through `parlay::join_if` above it, the same rule as `cpam`'s.
const FORK_FLOOR: usize = 1024;

/// A purely-functional ordered map on P-trees (one entry per node).
pub struct PamMap<K, V, A = NoAug>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
{
    root: Tree<(K, V), A>,
}

impl<K: ScalarKey, V: Element, A: Augmentation<(K, V)>> Clone for PamMap<K, V, A> {
    fn clone(&self) -> Self {
        PamMap {
            root: self.root.clone(),
        }
    }
}

impl<K: ScalarKey, V: Element, A: Augmentation<(K, V)>> Default for PamMap<K, V, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: ScalarKey, V: Element, A: Augmentation<(K, V)>> std::fmt::Debug for PamMap<K, V, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PamMap").field("len", &self.len()).finish()
    }
}

impl<K, V, A> PamMap<K, V, A>
where
    K: ScalarKey,
    V: Element,
    A: Augmentation<(K, V)>,
{
    /// An empty map.
    pub fn new() -> Self {
        PamMap { root: None }
    }

    /// Builds from arbitrary pairs (parallel sort; last duplicate wins).
    pub fn from_pairs(mut pairs: Vec<(K, V)>) -> Self {
        parlay::par_sort_by(&mut pairs, &|a, b| a.0.cmp(&b.0));
        let mut dedup: Vec<(K, V)> = Vec::with_capacity(pairs.len());
        for p in pairs {
            if dedup.last().is_some_and(|q| q.0 == p.0) {
                *dedup.last_mut().expect("nonempty") = p;
            } else {
                dedup.push(p);
            }
        }
        PamMap {
            root: tree::from_sorted(&dedup),
        }
    }

    /// Builds from strictly-increasing sorted pairs in `O(n)`.
    pub fn from_sorted_pairs(pairs: &[(K, V)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        PamMap {
            root: tree::from_sorted(pairs),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        tree::size(&self.root)
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The value under `k`. `O(log n)`.
    pub fn find(&self, k: &K) -> Option<V> {
        let mut cur = &self.root;
        while let Some(n) = cur {
            match k.cmp(&n.entry.0) {
                std::cmp::Ordering::Equal => return Some(n.entry.1.clone()),
                std::cmp::Ordering::Less => cur = &n.left,
                std::cmp::Ordering::Greater => cur = &n.right,
            }
        }
        None
    }

    /// True if `k` is present.
    pub fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_some()
    }

    /// A new map with `(k, v)` inserted (replace semantics).
    pub fn insert(&self, k: K, v: V) -> Self {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>>(
            t: &Tree<(K, V), A>,
            e: (K, V),
        ) -> Tree<(K, V), A> {
            let Some(n) = t else {
                return tree::node(None, e, None);
            };
            match e.0.cmp(&n.entry.0) {
                std::cmp::Ordering::Equal => tree::node(n.left.clone(), e, n.right.clone()),
                std::cmp::Ordering::Less => {
                    tree::join(go(&n.left, e), n.entry.clone(), n.right.clone())
                }
                std::cmp::Ordering::Greater => {
                    tree::join(n.left.clone(), n.entry.clone(), go(&n.right, e))
                }
            }
        }
        PamMap {
            root: go(&self.root, (k, v)),
        }
    }

    /// A new map without `k`.
    pub fn remove(&self, k: &K) -> Self {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>>(
            t: &Tree<(K, V), A>,
            k: &K,
        ) -> Tree<(K, V), A> {
            let Some(n) = t else { return None };
            match k.cmp(&n.entry.0) {
                std::cmp::Ordering::Equal => tree::join2(n.left.clone(), n.right.clone()),
                std::cmp::Ordering::Less => {
                    tree::join(go(&n.left, k), n.entry.clone(), n.right.clone())
                }
                std::cmp::Ordering::Greater => {
                    tree::join(n.left.clone(), n.entry.clone(), go(&n.right, k))
                }
            }
        }
        PamMap {
            root: go(&self.root, k),
        }
    }

    /// Union; on duplicates the entry from `other` wins.
    pub fn union(&self, other: &Self) -> Self {
        self.union_with(other, |_, theirs| theirs.clone())
    }

    /// Union with a value combiner.
    pub fn union_with(&self, other: &Self, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>, F: Fn(&V, &V) -> V + Sync>(
            t1: Tree<(K, V), A>,
            t2: Tree<(K, V), A>,
            f: &F,
            cut: usize,
        ) -> Tree<(K, V), A> {
            let (Some(_), Some(n2)) = (&t1, &t2) else {
                return t1.or(t2);
            };
            let total = tree::size(&t1) + n2.size;
            let (l2, e2, r2) = tree::expose(n2);
            let (l1, m, r1) = tree::split(&t1, &e2.0);
            let entry = match m {
                Some(e1) => (e2.0.clone(), f(&e1.1, &e2.1)),
                None => e2,
            };
            let (tl, tr) =
                parlay::join_if(total > cut, || go(l1, l2, f, cut), || go(r1, r2, f, cut));
            tree::join(tl, entry, tr)
        }
        PamMap {
            root: go(
                self.root.clone(),
                other.root.clone(),
                &f,
                parlay::cutoff(self.len() + other.len(), FORK_FLOOR),
            ),
        }
    }

    /// Intersection with a value combiner.
    pub fn intersect_with(&self, other: &Self, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>, F: Fn(&V, &V) -> V + Sync>(
            t1: Tree<(K, V), A>,
            t2: Tree<(K, V), A>,
            f: &F,
            cut: usize,
        ) -> Tree<(K, V), A> {
            let (Some(_), Some(n2)) = (&t1, &t2) else {
                return None;
            };
            let total = tree::size(&t1) + n2.size;
            let (l2, e2, r2) = tree::expose(n2);
            let (l1, m, r1) = tree::split(&t1, &e2.0);
            let (tl, tr) =
                parlay::join_if(total > cut, || go(l1, l2, f, cut), || go(r1, r2, f, cut));
            match m {
                Some(e1) => tree::join(tl, (e2.0.clone(), f(&e1.1, &e2.1)), tr),
                None => tree::join2(tl, tr),
            }
        }
        PamMap {
            root: go(
                self.root.clone(),
                other.root.clone(),
                &f,
                parlay::cutoff(self.len() + other.len(), FORK_FLOOR),
            ),
        }
    }

    /// Entries of `self` whose keys are absent from `other`.
    pub fn difference(&self, other: &Self) -> Self {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>>(
            t1: Tree<(K, V), A>,
            t2: Tree<(K, V), A>,
            cut: usize,
        ) -> Tree<(K, V), A> {
            let (Some(_), Some(n2)) = (&t1, &t2) else {
                return t1;
            };
            let total = tree::size(&t1) + n2.size;
            let (l2, e2, r2) = tree::expose(n2);
            let (l1, _m, r1) = tree::split(&t1, &e2.0);
            let (tl, tr) = parlay::join_if(total > cut, || go(l1, l2, cut), || go(r1, r2, cut));
            tree::join2(tl, tr)
        }
        PamMap {
            root: go(
                self.root.clone(),
                other.root.clone(),
                parlay::cutoff(self.len() + other.len(), FORK_FLOOR),
            ),
        }
    }

    /// Batch insert (sort + dedup + merge; new values replace old).
    pub fn multi_insert(&self, batch: Vec<(K, V)>) -> Self {
        self.multi_insert_with(batch, |_, new| new.clone())
    }

    /// Batch insert with `f(old, new)` combining values on existing keys;
    /// duplicate keys within the batch are combined with `f` too.
    pub fn multi_insert_with(&self, mut batch: Vec<(K, V)>, f: impl Fn(&V, &V) -> V + Sync) -> Self {
        parlay::par_sort_by(&mut batch, &|a, b| a.0.cmp(&b.0));
        let mut dedup: Vec<(K, V)> = Vec::with_capacity(batch.len());
        for p in batch {
            match dedup.last_mut() {
                Some(q) if q.0 == p.0 => q.1 = f(&q.1, &p.1),
                _ => dedup.push(p),
            }
        }
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>, F: Fn(&V, &V) -> V + Sync>(
            t: Tree<(K, V), A>,
            batch: &[(K, V)],
            f: &F,
            cut: usize,
        ) -> Tree<(K, V), A> {
            if batch.is_empty() {
                return t;
            }
            let Some(n) = &t else {
                return tree::from_sorted(batch);
            };
            let (l, e, r) = tree::expose(n);
            let pos = batch.partition_point(|x| x.0 < e.0);
            let (entry, rest) = if pos < batch.len() && batch[pos].0 == e.0 {
                ((e.0.clone(), f(&e.1, &batch[pos].1)), pos + 1)
            } else {
                (e, pos)
            };
            let (tl, tr) = parlay::join_if(
                tree::size(&t) + batch.len() > cut,
                || go(l, &batch[..pos], f, cut),
                || go(r, &batch[rest..], f, cut),
            );
            tree::join(tl, entry, tr)
        }
        let cut = parlay::cutoff(self.len() + dedup.len(), FORK_FLOOR);
        PamMap {
            root: go(self.root.clone(), &dedup, &f, cut),
        }
    }

    /// Keeps entries satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&K, &V) -> bool + Sync) -> Self {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>, F: Fn(&K, &V) -> bool + Sync>(
            t: &Tree<(K, V), A>,
            pred: &F,
            cut: usize,
        ) -> Tree<(K, V), A> {
            let Some(n) = t else { return None };
            let (tl, tr) = parlay::join_if(
                n.size > cut,
                || go(&n.left, pred, cut),
                || go(&n.right, pred, cut),
            );
            if pred(&n.entry.0, &n.entry.1) {
                tree::join(tl, n.entry.clone(), tr)
            } else {
                tree::join2(tl, tr)
            }
        }
        PamMap {
            root: go(&self.root, &pred, parlay::cutoff(self.len(), FORK_FLOOR)),
        }
    }

    /// Maps values in place (same keys, same shape).
    pub fn map_values<V2: Element>(&self, f: impl Fn(&K, &V) -> V2 + Sync) -> PamMap<K, V2> {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>, V2: Element, F>(
            t: &Tree<(K, V), A>,
            f: &F,
            cut: usize,
        ) -> Tree<(K, V2), NoAug>
        where
            F: Fn(&K, &V) -> V2 + Sync,
        {
            let Some(n) = t else { return None };
            let (tl, tr) = parlay::join_if(
                n.size > cut,
                || go(&n.left, f, cut),
                || go(&n.right, f, cut),
            );
            tree::node(tl, (n.entry.0.clone(), f(&n.entry.0, &n.entry.1)), tr)
        }
        PamMap {
            root: go(&self.root, &f, parlay::cutoff(self.len(), FORK_FLOOR)),
        }
    }

    /// Parallel map-reduce over entries.
    pub fn map_reduce<R: Send + Sync + Clone>(
        &self,
        m: impl Fn(&K, &V) -> R + Sync,
        op: impl Fn(R, R) -> R + Sync,
        id: R,
    ) -> R {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>, R, M, Op>(
            t: &Tree<(K, V), A>,
            m: &M,
            op: &Op,
            id: R,
            cut: usize,
        ) -> R
        where
            R: Send + Sync + Clone,
            M: Fn(&K, &V) -> R + Sync,
            Op: Fn(R, R) -> R + Sync,
        {
            let Some(n) = t else { return id };
            let (a, c) = parlay::join_if(
                n.size > cut,
                || go(&n.left, m, op, id.clone(), cut),
                || go(&n.right, m, op, id.clone(), cut),
            );
            op(op(a, m(&n.entry.0, &n.entry.1)), c)
        }
        go(
            &self.root,
            &m,
            &op,
            id,
            parlay::cutoff(self.len(), FORK_FLOOR),
        )
    }

    /// Number of keys strictly below `k`.
    pub fn rank(&self, k: &K) -> usize {
        let mut acc = 0;
        let mut cur = &self.root;
        while let Some(n) = cur {
            if k <= &n.entry.0 {
                cur = &n.left;
            } else {
                acc += tree::size(&n.left) + 1;
                cur = &n.right;
            }
        }
        acc
    }

    /// The `i`-th entry in key order.
    pub fn select(&self, i: usize) -> Option<(K, V)> {
        let mut cur = &self.root;
        let mut i = i;
        while let Some(n) = cur {
            let ls = tree::size(&n.left);
            match i.cmp(&ls) {
                std::cmp::Ordering::Less => cur = &n.left,
                std::cmp::Ordering::Equal => return Some(n.entry.clone()),
                std::cmp::Ordering::Greater => {
                    i -= ls + 1;
                    cur = &n.right;
                }
            }
        }
        None
    }

    /// Largest entry with key `<= k`.
    pub fn pred(&self, k: &K) -> Option<(K, V)> {
        let mut best = None;
        let mut cur = &self.root;
        while let Some(n) = cur {
            if &n.entry.0 <= k {
                best = Some(n.entry.clone());
                cur = &n.right;
            } else {
                cur = &n.left;
            }
        }
        best
    }

    /// Smallest entry with key `>= k`.
    pub fn succ(&self, k: &K) -> Option<(K, V)> {
        let mut best = None;
        let mut cur = &self.root;
        while let Some(n) = cur {
            if &n.entry.0 >= k {
                best = Some(n.entry.clone());
                cur = &n.left;
            } else {
                cur = &n.right;
            }
        }
        best
    }

    /// The submap with keys in `[lo, hi]`.
    pub fn range(&self, lo: &K, hi: &K) -> Self {
        let (_, m_lo, ge) = tree::split(&self.root, lo);
        let (mid, m_hi, _) = tree::split(&ge, hi);
        let mut out = mid;
        if let Some(e) = m_hi {
            out = tree::join(out, e, None);
        }
        if let Some(e) = m_lo {
            out = tree::join(None, e, out);
        }
        PamMap { root: out }
    }

    /// Aggregate of all entries.
    pub fn aug_value(&self) -> A::Value {
        tree::aug_of(&self.root)
    }

    /// Folds over every stored augmented value (one per node).
    pub fn fold_augs<R>(&self, init: R, mut f: impl FnMut(R, &A::Value) -> R) -> R {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>, R>(
            t: &Tree<(K, V), A>,
            acc: R,
            f: &mut dyn FnMut(R, &A::Value) -> R,
        ) -> R {
            let Some(n) = t else { return acc };
            let acc = f(acc, &n.aug);
            let acc = go(&n.left, acc, f);
            go(&n.right, acc, f)
        }
        go(&self.root, init, &mut f)
    }

    /// Augmentation-pruned search (mirrors `cpam`'s): collects entries
    /// with key `<= kmax` satisfying `pred`, skipping subtrees where
    /// `enter(aug)` is false.
    pub fn prune_search(
        &self,
        kmax: &K,
        enter: impl Fn(&A::Value) -> bool,
        pred: impl Fn(&K, &V) -> bool,
    ) -> Vec<(K, V)> {
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>>(
            t: &Tree<(K, V), A>,
            kmax: &K,
            enter: &dyn Fn(&A::Value) -> bool,
            pred: &dyn Fn(&K, &V) -> bool,
            out: &mut Vec<(K, V)>,
        ) {
            let Some(n) = t else { return };
            if !enter(&n.aug) {
                return;
            }
            go(&n.left, kmax, enter, pred, out);
            if &n.entry.0 <= kmax {
                if pred(&n.entry.0, &n.entry.1) {
                    out.push(n.entry.clone());
                }
                go(&n.right, kmax, enter, pred, out);
            }
        }
        let mut out = Vec::new();
        go(&self.root, kmax, &enter, &pred, &mut out);
        out
    }

    /// Canonical range decomposition (mirrors `cpam`'s): `f` receives
    /// the aggregate of each maximal subtree fully inside `[lo, hi]` and
    /// each boundary entry.
    pub fn range_decompose(&self, lo: &K, hi: &K, mut f: impl FnMut(cpam::RangePart<'_, K, V, A::Value>)) {
        use cpam::RangePart;
        /// The decomposition callback (factored out per clippy's
        /// type-complexity lint).
        type Sink<'f, K, V, AV> = dyn for<'a> FnMut(cpam::RangePart<'a, K, V, AV>) + 'f;
        fn whole<K: ScalarKey, V: Element, A: Augmentation<(K, V)>>(
            t: &Tree<(K, V), A>,
            f: &mut Sink<'_, K, V, A::Value>,
        ) {
            if let Some(n) = t {
                f(RangePart::Subtree(&n.aug));
            }
        }
        fn ge<K: ScalarKey, V: Element, A: Augmentation<(K, V)>>(
            t: &Tree<(K, V), A>,
            lo: &K,
            f: &mut Sink<'_, K, V, A::Value>,
        ) {
            let Some(n) = t else { return };
            if &n.entry.0 >= lo {
                f(RangePart::Entry(&n.entry.0, &n.entry.1));
                whole(&n.right, f);
                ge(&n.left, lo, f);
            } else {
                ge(&n.right, lo, f);
            }
        }
        fn le<K: ScalarKey, V: Element, A: Augmentation<(K, V)>>(
            t: &Tree<(K, V), A>,
            hi: &K,
            f: &mut Sink<'_, K, V, A::Value>,
        ) {
            let Some(n) = t else { return };
            if &n.entry.0 <= hi {
                whole(&n.left, f);
                f(RangePart::Entry(&n.entry.0, &n.entry.1));
                le(&n.right, hi, f);
            } else {
                le(&n.left, hi, f);
            }
        }
        fn go<K: ScalarKey, V: Element, A: Augmentation<(K, V)>>(
            t: &Tree<(K, V), A>,
            lo: &K,
            hi: &K,
            f: &mut Sink<'_, K, V, A::Value>,
        ) {
            let Some(n) = t else { return };
            let k = &n.entry.0;
            if k < lo {
                go(&n.right, lo, hi, f);
            } else if k > hi {
                go(&n.left, lo, hi, f);
            } else {
                ge(&n.left, lo, f);
                f(RangePart::Entry(&n.entry.0, &n.entry.1));
                le(&n.right, hi, f);
            }
        }
        go(&self.root, lo, hi, &mut f);
    }

    /// Aggregate of entries with keys in `[lo, hi]` (by splitting; the
    /// PAM library uses an equivalent descent).
    pub fn aug_range(&self, lo: &K, hi: &K) -> A::Value {
        self.range(lo, hi).aug_value()
    }

    /// All entries in key order.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        tree::push_all(&self.root, &mut out);
        out
    }

    /// Estimated heap bytes: one node (two pointers, size, aggregate,
    /// entry) plus `Arc` refcounts per entry.
    pub fn space_bytes(&self) -> usize {
        let per_node = std::mem::size_of::<tree::Node<(K, V), A>>() + 2 * 8;
        self.len() * per_node
    }

    /// Verifies balance, order, sizes and aggregates.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String>
    where
        A::Value: PartialEq + std::fmt::Debug,
    {
        tree::check(&self.root)
    }
}

/// A purely-functional ordered set on P-trees.
pub struct PamSet<K: ScalarKey> {
    map: PamMap<K, ()>,
}

impl<K: ScalarKey> Clone for PamSet<K> {
    fn clone(&self) -> Self {
        PamSet {
            map: self.map.clone(),
        }
    }
}

impl<K: ScalarKey> Default for PamSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: ScalarKey> std::fmt::Debug for PamSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PamSet").field("len", &self.len()).finish()
    }
}

impl<K: ScalarKey> PamSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        PamSet { map: PamMap::new() }
    }

    /// Builds from arbitrary keys.
    pub fn from_keys(keys: Vec<K>) -> Self {
        PamSet {
            map: PamMap::from_pairs(keys.into_iter().map(|k| (k, ())).collect()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    /// A new set with `k` added.
    pub fn insert(&self, k: K) -> Self {
        PamSet {
            map: self.map.insert(k, ()),
        }
    }

    /// A new set without `k`.
    pub fn remove(&self, k: &K) -> Self {
        PamSet {
            map: self.map.remove(k),
        }
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        PamSet {
            map: self.map.union(&other.map),
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Self) -> Self {
        PamSet {
            map: self.map.intersect_with(&other.map, |_, _| ()),
        }
    }

    /// Elements of `self` not in `other`.
    pub fn difference(&self, other: &Self) -> Self {
        PamSet {
            map: self.map.difference(&other.map),
        }
    }

    /// Batch insert.
    pub fn multi_insert(&self, keys: Vec<K>) -> Self {
        PamSet {
            map: self
                .map
                .multi_insert(keys.into_iter().map(|k| (k, ())).collect()),
        }
    }

    /// All elements in order.
    pub fn to_vec(&self) -> Vec<K> {
        self.map.to_vec().into_iter().map(|(k, ())| k).collect()
    }

    /// Number of elements in `[lo, hi]` (0 when `hi < lo`).
    pub fn count_range(&self, lo: &K, hi: &K) -> usize {
        if hi < lo {
            return 0;
        }
        let below_hi = self.map.rank(hi) + usize::from(self.contains(hi));
        below_hi - self.map.rank(lo)
    }

    /// Elements in `[lo, hi]`, in order.
    pub fn range_keys(&self, lo: &K, hi: &K) -> Vec<K> {
        self.map
            .range(lo, hi)
            .to_vec()
            .into_iter()
            .map(|(k, ())| k)
            .collect()
    }

    /// Estimated heap bytes.
    pub fn space_bytes(&self) -> usize {
        self.map.space_bytes()
    }

    /// Verifies structural invariants.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.map.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn build_and_point_ops() {
        let m: PamMap<u64, u64> = PamMap::from_pairs((0..500).map(|i| (i * 2, i)).collect());
        m.check_invariants().expect("invariants");
        assert_eq!(m.len(), 500);
        assert_eq!(m.find(&40), Some(20));
        assert_eq!(m.find(&41), None);
        let m2 = m.insert(41, 99).remove(&40);
        m2.check_invariants().expect("invariants");
        assert_eq!(m2.find(&41), Some(99));
        assert_eq!(m2.find(&40), None);
        assert_eq!(m.find(&40), Some(20), "persistence");
    }

    #[test]
    fn set_algebra_matches_oracle() {
        // 5 000 keys a side is above both fork floors, so a pool of two
        // or more workers forks the set operations and the builds.
        for n in [300u64, 5_000] {
            let a = PamSet::from_keys((0..n).map(|i| i * 2).collect());
            let b = PamSet::from_keys((0..n).map(|i| i * 3).collect());
            let u = a.union(&b);
            u.check_invariants().expect("invariants");
            let expected: std::collections::BTreeSet<u64> =
                (0..n).map(|i| i * 2).chain((0..n).map(|i| i * 3)).collect();
            assert_eq!(u.to_vec(), expected.into_iter().collect::<Vec<_>>());
            assert_eq!(
                a.intersect(&b).to_vec(),
                (0..2 * n).step_by(6).collect::<Vec<_>>()
            );
            let d = a.difference(&b);
            d.check_invariants().expect("invariants");
            assert_eq!(
                d.to_vec(),
                (0..n)
                    .map(|i| i * 2)
                    .filter(|k| k % 3 != 0)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multi_insert_and_filter() {
        let m: PamMap<u64, u64> = PamMap::from_pairs((0..200).map(|i| (i, 0)).collect());
        let m2 = m.multi_insert((100..400).map(|i| (i, 1)).collect());
        m2.check_invariants().expect("invariants");
        assert_eq!(m2.len(), 400);
        assert_eq!(m2.find(&150), Some(1));
        let f = m2.filter(|k, _| k % 2 == 0);
        assert_eq!(f.len(), 200);
    }

    #[test]
    fn rank_select_range() {
        let m: PamMap<u64, u64> = PamMap::from_pairs((0..100).map(|i| (i * 5, i)).collect());
        assert_eq!(m.rank(&0), 0);
        assert_eq!(m.rank(&26), 6);
        assert_eq!(m.select(6).map(|e| e.0), Some(30));
        assert_eq!(m.range(&12, &31).to_vec().len(), 4);
    }

    #[test]
    fn aug_sum_map() {
        use cpam::SumAug;
        let m: PamMap<u64, u64, SumAug> =
            PamMap::from_pairs((0..100u64).map(|i| (i, i)).collect());
        assert_eq!(m.aug_value(), 4950);
        assert_eq!(m.aug_range(&10, &19), (10..20u64).sum::<u64>());
        let m2 = m.insert(1000, 50);
        assert_eq!(m2.aug_value(), 5000);
    }

    #[test]
    fn map_reduce_and_map_values() {
        let m: PamMap<u64, u64> = PamMap::from_pairs((0..1000).map(|i| (i, 1)).collect());
        assert_eq!(m.map_reduce(|_, v| *v, |a, b| a + b, 0u64), 1000);
        let doubled = m.map_values(|_, v| v * 2);
        assert_eq!(doubled.find(&5), Some(2));
    }

    #[test]
    fn agrees_with_btreemap_on_random_ops() {
        let mut m: PamMap<u64, u64> = PamMap::new();
        let mut oracle = BTreeMap::new();
        let mut state = 0x12345678u64;
        for step in 0..500u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = state % 128;
            if step % 3 == 2 {
                m = m.remove(&k);
                oracle.remove(&k);
            } else {
                m = m.insert(k, step);
                oracle.insert(k, step);
            }
        }
        m.check_invariants().expect("invariants");
        assert_eq!(m.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}
