//! The Section 7 work-tradeoff variant: unsorted leaf buffers.
//!
//! The paper sketches an *in-place* PaC-tree variant whose leaves are
//! left unsorted so a point update costs amortized `O(log(n/B))` —
//! finding the leaf and appending — while lookups pay `O(B + log n)` to
//! scan a whole leaf. Leaf capacities are relaxed to `B..(2+3c)B` with a
//! padding fraction `c`, so a split or merge (costing `O(B)`) is paid
//! for by the `Ω(cB)` updates needed to trigger the next one
//! (Theorem 7.1). The intended regime is update-heavy workloads, or
//! top-k queries with `B = k` where the answer is one leaf scan.
//!
//! Following the paper, this structure is mutable (updated in place) —
//! the whole point is to avoid path-copying costs — so it intentionally
//! does **not** provide snapshots. We keep the leaf directory as a
//! sorted boundary array rather than a weight-balanced tree: for the
//! single-element updates and queries evaluated here the costs are the
//! same (`O(log(n/B))` directory search + `O(1)`/`O(B)` leaf work), and
//! the simpler directory makes the amortization argument directly
//! visible. See `DESIGN.md` for this substitution note.

use crate::entry::ScalarKey;

/// An ordered set with unsorted leaf buffers (Section 7 of the paper).
///
/// # Examples
///
/// ```
/// use cpam::UnsortedLeafSet;
///
/// let mut s = UnsortedLeafSet::new(64);
/// for k in 0..1000u64 {
///     s.insert(k * 3);
/// }
/// assert!(s.contains(&30));
/// assert!(!s.contains(&31));
/// assert_eq!(s.len(), 1000);
/// assert_eq!(s.smallest(5), vec![0, 3, 6, 9, 12]);
/// ```
#[derive(Debug, Clone)]
pub struct UnsortedLeafSet<K: ScalarKey> {
    /// `boundaries[i]` is a lower bound for every key in `buckets[i]`;
    /// bucket 0 has no lower bound. Sorted.
    boundaries: Vec<K>,
    /// Unsorted leaf buffers; `buckets.len() == boundaries.len() + 1`.
    buckets: Vec<Vec<K>>,
    len: usize,
    b: usize,
}

/// Padding fraction `c` (paper suggests any constant > 0; it uses 0.1 in
/// its example). Capacity is `B..=(2 + 3c)B`, i.e. `2.3B` here.
const PADDING_TENTHS: usize = 1;

impl<K: ScalarKey> UnsortedLeafSet<K> {
    /// An empty set with leaf parameter `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn new(b: usize) -> Self {
        assert!(b > 0, "leaf parameter must be positive");
        UnsortedLeafSet {
            boundaries: Vec::new(),
            buckets: vec![Vec::new()],
            len: 0,
            b,
        }
    }

    /// Builds from arbitrary keys.
    pub fn from_keys(b: usize, mut keys: Vec<K>) -> Self {
        parlay::par_sort(&mut keys);
        keys.dedup();
        let mut s = Self::new(b);
        if keys.is_empty() {
            return s;
        }
        // Pack into target-size leaves of ~(1 + c)B each: mid-band, so
        // both the next split and the next merge are ~cB updates away.
        let target = s.max_leaf().div_ceil(2).max(1);
        s.buckets.clear();
        s.boundaries.clear();
        for chunk in keys.chunks(target) {
            if !s.buckets.is_empty() {
                s.boundaries.push(chunk[0].clone());
            }
            s.buckets.push(chunk.to_vec());
        }
        // The final chunk may be undersized; fold it into its neighbor.
        if s.buckets.len() > 1 && s.buckets.last().expect("nonempty").len() < b {
            let tail = s.buckets.pop().expect("nonempty");
            s.boundaries.pop();
            s.buckets.last_mut().expect("nonempty").extend(tail);
        }
        s.len = keys.len();
        s
    }

    fn max_leaf(&self) -> usize {
        // (2 + 3c) * B with c = PADDING_TENTHS / 10.
        (20 + 3 * PADDING_TENTHS) * self.b / 10
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the leaf whose range covers `k`.
    fn bucket_of(&self, k: &K) -> usize {
        self.boundaries.partition_point(|bound| bound <= k)
    }

    /// Membership test: directory search plus one unsorted leaf scan.
    /// `O(B + log(n/B))` work — the query side of the tradeoff.
    pub fn contains(&self, k: &K) -> bool {
        self.buckets[self.bucket_of(k)].contains(k)
    }

    /// Inserts `k`; returns true if it was new. The leaf scan makes this
    /// `O(B + log(n/B))`; see [`UnsortedLeafSet::insert_distinct`] for
    /// the paper's `O(log(n/B))` append path.
    pub fn insert(&mut self, k: K) -> bool {
        if self.buckets[self.bucket_of(&k)].contains(&k) {
            return false;
        }
        self.insert_distinct(k);
        true
    }

    /// Appends a key known not to be present (the paper's update path:
    /// entries are located by unique identifier, so no duplicate scan is
    /// needed). Amortized `O(log(n/B))`: a directory search, a push, and
    /// an `O(B)` split charged to the `Ω(cB)` preceding appends.
    pub fn insert_distinct(&mut self, k: K) {
        let i = self.bucket_of(&k);
        self.buckets[i].push(k);
        self.len += 1;
        if self.buckets[i].len() > self.max_leaf() {
            self.split(i);
        }
    }

    /// Removes `k`; returns true if present. `O(B + log(n/B))`.
    pub fn remove(&mut self, k: &K) -> bool {
        let i = self.bucket_of(k);
        let Some(pos) = self.buckets[i].iter().position(|x| x == k) else {
            return false;
        };
        self.buckets[i].swap_remove(pos);
        self.len -= 1;
        if self.buckets[i].len() < self.b && self.buckets.len() > 1 {
            self.merge(i);
        }
        true
    }

    /// Splits an oversized leaf at its median into two mid-band leaves.
    fn split(&mut self, i: usize) {
        let mut keys = std::mem::take(&mut self.buckets[i]);
        let mid = keys.len() / 2;
        // O(B) expected selection; sorting keeps it simple and O(B log B),
        // still amortized O(log B) per triggering update.
        keys.sort_unstable();
        let right = keys.split_off(mid);
        let bound = right[0].clone();
        self.buckets[i] = keys;
        self.buckets.insert(i + 1, right);
        self.boundaries.insert(i, bound);
    }

    /// Merges an undersized leaf with a neighbor (re-splitting if the
    /// result would itself be oversized).
    fn merge(&mut self, i: usize) {
        let neighbor = if i == 0 { 1 } else { i - 1 };
        let (lo, hi) = (neighbor.min(i), neighbor.max(i));
        let right = self.buckets.remove(hi);
        self.buckets[lo].extend(right);
        self.boundaries.remove(lo);
        if self.buckets[lo].len() > self.max_leaf() {
            self.split(lo);
        }
    }

    /// The `k` smallest keys, sorted — the paper's motivating top-k
    /// query: with `B = k` it reads one or two leaves (`O(k)` work plus
    /// an `O(B log B)` sort of those leaves) instead of `O(n)`.
    pub fn smallest(&self, k: usize) -> Vec<K> {
        let mut out = Vec::with_capacity(k + self.max_leaf());
        for bucket in &self.buckets {
            out.extend(bucket.iter().cloned());
            if out.len() >= k {
                break;
            }
        }
        out.sort_unstable();
        out.truncate(k);
        out
    }

    /// All keys, sorted (for verification; `O(n log n)`).
    pub fn to_sorted_vec(&self) -> Vec<K> {
        let mut out: Vec<K> = self.buckets.iter().flatten().cloned().collect();
        out.sort_unstable();
        out
    }

    /// Verifies the structure: leaf sizes within `[B, (2+3c)B]` (except
    /// a lone leaf), boundary ordering, and bucket/range consistency.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String>
    where
        K: std::fmt::Debug,
    {
        if self.buckets.len() != self.boundaries.len() + 1 {
            return Err("directory/bucket count mismatch".into());
        }
        if self.boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return Err("boundaries out of order".into());
        }
        let total: usize = self.buckets.iter().map(Vec::len).sum();
        if total != self.len {
            return Err(format!("cached len {} != actual {total}", self.len));
        }
        for (i, bucket) in self.buckets.iter().enumerate() {
            if self.buckets.len() > 1 && bucket.len() < self.b {
                return Err(format!("bucket {i} under B: {}", bucket.len()));
            }
            if bucket.len() > self.max_leaf() {
                return Err(format!("bucket {i} over (2+3c)B: {}", bucket.len()));
            }
            for k in bucket {
                if i > 0 && k < &self.boundaries[i - 1] {
                    return Err(format!("key {k:?} below bucket {i} lower bound"));
                }
                if i < self.boundaries.len() && k >= &self.boundaries[i] {
                    return Err(format!("key {k:?} above bucket {i} upper bound"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove_oracle() {
        let mut s = UnsortedLeafSet::new(8);
        let mut oracle = BTreeSet::new();
        let mut state = 123u64;
        for step in 0..3000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = state % 500;
            if step % 3 == 2 {
                assert_eq!(s.remove(&k), oracle.remove(&k), "step {step}");
            } else {
                assert_eq!(s.insert(k), oracle.insert(k), "step {step}");
            }
            if step % 100 == 0 {
                s.check_invariants()
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        assert_eq!(s.to_sorted_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn from_keys_and_top_k() {
        let keys: Vec<u64> = (0..10_000).rev().map(|i| i * 2).collect();
        let s = UnsortedLeafSet::from_keys(64, keys);
        s.check_invariants().expect("invariants");
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.smallest(4), vec![0, 2, 4, 6]);
    }

    #[test]
    fn grows_and_shrinks_through_splits_and_merges() {
        let mut s = UnsortedLeafSet::new(4);
        for k in 0..500u64 {
            s.insert_distinct(k);
        }
        s.check_invariants().expect("after growth");
        for k in 0..480u64 {
            assert!(s.remove(&k));
        }
        s.check_invariants().expect("after shrink");
        assert_eq!(s.len(), 20);
        assert_eq!(s.to_sorted_vec(), (480..500u64).collect::<Vec<_>>());
    }

    #[test]
    fn single_bucket_edge_cases() {
        let mut s = UnsortedLeafSet::<u64>::new(16);
        assert!(s.is_empty());
        assert!(!s.remove(&1));
        s.insert(5);
        assert_eq!(s.smallest(10), vec![5]);
        s.remove(&5);
        assert!(s.is_empty());
        s.check_invariants().expect("empty again");
    }
}
