//! 2D range trees (Section 9 of the paper).
//!
//! Points `(x, y)` live in an outer tree ordered by `(x, y)`; every
//! subtree's *augmented value* is itself a PaC-set of its points ordered
//! by `(y, x)` — PAM's classic trees-as-augmented-values construction.
//! Count queries decompose the x-range into `O(log n)` canonical
//! subtrees and rank the inner sets: `O(log^2 n)` per query. Report
//! queries additionally extract the matching inner ranges.
//!
//! The paper's Fig. 1 observation reproduces directly: 95% of the space
//! is the inner trees, so storing them as PaC-trees (inner `B = 16`)
//! instead of P-trees is where the 2.2x total saving comes from.

use codecs::DeltaCodec;
use cpam::{Augmentation, NoAug, PacSet, RangePart};
use pam::{PamMap, PamSet};

/// Packs `(major, minor)` coordinates order-preservingly.
fn pack(major: u32, minor: u32) -> u64 {
    (u64::from(major) << 32) | u64::from(minor)
}

/// Inner set: points ordered by `(y, x)`, difference-encoded.
pub type InnerSet = PacSet<u64, NoAug, DeltaCodec>;

/// Augmentation: the set of subtree points keyed by `(y, x)`.
///
/// `combine` is a PaC-tree union, so building the range tree costs
/// `O(n log n)` work per level as in PAM.
#[derive(Debug, Clone, Copy, Default)]
pub struct YSetAug;

/// The paper's inner-tree block size.
pub const INNER_B: usize = 16;

impl Augmentation<(u64, ())> for YSetAug {
    type Value = InnerSet;
    fn identity() -> InnerSet {
        PacSet::with_block_size(INNER_B)
    }
    fn from_entry(e: &(u64, ())) -> InnerSet {
        let (x, y) = ((e.0 >> 32) as u32, e.0 as u32);
        PacSet::from_sorted_keys(INNER_B, &[pack(y, x)])
    }
    fn combine(a: &InnerSet, b: &InnerSet) -> InnerSet {
        a.union(b)
    }
}

/// A 2D range tree on PaC-trees (outer `B = 128`, inner `B = 16`).
pub struct RangeTree2D {
    outer: cpam::PacMap<u64, (), YSetAug>,
}

impl Clone for RangeTree2D {
    fn clone(&self) -> Self {
        RangeTree2D {
            outer: self.outer.clone(),
        }
    }
}

impl std::fmt::Debug for RangeTree2D {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeTree2D")
            .field("points", &self.len())
            .finish()
    }
}

impl Default for RangeTree2D {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeTree2D {
    /// The paper's outer-tree block size.
    pub const OUTER_B: usize = 128;

    /// An empty range tree.
    pub fn new() -> Self {
        RangeTree2D {
            outer: cpam::PacMap::with_block_size(Self::OUTER_B),
        }
    }

    /// Builds from points (duplicates removed).
    pub fn from_points(points: &[(u32, u32)]) -> Self {
        let keys: Vec<(u64, ())> = points.iter().map(|&(x, y)| (pack(x, y), ())).collect();
        RangeTree2D {
            outer: cpam::PacMap::from_pairs_with(Self::OUTER_B, keys),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.outer.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.outer.is_empty()
    }

    /// A new tree with `p` added.
    pub fn insert(&self, x: u32, y: u32) -> Self {
        RangeTree2D {
            outer: self.outer.insert(pack(x, y), ()),
        }
    }

    /// A new tree without `p`.
    pub fn remove(&self, x: u32, y: u32) -> Self {
        RangeTree2D {
            outer: self.outer.remove(&pack(x, y)),
        }
    }

    /// Counts points in `[x1, x2] x [y1, y2]` (the paper's Q-Sum):
    /// `O(log^2 n)`.
    pub fn count(&self, x1: u32, y1: u32, x2: u32, y2: u32) -> usize {
        let (lo, hi) = (pack(x1, 0), pack(x2, u32::MAX));
        let (ylo, yhi) = (pack(y1, 0), pack(y2, u32::MAX));
        let mut count = 0usize;
        self.outer.range_decompose(&lo, &hi, |part| match part {
            RangePart::Subtree(inner) => count += inner.count_range(&ylo, &yhi),
            RangePart::Entry(k, ()) => {
                let y = (*k & 0xFFFF_FFFF) as u32;
                if y >= y1 && y <= y2 {
                    count += 1;
                }
            }
        });
        count
    }

    /// Reports all points in `[x1, x2] x [y1, y2]` (the paper's Q-All),
    /// in `(y, x)` order per canonical subtree.
    pub fn report(&self, x1: u32, y1: u32, x2: u32, y2: u32) -> Vec<(u32, u32)> {
        let (lo, hi) = (pack(x1, 0), pack(x2, u32::MAX));
        let (ylo, yhi) = (pack(y1, 0), pack(y2, u32::MAX));
        let mut out = Vec::new();
        self.outer.range_decompose(&lo, &hi, |part| match part {
            RangePart::Subtree(inner) => {
                for yx in inner.range_keys(&ylo, &yhi) {
                    out.push(((yx & 0xFFFF_FFFF) as u32, (yx >> 32) as u32));
                }
            }
            RangePart::Entry(k, ()) => {
                let (x, y) = ((*k >> 32) as u32, (*k & 0xFFFF_FFFF) as u32);
                if y >= y1 && y <= y2 {
                    out.push((x, y));
                }
            }
        });
        out
    }

    /// Heap bytes, split into (outer structure, inner augmented trees).
    ///
    /// The inner share is ~95% (paper, Section 10.4).
    pub fn space_bytes(&self) -> (usize, usize) {
        let outer = self.outer.space_stats().total_bytes;
        let mut inner = 0usize;
        // Sum the inner-tree bytes over all regular nodes and blocks by
        // walking the canonical decomposition of the full range.
        inner += self.inner_bytes();
        (outer, inner)
    }

    fn inner_bytes(&self) -> usize {
        // Every node's augmented value is an independent tree; approximate
        // the paper's accounting by summing over all O(n/B + n/B) stored
        // aggregates via map_reduce on entries is impossible (aggregates
        // live per node), so walk rank-by-rank: total = sum over all
        // stored aug values. We expose this through aug_fold below.
        self.outer.fold_augs(0usize, |acc, set| acc + set.space_stats().total_bytes)
    }
}

/// The PAM-baseline 2D range tree (P-tree outer, P-tree inner), Table 3.
pub struct PamRangeTree2D {
    outer: PamMap<u64, (), PamYSetAug>,
}

/// P-tree inner-set augmentation for the baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PamYSetAug;

impl Augmentation<(u64, ())> for PamYSetAug {
    type Value = PamSet<u64>;
    fn identity() -> PamSet<u64> {
        PamSet::new()
    }
    fn from_entry(e: &(u64, ())) -> PamSet<u64> {
        let (x, y) = ((e.0 >> 32) as u32, e.0 as u32);
        PamSet::from_keys(vec![pack(y, x)])
    }
    fn combine(a: &PamSet<u64>, b: &PamSet<u64>) -> PamSet<u64> {
        a.union(b)
    }
}

impl Default for PamRangeTree2D {
    fn default() -> Self {
        Self::new()
    }
}

impl PamRangeTree2D {
    /// An empty tree.
    pub fn new() -> Self {
        PamRangeTree2D {
            outer: PamMap::new(),
        }
    }

    /// Builds from points.
    pub fn from_points(points: &[(u32, u32)]) -> Self {
        let keys: Vec<(u64, ())> = points.iter().map(|&(x, y)| (pack(x, y), ())).collect();
        PamRangeTree2D {
            outer: PamMap::from_pairs(keys),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.outer.len()
    }

    /// True if the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.outer.len() == 0
    }

    /// Counts points in the rectangle.
    pub fn count(&self, x1: u32, y1: u32, x2: u32, y2: u32) -> usize {
        let (lo, hi) = (pack(x1, 0), pack(x2, u32::MAX));
        let (ylo, yhi) = (pack(y1, 0), pack(y2, u32::MAX));
        let mut count = 0usize;
        self.outer.range_decompose(&lo, &hi, |part| match part {
            RangePart::Subtree(inner) => count += inner.count_range(&ylo, &yhi),
            RangePart::Entry(k, ()) => {
                let y = (*k & 0xFFFF_FFFF) as u32;
                if y >= y1 && y <= y2 {
                    count += 1;
                }
            }
        });
        count
    }

    /// Reports points in the rectangle.
    pub fn report(&self, x1: u32, y1: u32, x2: u32, y2: u32) -> Vec<(u32, u32)> {
        let (lo, hi) = (pack(x1, 0), pack(x2, u32::MAX));
        let (ylo, yhi) = (pack(y1, 0), pack(y2, u32::MAX));
        let mut out = Vec::new();
        self.outer.range_decompose(&lo, &hi, |part| match part {
            RangePart::Subtree(inner) => {
                for yx in inner.range_keys(&ylo, &yhi) {
                    out.push(((yx & 0xFFFF_FFFF) as u32, (yx >> 32) as u32));
                }
            }
            RangePart::Entry(k, ()) => {
                let (x, y) = ((*k >> 32) as u32, (*k & 0xFFFF_FFFF) as u32);
                if y >= y1 && y <= y2 {
                    out.push((x, y));
                }
            }
        });
        out
    }

    /// Heap bytes (outer + inner).
    pub fn space_bytes(&self) -> (usize, usize) {
        let outer = self.outer.space_bytes();
        let inner = self
            .outer
            .fold_augs(0usize, |acc, set| acc + set.space_bytes());
        (outer, inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_count(points: &[(u32, u32)], x1: u32, y1: u32, x2: u32, y2: u32) -> usize {
        points
            .iter()
            .filter(|&&(x, y)| x >= x1 && x <= x2 && y >= y1 && y <= y2)
            .count()
    }

    fn random_points(n: usize, max: u32, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed | 1;
        let mut points: Vec<(u32, u32)> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % u64::from(max)) as u32, ((state >> 17) % u64::from(max)) as u32)
            })
            .collect();
        points.sort_unstable();
        points.dedup();
        points
    }

    #[test]
    fn count_matches_brute_force() {
        let points = random_points(3000, 1000, 9);
        let t = RangeTree2D::from_points(&points);
        let p = PamRangeTree2D::from_points(&points);
        assert_eq!(t.len(), points.len());
        for &(x1, y1, x2, y2) in &[
            (0u32, 0u32, 999u32, 999u32),
            (100, 100, 300, 400),
            (500, 0, 600, 999),
            (700, 700, 700, 700),
            (900, 900, 100, 100), // empty (inverted)
        ] {
            let expected = brute_count(&points, x1, y1, x2, y2);
            assert_eq!(t.count(x1, y1, x2, y2), expected, "pac {x1},{y1},{x2},{y2}");
            assert_eq!(p.count(x1, y1, x2, y2), expected, "pam {x1},{y1},{x2},{y2}");
        }
    }

    /// A rectangle inverted in only one dimension is empty: with a valid
    /// x-range and `y1 > y2` the inner sets are asked for an inverted
    /// interval, which used to underflow in `count_range` (a panic in
    /// debug builds, `2^64 - k` in release ones) while `report` on the
    /// same rectangle answered `[]`.
    #[test]
    fn count_of_a_half_inverted_rectangle_is_zero_like_report() {
        let points = random_points(2000, 2000, 5);
        let t = RangeTree2D::from_points(&points);
        let p = PamRangeTree2D::from_points(&points);
        for &(x1, y1, x2, y2) in &[
            (0u32, 500u32, 1999u32, 100u32), // y1 > y2
            (0, 1999, 1999, 0),
            (300, 301, 900, 300),
            (1500, 0, 200, 1999), // x1 > x2
            (1, 0, 0, u32::MAX),
        ] {
            assert_eq!(t.report(x1, y1, x2, y2), vec![], "pac {x1},{y1},{x2},{y2}");
            assert_eq!(t.count(x1, y1, x2, y2), 0, "pac {x1},{y1},{x2},{y2}");
            assert_eq!(p.report(x1, y1, x2, y2), vec![], "pam {x1},{y1},{x2},{y2}");
            assert_eq!(p.count(x1, y1, x2, y2), 0, "pam {x1},{y1},{x2},{y2}");
        }
        // And on ordinary rectangles the two queries agree.
        for &(x1, y1, x2, y2) in &[(0u32, 0u32, 1999u32, 1999u32), (100, 900, 1200, 901)] {
            assert_eq!(t.count(x1, y1, x2, y2), t.report(x1, y1, x2, y2).len());
        }
    }

    #[test]
    fn report_matches_brute_force() {
        let points = random_points(1500, 500, 33);
        let t = RangeTree2D::from_points(&points);
        let (x1, y1, x2, y2) = (50u32, 60u32, 350u32, 420u32);
        let mut got = t.report(x1, y1, x2, y2);
        got.sort_unstable();
        let mut expected: Vec<(u32, u32)> = points
            .iter()
            .copied()
            .filter(|&(x, y)| x >= x1 && x <= x2 && y >= y1 && y <= y2)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn insert_and_remove_update_counts() {
        let t = RangeTree2D::from_points(&[(1, 1), (2, 2), (3, 3)]);
        let t2 = t.insert(2, 3);
        assert_eq!(t2.count(0, 0, 10, 10), 4);
        assert_eq!(t.count(0, 0, 10, 10), 3, "persistence");
        let t3 = t2.remove(1, 1);
        assert_eq!(t3.count(0, 0, 10, 10), 3);
        assert_eq!(t3.count(1, 1, 1, 1), 0);
    }

    #[test]
    fn inner_trees_dominate_space() {
        let points = random_points(5000, 10_000, 77);
        let t = RangeTree2D::from_points(&points);
        let (outer, inner) = t.space_bytes();
        assert!(inner > outer, "inner {inner} should dominate outer {outer}");
    }
}
