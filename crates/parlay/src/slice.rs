//! Array-based parallel sequence primitives.
//!
//! This module is the reproduction's stand-in for Intel ParallelSTL in the
//! paper's Figure 2: a *static* (array-backed) sequence interface with the
//! same operations the paper benchmarks against CPAM sequences. The key
//! asymptotic contrasts the paper highlights are preserved here:
//! `nth` is `O(1)` (vs `O(log n + B)` for trees) while `append` is
//! `O(n)` (copies both inputs, vs `O(log n + B)` for trees).

use crate::ops::SendPtr;
use crate::{blocked, reduce, tabulate, DEFAULT_GRAIN};

/// True if the slice is sorted with respect to `Ord`.
///
/// ```
/// assert!(parlay::slice::is_sorted(&[1, 2, 2, 3]));
/// assert!(!parlay::slice::is_sorted(&[2, 1]));
/// ```
pub fn is_sorted<T: Ord + Sync>(xs: &[T]) -> bool {
    if xs.len() < 2 {
        return true;
    }
    // Check adjacent pairs in parallel: pair i is (xs[i], xs[i+1]).
    reduce(
        &tabulate(xs.len() - 1, |i| i),
        true,
        |&i| xs[i] <= xs[i + 1],
        |a, b| a && b,
    )
}

/// Index of the first element satisfying `pred`, if any.
///
/// Processes geometrically growing prefixes so that an early match costs
/// `O(k)` work where `k` is the match position (the paper's `FindFirst`).
///
/// ```
/// let xs: Vec<i32> = (0..1000).collect();
/// assert_eq!(parlay::slice::find_first(&xs, |&x| x == 900), Some(900));
/// assert_eq!(parlay::slice::find_first(&xs, |&x| x > 2000), None);
/// ```
pub fn find_first<T, F>(xs: &[T], pred: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    let n = xs.len();
    let mut lo = 0usize;
    let mut width = DEFAULT_GRAIN;
    while lo < n {
        let hi = (lo + width).min(n);
        // Min-index reduction over the current window.
        let found = reduce(
            &tabulate(hi - lo, |i| lo + i),
            usize::MAX,
            |&i| if pred(&xs[i]) { i } else { usize::MAX },
            |a, b| a.min(b),
        );
        if found != usize::MAX {
            return Some(found);
        }
        lo = hi;
        width *= 2;
    }
    None
}

/// Returns a reversed copy of the slice, in parallel.
///
/// ```
/// assert_eq!(parlay::slice::reverse(&[1, 2, 3]), vec![3, 2, 1]);
/// ```
pub fn reverse<T: Clone + Send + Sync>(xs: &[T]) -> Vec<T> {
    let n = xs.len();
    tabulate(n, |i| xs[n - 1 - i].clone())
}

/// Copies the subrange `[lo, hi)` into a fresh vector, in parallel.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > xs.len()`.
///
/// ```
/// let xs: Vec<u32> = (0..10).collect();
/// assert_eq!(parlay::slice::subseq(&xs, 2, 5), vec![2, 3, 4]);
/// ```
pub fn subseq<T: Clone + Send + Sync>(xs: &[T], lo: usize, hi: usize) -> Vec<T> {
    assert!(lo <= hi && hi <= xs.len(), "subseq range out of bounds");
    tabulate(hi - lo, |i| xs[lo + i].clone())
}

/// Concatenates two slices into a fresh vector, in parallel.
///
/// This is the `O(n)` array append the paper contrasts with the
/// `O(log n + B)` tree join.
///
/// ```
/// assert_eq!(parlay::slice::append(&[1, 2], &[3]), vec![1, 2, 3]);
/// ```
pub fn append<T: Clone + Send + Sync>(a: &[T], b: &[T]) -> Vec<T> {
    let n = a.len() + b.len();
    let mut out: Vec<T> = Vec::with_capacity(n);
    let ptr = SendPtr(out.as_mut_ptr());
    blocked(0, n, DEFAULT_GRAIN, &|lo, hi| {
        for i in lo..hi {
            let v = if i < a.len() {
                a[i].clone()
            } else {
                b[i - a.len()].clone()
            };
            // SAFETY: disjoint writes within capacity.
            unsafe { ptr.raw().add(i).write(v) };
        }
    });
    // SAFETY: all n slots written.
    unsafe { out.set_len(n) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_sorted_detects_single_violation() {
        let mut xs: Vec<u32> = (0..50_000).collect();
        assert!(crate::run(|| is_sorted(&xs)));
        xs[30_000] = 0;
        assert!(!crate::run(|| is_sorted(&xs)));
    }

    #[test]
    fn is_sorted_edge_cases() {
        let empty: [u32; 0] = [];
        assert!(is_sorted(&empty));
        assert!(is_sorted(&[5]));
        assert!(is_sorted(&[5, 5, 5]));
    }

    #[test]
    fn find_first_returns_first_index() {
        let xs: Vec<u32> = (0..100_000).map(|i| i % 4).collect();
        // Element 3 first occurs at index 3.
        assert_eq!(crate::run(|| find_first(&xs, |&x| x == 3)), Some(3));
    }

    #[test]
    fn find_first_late_match() {
        let mut xs = vec![0u32; 80_000];
        xs[79_999] = 1;
        assert_eq!(crate::run(|| find_first(&xs, |&x| x == 1)), Some(79_999));
    }

    #[test]
    fn reverse_roundtrip() {
        let xs: Vec<u64> = (0..10_000).collect();
        assert_eq!(reverse(&reverse(&xs)), xs);
    }

    #[test]
    fn subseq_and_append_compose() {
        let xs: Vec<u32> = (0..10_000).collect();
        let left = subseq(&xs, 0, 5000);
        let right = subseq(&xs, 5000, 10_000);
        assert_eq!(append(&left, &right), xs);
    }
}
