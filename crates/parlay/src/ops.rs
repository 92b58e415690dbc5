//! Parallel primitives over index ranges and slices.
//!
//! All primitives are divide-and-conquer over [`crate::join`] with a
//! sequential base case of [`crate::DEFAULT_GRAIN`] elements, matching the
//! binary-forking cost model of the paper (work `O(n)`, span `O(log n)`).

use crate::{cutoff, join, DEFAULT_GRAIN};

/// A raw pointer that may be sent across threads.
///
/// Used to let disjoint index ranges of one output buffer be written from
/// different workers. Safety rests entirely on the user: tasks must write
/// disjoint ranges and the buffer must outlive all tasks.
#[derive(Debug)]
pub struct SendPtr<T>(pub *mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The raw pointer. Taking `self` by value makes closures capture
    /// the whole `SendPtr` (which is `Send + Sync`) instead of
    /// edition-2021 disjoint-capturing the bare `*mut T` field (which
    /// is neither) — the reason the old code rebound the pointer inside
    /// every closure.
    #[inline]
    pub fn raw(self) -> *mut T {
        self.0
    }
}

// SAFETY: the users of SendPtr only write disjoint ranges from each task.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Applies `body(lo, hi)` over disjoint subranges of `[lo, hi)` in
/// parallel, splitting until ranges have at most `grain` elements.
///
/// Forking stops early when the pool cannot use more parallel slack
/// (at [`cutoff`]`(n, grain)`, infinite on a 1-thread pool); below the
/// cutoff, `body` is still invoked on chunks of at most `grain`
/// elements, sequentially.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let total = AtomicU64::new(0);
/// parlay::blocked(0, 1000, 64, &|lo, hi| {
///     total.fetch_add((lo..hi).sum::<usize>() as u64, Ordering::Relaxed);
/// });
/// assert_eq!(total.into_inner(), 1000 * 999 / 2);
/// ```
pub fn blocked<F>(lo: usize, hi: usize, grain: usize, body: &F)
where
    F: Fn(usize, usize) + Sync,
{
    debug_assert!(grain > 0);
    if hi <= lo {
        return;
    }
    blocked_rec(lo, hi, grain, cutoff(hi - lo, grain), body);
}

fn blocked_rec<F>(lo: usize, hi: usize, grain: usize, fork_below: usize, body: &F)
where
    F: Fn(usize, usize) + Sync,
{
    if hi - lo <= fork_below {
        let mut at = lo;
        while at < hi {
            let end = at.saturating_add(grain).min(hi);
            body(at, end);
            at = end;
        }
    } else {
        let mid = lo + (hi - lo) / 2;
        join(
            || blocked_rec(lo, mid, grain, fork_below, body),
            || blocked_rec(mid, hi, grain, fork_below, body),
        );
    }
}

/// Calls `f(i)` for every `i` in `[0, n)` in parallel.
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let hits = AtomicUsize::new(0);
/// parlay::for_each_index(100, &|_i| { hits.fetch_add(1, Ordering::Relaxed); });
/// assert_eq!(hits.into_inner(), 100);
/// ```
pub fn for_each_index<F>(n: usize, f: &F)
where
    F: Fn(usize) + Sync,
{
    blocked(0, n, DEFAULT_GRAIN, &|lo, hi| {
        for i in lo..hi {
            f(i);
        }
    });
}

/// Builds a vector of length `n` where element `i` is `f(i)`, in parallel.
///
/// ```
/// let squares = parlay::tabulate(10, |i| i * i);
/// assert_eq!(squares[7], 49);
/// ```
pub fn tabulate<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<T> = Vec::with_capacity(n);
    let ptr = SendPtr(out.as_mut_ptr());
    blocked(0, n, DEFAULT_GRAIN, &|lo, hi| {
        for i in lo..hi {
            // SAFETY: each index is written exactly once, within capacity.
            unsafe { ptr.raw().add(i).write(f(i)) };
        }
    });
    // SAFETY: all n slots were initialized above.
    unsafe { out.set_len(n) };
    out
}

/// Applies `f` to every element of `xs` in parallel, collecting results.
///
/// ```
/// let xs = vec![1, 2, 3];
/// assert_eq!(parlay::map(&xs, |x| x * 10), vec![10, 20, 30]);
/// ```
pub fn map<T, U, F>(xs: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    tabulate(xs.len(), |i| f(&xs[i]))
}

/// Parallel reduction: maps each element with `m`, combines with the
/// associative operator `op` starting from identity `id`.
///
/// ```
/// let xs: Vec<u32> = (1..=6).collect();
/// let product = parlay::reduce(&xs, 1u64, |x| *x as u64, |a, b| a * b);
/// assert_eq!(product, 720);
/// ```
pub fn reduce<T, R, M, Op>(xs: &[T], id: R, m: M, op: Op) -> R
where
    T: Sync,
    R: Send + Sync + Clone,
    M: Fn(&T) -> R + Sync,
    Op: Fn(R, R) -> R + Sync,
{
    fn go<T, R, M, Op>(xs: &[T], id: &R, m: &M, op: &Op, fork_below: usize) -> R
    where
        T: Sync,
        R: Send + Sync + Clone,
        M: Fn(&T) -> R + Sync,
        Op: Fn(R, R) -> R + Sync,
    {
        if xs.len() <= fork_below {
            xs.iter().fold(id.clone(), |acc, x| op(acc, m(x)))
        } else {
            let (l, r) = xs.split_at(xs.len() / 2);
            let (a, b) = join(
                || go(l, id, m, op, fork_below),
                || go(r, id, m, op, fork_below),
            );
            op(a, b)
        }
    }
    // The reduction tree's shape depends on the worker count, so `op`
    // must be associative for the result to be deterministic.
    go(xs, &id, &m, &op, cutoff(xs.len(), DEFAULT_GRAIN))
}

/// Parallel sum of a slice of unsigned integers.
///
/// ```
/// let xs = vec![1u64, 2, 3, 4];
/// assert_eq!(parlay::sum(&xs), 10);
/// ```
pub fn sum<T>(xs: &[T]) -> u64
where
    T: Sync + Copy + Into<u64>,
{
    reduce(xs, 0u64, |x| (*x).into(), |a, b| a + b)
}

/// Exclusive prefix sum in place; returns the total.
///
/// Uses the classic two-pass blocked algorithm: per-block sums, a
/// sequential scan over block sums, then a parallel fix-up pass.
///
/// ```
/// let mut xs = vec![3u64, 1, 4, 1, 5];
/// let total = parlay::scan_inplace(&mut xs);
/// assert_eq!(total, 14);
/// assert_eq!(xs, vec![0, 3, 4, 8, 9]);
/// ```
pub fn scan_inplace(xs: &mut [u64]) -> u64 {
    let n = xs.len();
    if n == 0 {
        return 0;
    }
    if n <= DEFAULT_GRAIN {
        let mut acc = 0u64;
        for x in xs.iter_mut() {
            let v = *x;
            *x = acc;
            acc += v;
        }
        return acc;
    }
    let num_blocks = n.div_ceil(DEFAULT_GRAIN);
    let mut block_sums = vec![0u64; num_blocks];
    {
        let sums = SendPtr(block_sums.as_mut_ptr());
        let data = SendPtr(xs.as_mut_ptr());
        blocked(0, num_blocks, 1, &|blo, bhi| {
            for b in blo..bhi {
                let lo = b * DEFAULT_GRAIN;
                let hi = ((b + 1) * DEFAULT_GRAIN).min(n);
                let mut acc = 0u64;
                for i in lo..hi {
                    // SAFETY: blocks are disjoint index ranges.
                    unsafe { acc += *data.raw().add(i) };
                }
                unsafe { *sums.raw().add(b) = acc };
            }
        });
    }
    let mut acc = 0u64;
    for s in block_sums.iter_mut() {
        let v = *s;
        *s = acc;
        acc += v;
    }
    let total = acc;
    {
        let sums = SendPtr(block_sums.as_mut_ptr());
        let data = SendPtr(xs.as_mut_ptr());
        blocked(0, num_blocks, 1, &|blo, bhi| {
            for b in blo..bhi {
                let lo = b * DEFAULT_GRAIN;
                let hi = ((b + 1) * DEFAULT_GRAIN).min(n);
                // SAFETY: blocks are disjoint index ranges.
                let mut running = unsafe { *sums.raw().add(b) };
                for i in lo..hi {
                    unsafe {
                        let v = *data.raw().add(i);
                        *data.raw().add(i) = running;
                        running += v;
                    }
                }
            }
        });
    }
    total
}

/// Keeps the elements satisfying `pred`, preserving order, in parallel.
///
/// ```
/// let xs: Vec<i32> = (0..100).collect();
/// let evens = parlay::filter(&xs, |x| x % 2 == 0);
/// assert_eq!(evens.len(), 50);
/// assert_eq!(evens[3], 6);
/// ```
pub fn filter<T, F>(xs: &[T], pred: F) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> bool + Sync,
{
    let n = xs.len();
    if n <= DEFAULT_GRAIN {
        return xs.iter().filter(|x| pred(x)).cloned().collect();
    }
    let num_blocks = n.div_ceil(DEFAULT_GRAIN);
    let mut offsets: Vec<u64> = tabulate(num_blocks, |b| {
        let lo = b * DEFAULT_GRAIN;
        let hi = ((b + 1) * DEFAULT_GRAIN).min(n);
        xs[lo..hi].iter().filter(|x| pred(x)).count() as u64
    });
    let total = scan_inplace(&mut offsets) as usize;
    let mut out: Vec<T> = Vec::with_capacity(total);
    let ptr = SendPtr(out.as_mut_ptr());
    blocked(0, num_blocks, 1, &|blo, bhi| {
        for (b, &off) in offsets.iter().enumerate().take(bhi).skip(blo) {
            let lo = b * DEFAULT_GRAIN;
            let hi = ((b + 1) * DEFAULT_GRAIN).min(n);
            let mut at = off as usize;
            for x in &xs[lo..hi] {
                if pred(x) {
                    // SAFETY: each block writes its own disjoint output
                    // range starting at its scanned offset.
                    unsafe { ptr.raw().add(at).write(x.clone()) };
                    at += 1;
                }
            }
        }
    });
    // SAFETY: exactly `total` slots were initialized.
    unsafe { out.set_len(total) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulate_empty() {
        let v: Vec<u32> = tabulate(0, |_| unreachable!());
        assert!(v.is_empty());
    }

    #[test]
    fn tabulate_large_matches_sequential() {
        let v = crate::run(|| tabulate(100_000, |i| i as u64 * 3));
        assert_eq!(v.len(), 100_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn reduce_matches_fold() {
        let xs: Vec<u64> = (0..50_000).collect();
        let expected: u64 = xs.iter().sum();
        assert_eq!(crate::run(|| sum(&xs)), expected);
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let xs: Vec<u64> = vec![];
        assert_eq!(reduce(&xs, 42u64, |x| *x, |a, b| a + b), 42);
    }

    #[test]
    fn scan_matches_sequential_scan() {
        let mut xs: Vec<u64> = (0..10_000).map(|i| i % 7).collect();
        let mut expected = xs.clone();
        let mut acc = 0;
        for x in expected.iter_mut() {
            let v = *x;
            *x = acc;
            acc += v;
        }
        let total = crate::run(|| scan_inplace(&mut xs));
        assert_eq!(total, acc);
        assert_eq!(xs, expected);
    }

    #[test]
    fn scan_empty_and_single() {
        let mut e: Vec<u64> = vec![];
        assert_eq!(scan_inplace(&mut e), 0);
        let mut s = vec![9u64];
        assert_eq!(scan_inplace(&mut s), 9);
        assert_eq!(s, vec![0]);
    }

    #[test]
    fn filter_matches_sequential() {
        let xs: Vec<u32> = (0..30_000).collect();
        let got = crate::run(|| filter(&xs, |x| x % 3 == 0));
        let expected: Vec<u32> = xs.iter().copied().filter(|x| x % 3 == 0).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn filter_none_and_all() {
        let xs: Vec<u32> = (0..5000).collect();
        assert!(filter(&xs, |_| false).is_empty());
        assert_eq!(filter(&xs, |_| true), xs);
    }

    #[test]
    fn map_preserves_order() {
        let xs: Vec<i64> = (0..10_000).rev().collect();
        let ys = crate::run(|| map(&xs, |x| x + 1));
        assert!(ys.windows(2).all(|w| w[0] == w[1] + 1));
    }
}
