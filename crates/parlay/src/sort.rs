//! Parallel merge sort and parallel merge.
//!
//! `O(n log n)` work, `O(log^3 n)` span merge sort: halves are sorted in
//! parallel and combined with a parallel merge that splits on the median
//! of the larger side (dual binary search).

use std::cmp::Ordering;

use crate::{join, DEFAULT_GRAIN};

/// Merges two sorted slices into `out` using `cmp`, in parallel.
///
/// `out` must have length `a.len() + b.len()`. The merge is stable:
/// elements of `a` precede equal elements of `b`.
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
///
/// # Examples
///
/// ```
/// let a = vec![1, 3, 5];
/// let b = vec![2, 3, 6];
/// let mut out = vec![0; 6];
/// parlay::merge_by(&a, &b, &mut out, &|x, y| x.cmp(y));
/// assert_eq!(out, vec![1, 2, 3, 3, 5, 6]);
/// ```
pub fn merge_by<T, C>(a: &[T], b: &[T], out: &mut [T], cmp: &C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    assert_eq!(out.len(), a.len() + b.len(), "output length mismatch");
    if a.len() + b.len() <= 2 * DEFAULT_GRAIN {
        seq_merge(a, b, out, cmp);
        return;
    }
    // Split on the median of the larger input; binary-search its rank in
    // the other input so both halves merge independently.
    if a.len() >= b.len() {
        let amid = a.len() / 2;
        let pivot = &a[amid];
        // Stability: elements of `b` equal to the pivot stay to the right
        // (they follow equal `a` elements).
        let bmid = b.partition_point(|x| cmp(x, pivot) == Ordering::Less);
        let (out_l, out_r) = out.split_at_mut(amid + bmid);
        join(
            || merge_by(&a[..amid], &b[..bmid], out_l, cmp),
            || merge_by(&a[amid..], &b[bmid..], out_r, cmp),
        );
    } else {
        let bmid = b.len() / 2;
        let pivot = &b[bmid];
        // Stability: elements of `a` equal to the pivot go to the left.
        let amid = a.partition_point(|x| cmp(x, pivot) != Ordering::Greater);
        let (out_l, out_r) = out.split_at_mut(amid + bmid);
        join(
            || merge_by(&a[..amid], &b[..bmid], out_l, cmp),
            || merge_by(&a[amid..], &b[bmid..], out_r, cmp),
        );
    }
}

fn seq_merge<T, C>(a: &[T], b: &[T], out: &mut [T], cmp: &C)
where
    T: Clone,
    C: Fn(&T, &T) -> Ordering,
{
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        if i < a.len() && (j >= b.len() || cmp(&a[i], &b[j]) != Ordering::Greater) {
            slot.clone_from(&a[i]);
            i += 1;
        } else {
            slot.clone_from(&b[j]);
            j += 1;
        }
    }
}

/// Sorts `xs` in parallel with a stable merge sort using `cmp`.
///
/// # Examples
///
/// ```
/// let mut xs = vec![5, 1, 4, 2, 3];
/// parlay::par_sort_by(&mut xs, &|a, b| a.cmp(b));
/// assert_eq!(xs, vec![1, 2, 3, 4, 5]);
/// ```
pub fn par_sort_by<T, C>(xs: &mut [T], cmp: &C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    if xs.len() <= 4 * DEFAULT_GRAIN {
        xs.sort_by(|a, b| cmp(a, b));
        return;
    }
    let mut buf: Vec<T> = xs.to_vec();
    sort_in_place(xs, &mut buf, cmp);
}

/// Sorts a slice of `Ord` elements in parallel.
///
/// ```
/// let mut xs: Vec<u32> = (0..100).rev().collect();
/// parlay::par_sort(&mut xs);
/// assert!(xs.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn par_sort<T>(xs: &mut [T])
where
    T: Clone + Send + Sync + Ord,
{
    par_sort_by(xs, &T::cmp);
}

/// Sorts `data` in place, using `buf` (same length, initialized) as scratch.
fn sort_in_place<T, C>(data: &mut [T], buf: &mut [T], cmp: &C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    debug_assert_eq!(data.len(), buf.len());
    if data.len() <= 4 * DEFAULT_GRAIN {
        data.sort_by(|a, b| cmp(a, b));
        return;
    }
    let mid = data.len() / 2;
    let (dl, dr) = data.split_at_mut(mid);
    let (bl, br) = buf.split_at_mut(mid);
    join(|| sort_into(dl, bl, cmp), || sort_into(dr, br, cmp));
    merge_by(bl, br, data, cmp);
}

/// Sorts the contents of `src`, leaving the sorted output in `dst`.
fn sort_into<T, C>(src: &mut [T], dst: &mut [T], cmp: &C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    debug_assert_eq!(src.len(), dst.len());
    if src.len() <= 4 * DEFAULT_GRAIN {
        src.sort_by(|a, b| cmp(a, b));
        dst.clone_from_slice(src);
        return;
    }
    let mid = src.len() / 2;
    let (sl, sr) = src.split_at_mut(mid);
    let (dl, dr) = dst.split_at_mut(mid);
    join(|| sort_in_place(sl, dl, cmp), || sort_in_place(sr, dr, cmp));
    merge_by(sl, sr, dst, cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn sort_random_matches_std() {
        let mut seed = 12345u64;
        let mut xs: Vec<u64> = (0..100_000).map(|_| xorshift(&mut seed) % 1000).collect();
        let mut expected = xs.clone();
        expected.sort_unstable();
        crate::run(|| par_sort(&mut xs));
        assert_eq!(xs, expected);
    }

    #[test]
    fn sort_already_sorted_and_reverse() {
        let mut xs: Vec<u32> = (0..50_000).collect();
        crate::run(|| par_sort(&mut xs));
        assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        let mut ys: Vec<u32> = (0..50_000).rev().collect();
        crate::run(|| par_sort(&mut ys));
        assert!(ys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sort_is_stable() {
        // Pairs sorted by first element only: second element records
        // original order and must stay ascending within equal keys.
        let mut xs: Vec<(u8, u32)> = (0..40_000u32).map(|i| ((i % 5) as u8, i)).collect();
        crate::run(|| par_sort_by(&mut xs, &|a, b| a.0.cmp(&b.0)));
        for w in xs.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn merge_handles_empty_sides() {
        let a: Vec<u32> = vec![];
        let b = vec![1, 2, 3];
        let mut out = vec![0; 3];
        merge_by(&a, &b, &mut out, &|x, y| x.cmp(y));
        assert_eq!(out, b);
        let mut out2 = vec![0; 3];
        merge_by(&b, &a, &mut out2, &|x, y| x.cmp(y));
        assert_eq!(out2, b);
    }

    #[test]
    fn merge_large_random() {
        let mut seed = 777u64;
        let mut a: Vec<u64> = (0..60_000).map(|_| xorshift(&mut seed) % 500).collect();
        let mut b: Vec<u64> = (0..80_000).map(|_| xorshift(&mut seed) % 500).collect();
        a.sort_unstable();
        b.sort_unstable();
        let mut out = vec![0u64; a.len() + b.len()];
        crate::run(|| merge_by(&a, &b, &mut out, &|x, y| x.cmp(y)));
        let mut expected = [a, b].concat();
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn sort_strings() {
        let mut xs: Vec<String> = (0..20_000)
            .map(|i| format!("k{}", (i * 37) % 9991))
            .collect();
        let mut expected = xs.clone();
        expected.sort();
        crate::run(|| par_sort(&mut xs));
        assert_eq!(xs, expected);
    }
}
