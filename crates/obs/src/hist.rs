//! Lock-free log-bucketed latency histograms.
//!
//! # Bucket layout
//!
//! Values below [`SUB`] (32) land in exact unit-width buckets. Above
//! that, every power-of-two range `[2^e, 2^(e+1))` is split into
//! [`SUB`] linear sub-buckets of width `2^(e-SUB_BITS)`. A value `v`
//! therefore falls in a bucket whose width is at most `v / SUB`, which
//! bounds the relative error of any reconstructed quantile:
//!
//! > **error bound:** `quantile(q)` returns the *upper* bound of the
//! > bucket holding the rank-`q` sample, so the estimate `est`
//! > satisfies `x <= est <= x + x/32` (within **3.125%** above the
//! > true sample `x`, and never below it).
//!
//! The full `u64` range needs `32 * 60 = 1920` buckets (~15 KiB of
//! `AtomicU64` per histogram) — cheap enough to allocate one per stage
//! per shard.
//!
//! # Concurrency
//!
//! [`Histogram::record`] is four relaxed atomic RMWs (bucket
//! `fetch_add`, `sum` `fetch_add`, `min`/`max` `fetch_min`/`fetch_max`)
//! and never takes a lock, so it is safe on the hottest paths.
//! Snapshots are taken bucket-by-bucket without stopping writers; the
//! reported `count` is derived as the sum of the bucket counts read, so
//! a snapshot is always internally consistent (quantile ranks match
//! bucket totals) even if records race with the scan.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// log2 of the number of linear sub-buckets per power-of-two range.
pub const SUB_BITS: u32 = 5;
/// Number of linear sub-buckets per power-of-two range (32).
pub const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index for a value. Exact below `SUB`; log-linear above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    // e = position of the most significant set bit, >= SUB_BITS here.
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    // (v >> shift) is in [SUB, 2*SUB); its offset within that range
    // picks the linear sub-bucket.
    let sub = (v >> shift) as usize;
    (shift as usize + 1) * SUB as usize + (sub - SUB as usize)
}

/// Inclusive `(lo, hi)` value bounds of bucket `i`.
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let subu = SUB as usize;
    if i < subu {
        return (i as u64, i as u64);
    }
    let shift = (i / subu - 1) as u32;
    let off = (i % subu) as u64;
    let lo = (SUB + off) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

/// A lock-free log-bucketed histogram of `u64` samples (typically
/// nanoseconds). See the module docs for the bucket layout and the
/// relative-error bound.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Relaxed atomics only; never blocks.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Start a scoped timer that records its elapsed nanoseconds into
    /// this histogram when dropped. See also the [`span!`](crate::span!)
    /// macro.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            hist: self,
            start: Instant::now(),
            armed: true,
        }
    }

    /// A point-in-time copy of the histogram state. Does not stop
    /// writers; see the module docs for the consistency guarantee.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum", &s.sum)
            .finish()
    }
}

/// Scoped timer tied to a [`Histogram`]; records elapsed nanoseconds on
/// drop unless [`cancel`](Span::cancel)led.
#[must_use = "a span records on drop; bind it to a variable (`let _span = ...`)"]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
    armed: bool,
}

impl<'a> Span<'a> {
    /// Start a span recording into `hist` on drop (what
    /// [`span!`](crate::span!) expands to).
    #[inline]
    pub fn enter(hist: &'a Histogram) -> Span<'a> {
        hist.span()
    }

    /// Drop without recording (e.g. on an error path that should not
    /// pollute the latency distribution).
    #[inline]
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            self.hist.record_duration(self.start.elapsed());
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
///
/// Snapshots support [`merge`](HistogramSnapshot::merge) (combine two
/// distributions, e.g. across shards) and
/// [`delta`](HistogramSnapshot::delta) (the samples recorded *between*
/// two snapshots of the same histogram — the idiom benches use to
/// scope percentiles to a measured region).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Sum of all recorded values (wrapping on overflow of `u64`).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total number of samples (sum of bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of the recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Inclusive value bounds of the outermost non-empty buckets, or
    /// `None` when every bucket is empty. The fallback extrema when the
    /// tracked `min`/`max` can't be trusted.
    fn bucket_extrema(&self) -> Option<(u64, u64)> {
        let first = self.buckets.iter().position(|&c| c != 0)?;
        let last = self.buckets.iter().rposition(|&c| c != 0).expect("first exists");
        Some((bucket_bounds(first).0, bucket_bounds(last).1))
    }

    /// Smallest recorded value, or 0 when empty.
    ///
    /// [`Histogram::record`] bumps the bucket count before updating the
    /// tracked extrema, so a snapshot racing a histogram's first record
    /// can carry `count > 0` with `min` still at its `u64::MAX` sentinel
    /// (and `max` at 0). Rather than leak the sentinel into scrapes,
    /// such a torn snapshot falls back to the first non-empty bucket's
    /// lower bound — correct to bucket resolution.
    pub fn min_value(&self) -> u64 {
        match self.bucket_extrema() {
            None => 0,
            Some((lo, _)) if self.min == u64::MAX => lo,
            _ => self.min,
        }
    }

    /// Largest recorded value, or 0 when empty. Falls back to the last
    /// non-empty bucket's upper bound when the tracked `max` is stale
    /// (see [`min_value`](Self::min_value) for the race).
    pub fn max_value(&self) -> u64 {
        match self.bucket_extrema() {
            None => 0,
            Some((lo, hi)) if self.max < lo => hi,
            _ => self.max,
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 <= q <= 1.0`).
    ///
    /// Uses rank `ceil(q * count)` (clamped to `[1, count]`) and
    /// returns the holding bucket's upper bound clamped to the tracked
    /// `[min, max]`, so the estimate is never below the true sample and
    /// at most `x/32` above it. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.clamp(self.min_value(), self.max_value().max(self.min_value()));
            }
        }
        self.max
    }

    /// Median estimate (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Combine two distributions (e.g. the same stage across shards).
    /// Associative and commutative.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .zip(&other.buckets)
            .map(|(a, b)| a + b)
            .collect();
        HistogramSnapshot {
            buckets,
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// The samples recorded between `earlier` and `self`, where both
    /// are snapshots of the *same* histogram and `earlier` was taken
    /// first.
    ///
    /// Bucket counts and `sum` are exact for the window; `min`/`max`
    /// cannot be recovered from cumulative extrema, so they are
    /// re-derived from the window's outermost non-empty buckets
    /// (tightened by the cumulative values where sound) — i.e. they are
    /// correct to bucket resolution.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let mut min = u64::MAX;
        let mut max = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            if c != 0 {
                let (lo, hi) = bucket_bounds(i);
                min = min.min(lo);
                max = max.max(hi);
            }
        }
        // The cumulative extrema still bound the window.
        min = min.max(earlier.min.min(self.min));
        max = max.min(self.max.max(min));
        HistogramSnapshot {
            buckets,
            sum: self.sum.wrapping_sub(earlier.sum),
            min,
            max: if min == u64::MAX { 0 } else { max },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_below_sub() {
        for v in 0..SUB {
            let i = bucket_index(v);
            assert_eq!(bucket_bounds(i), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_roundtrip_and_width_bound() {
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            4095,
            4096,
            1 << 33,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            let width = hi - lo;
            assert!(width <= v / SUB, "width bound: v={v} width={width}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} not contiguous");
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            next = hi + 1;
        }
        panic!("buckets do not reach u64::MAX");
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum, 500500);
        assert_eq!(s.min_value(), 1);
        assert_eq!(s.max_value(), 1000);
        // Exact samples 1..=1000; estimates are within the 1/32 bound
        // above the true order statistic.
        for (q, truth) in [(0.50, 500u64), (0.90, 900), (0.99, 990), (0.999, 999)] {
            let est = s.quantile(q);
            assert!(est >= truth, "q={q} est={est} truth={truth}");
            assert!(est - truth <= truth / SUB, "q={q} est={est} truth={truth}");
        }
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.min_value(), 0);
        assert_eq!(s.max_value(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn torn_snapshot_never_reports_the_min_sentinel() {
        // `record` bumps the bucket count before updating min/max, so a
        // snapshot racing a histogram's first record can see count == 1
        // with min still u64::MAX and max still 0. Scrape accessors
        // must fall back to bucket bounds, never leak the sentinel.
        let mut buckets = vec![0u64; BUCKETS];
        buckets[bucket_index(100)] = 1;
        let torn = HistogramSnapshot {
            buckets,
            sum: 0,
            min: u64::MAX,
            max: 0,
        };
        assert_eq!(torn.count(), 1);
        let (lo, hi) = bucket_bounds(bucket_index(100));
        assert_eq!(torn.min_value(), lo);
        assert_eq!(torn.max_value(), hi);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let v = torn.quantile(q);
            assert!(v >= lo && v <= hi, "q={q} leaked {v}");
        }
    }

    #[test]
    fn span_records_on_drop_and_cancel_suppresses() {
        let h = Histogram::new();
        {
            let _s = h.span();
        }
        assert_eq!(h.snapshot().count(), 1);
        let s = h.span();
        s.cancel();
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn delta_scopes_to_the_window() {
        let h = Histogram::new();
        h.record(5);
        h.record(1_000_000);
        let before = h.snapshot();
        h.record(100);
        h.record(200);
        let after = h.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum, 300);
        assert!(d.min_value() <= 100 && d.min_value() >= 5);
        assert!(d.max_value() >= 200 && d.max_value() <= 200 + 200 / SUB);
        assert!(d.p50() >= 100 && d.p50() <= 100 + 100 / SUB);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(1000);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count(), 2);
        assert_eq!(m.min_value(), 10);
        assert!(m.max_value() >= 1000);
        assert_eq!(m.sum, 1010);
    }
}
