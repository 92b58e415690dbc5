//! Process-wide registry of named metrics.
//!
//! A [`Registry`] maps metric names to shared handles: monotone
//! [`Counter`]s, signed [`Gauge`]s, [`Histogram`]s, and pull-style
//! callbacks (for bridging pre-existing counters, e.g. `cpam::stats`,
//! without changing their API). Handles are `Arc`s resolved once at
//! setup time; the hot path touches only the handle's relaxed atomics,
//! never the registry lock.
//!
//! # Naming scheme
//!
//! Names are flat strings with optional Prometheus-style labels baked
//! in: `pacstore_incr_chain_depth{shard="003"}`. Use [`labeled`] to build
//! them; the exposition formats split at the first `{` so quantile
//! labels merge correctly in [`Registry::render_text`]. Conventions
//! (enforced by review, not code): `_ns` suffix for nanosecond
//! histograms, `_total` for monotone counters, bare nouns for gauges.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (relaxed atomics).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

type Callback = Arc<dyn Fn() -> u64 + Send + Sync>;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    callbacks: BTreeMap<String, Callback>,
}

/// A named-metric registry. See the module docs.
///
/// `Registry::new()` is `const`, so the process-wide instance
/// ([`crate::global`]) is a plain `static` with no lazy-init cost.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .field("callbacks", &inner.callbacks.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
                callbacks: BTreeMap::new(),
            }),
        }
    }

    /// Get or create the counter named `name`. Repeated calls with the
    /// same name return the same underlying atomic.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Set a batch of gauges under one lock acquisition — the idiom for
    /// publishing a consistent multi-field snapshot (e.g. a buffer
    /// pool's residency stats) where per-name [`Registry::gauge`]
    /// round-trips would let a scrape interleave between fields.
    /// Missing gauges are created.
    pub fn gauge_set(&self, values: &[(&str, i64)]) {
        let mut inner = self.inner.lock().unwrap();
        for (name, v) in values {
            inner.gauges.entry((*name).to_string()).or_default().set(*v);
        }
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Register a pull-style callback rendered as a counter. The first
    /// registration for a name wins; later ones are ignored (so bridge
    /// installation can be idempotent).
    pub fn register_callback<F>(&self, name: &str, f: F)
    where
        F: Fn() -> u64 + Send + Sync + 'static,
    {
        let mut inner = self.inner.lock().unwrap();
        inner
            .callbacks
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(f));
    }

    /// Snapshot of the histogram named `name`, if registered.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        let h = {
            let inner = self.inner.lock().unwrap();
            inner.histograms.get(name).cloned()
        };
        h.map(|h| h.snapshot())
    }

    /// Current value of the counter or callback named `name`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().unwrap();
        if let Some(c) = inner.counters.get(name) {
            return Some(c.get());
        }
        inner.callbacks.get(name).cloned().map(|f| f())
    }

    /// Current value of the gauge named `name`.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        let inner = self.inner.lock().unwrap();
        inner.gauges.get(name).map(|g| g.get())
    }

    /// Prometheus-style text exposition.
    ///
    /// Counters and callbacks render as `counter`, gauges as `gauge`,
    /// histograms as `summary` with `quantile` labels merged into any
    /// labels already baked into the name:
    ///
    /// ```text
    /// # TYPE pacstore_commit_ns summary
    /// pacstore_commit_ns{quantile="0.5"} 10431
    /// pacstore_commit_ns{quantile="0.99"} 29360
    /// pacstore_commit_ns_count 42
    /// pacstore_commit_ns_sum 524288
    /// pacstore_commit_ns_max 31744
    /// ```
    pub fn render_text(&self) -> String {
        let (counters, gauges, histograms, callbacks) = self.collect();
        let mut out = String::new();
        for (name, v) in counters {
            let (base, _) = split_labels(&name);
            let _ = writeln!(out, "# TYPE {base} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in callbacks {
            let (base, _) = split_labels(&name);
            let _ = writeln!(out, "# TYPE {base} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in gauges {
            let (base, _) = split_labels(&name);
            let _ = writeln!(out, "# TYPE {base} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, s) in histograms {
            let (base, labels) = split_labels(&name);
            let _ = writeln!(out, "# TYPE {base} summary");
            for (q, qv) in [
                ("0.5", s.p50()),
                ("0.9", s.p90()),
                ("0.99", s.p99()),
                ("0.999", s.p999()),
            ] {
                match labels {
                    Some(l) => {
                        let _ = writeln!(out, "{base}{{{l},quantile=\"{q}\"}} {qv}");
                    }
                    None => {
                        let _ = writeln!(out, "{base}{{quantile=\"{q}\"}} {qv}");
                    }
                }
            }
            let suffix = |out: &mut String, kind: &str, v: u64| {
                let _ = match labels {
                    Some(l) => writeln!(out, "{base}_{kind}{{{l}}} {v}"),
                    None => writeln!(out, "{base}_{kind} {v}"),
                };
            };
            suffix(&mut out, "count", s.count());
            suffix(&mut out, "sum", s.sum);
            suffix(&mut out, "min", s.min_value());
            suffix(&mut out, "max", s.max_value());
        }
        out
    }

    /// Serde-free JSON exposition (same hand-rolled idiom as the
    /// `bench` crate's BENCH files): counters (including callbacks),
    /// gauges, and per-histogram percentile summaries.
    pub fn snapshot_json(&self) -> String {
        let (counters, gauges, histograms, callbacks) = self.collect();
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in counters.iter().chain(callbacks.iter()) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", esc(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, v) in &gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", esc(name));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, s) in &histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
                esc(name),
                s.count(),
                s.sum,
                s.mean(),
                s.min_value(),
                s.p50(),
                s.p90(),
                s.p99(),
                s.p999(),
                s.max_value()
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Materialize a consistent-enough view without holding the lock
    /// while reading histogram buckets or running callbacks.
    #[allow(clippy::type_complexity)]
    fn collect(
        &self,
    ) -> (
        Vec<(String, u64)>,
        Vec<(String, i64)>,
        Vec<(String, HistogramSnapshot)>,
        Vec<(String, u64)>,
    ) {
        let (counters, gauges, hists, callbacks) = {
            let inner = self.inner.lock().unwrap();
            (
                inner
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
                inner
                    .gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
                inner
                    .histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
                inner
                    .callbacks
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        (
            counters.into_iter().map(|(k, c)| (k, c.get())).collect(),
            gauges.into_iter().map(|(k, g)| (k, g.get())).collect(),
            hists
                .into_iter()
                .map(|(k, h)| (k, h.snapshot()))
                .collect(),
            callbacks.into_iter().map(|(k, f)| (k, f())).collect(),
        )
    }
}

/// The process-wide registry every store/bench/example records into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// Build a labeled metric name: `labeled("x_ns", &[("shard", "003")])`
/// is `x_ns{shard="003"}`. Multiple labels join with `,`.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// Split `name{labels}` into `(name, Some(labels))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) if name.ends_with('}') => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Escape a string for embedding in a JSON key/value.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(r.counter_value("x_total"), Some(3));
        let h1 = r.histogram("h_ns");
        let h2 = r.histogram("h_ns");
        h1.record(10);
        h2.record(20);
        assert_eq!(r.histogram_snapshot("h_ns").unwrap().count(), 2);
        assert_eq!(r.histogram_snapshot("missing"), None);
    }

    #[test]
    fn gauges_and_callbacks() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(r.gauge_value("depth"), Some(3));
        r.register_callback("cb_total", || 42);
        r.register_callback("cb_total", || 999); // first wins
        assert_eq!(r.counter_value("cb_total"), Some(42));
    }

    #[test]
    fn gauge_set_batches_under_one_lock() {
        let r = Registry::new();
        r.gauge("a").set(1); // pre-existing handle is reused, not shadowed
        let a = r.gauge("a");
        r.gauge_set(&[("a", 10), ("b", -3), ("c", 0)]);
        assert_eq!(a.get(), 10);
        assert_eq!(r.gauge_value("b"), Some(-3));
        assert_eq!(r.gauge_value("c"), Some(0));
        let text = r.render_text();
        assert!(text.contains("# TYPE b gauge\nb -3\n"), "{text}");
    }

    #[test]
    fn labeled_names_are_separate_series() {
        let r = Registry::new();
        let n0 = labeled("w_ns", &[("shard", "000")]);
        let n1 = labeled("w_ns", &[("shard", "001")]);
        assert_eq!(n0, "w_ns{shard=\"000\"}");
        r.histogram(&n0).record(100);
        r.histogram(&n1).record(200);
        assert_eq!(r.histogram_snapshot(&n0).map(|h| h.sum), Some(100));
        assert_eq!(r.histogram_snapshot(&n1).map(|h| h.sum), Some(200));
    }

    #[test]
    fn render_text_format() {
        let r = Registry::new();
        r.counter("c_total").add(7);
        r.gauge("g").set(-4);
        r.histogram(&labeled("h_ns", &[("shard", "000")])).record(100);
        r.register_callback("cb_total", || 1);
        let text = r.render_text();
        assert!(text.contains("# TYPE c_total counter\nc_total 7\n"), "{text}");
        assert!(text.contains("# TYPE g gauge\ng -4\n"), "{text}");
        assert!(text.contains("# TYPE cb_total counter\ncb_total 1\n"), "{text}");
        assert!(
            text.contains("h_ns{shard=\"000\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("h_ns_count{shard=\"000\"} 1"), "{text}");
        assert!(text.contains("h_ns_sum{shard=\"000\"} 100"), "{text}");
    }

    #[test]
    fn empty_histogram_scrapes_are_sentinel_free() {
        // A registered-but-never-recorded histogram must scrape as
        // zeros in both exposition formats — no u64::MAX sentinel.
        let r = Registry::new();
        r.histogram("idle_ns");
        let text = r.render_text();
        assert!(text.contains("idle_ns_count 0"), "{text}");
        assert!(text.contains("idle_ns_min 0"), "{text}");
        assert!(text.contains("idle_ns_max 0"), "{text}");
        assert!(text.contains("idle_ns{quantile=\"0.99\"} 0"), "{text}");
        assert!(!text.contains("18446744073709551615"), "{text}");
        let json = r.snapshot_json();
        assert!(
            json.contains("\"idle_ns\": {\"count\": 0, \"sum\": 0, \"mean\": 0.0, \"min\": 0"),
            "{json}"
        );
        assert!(!json.contains("18446744073709551615"), "{json}");
    }

    #[test]
    fn snapshot_json_shape() {
        let r = Registry::new();
        r.counter("c_total").add(7);
        r.gauge("g").set(3);
        r.histogram("h_ns").record(50);
        let json = r.snapshot_json();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"c_total\": 7"), "{json}");
        assert!(json.contains("\"g\": 3"), "{json}");
        assert!(json.contains("\"h_ns\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"p99\": 50"), "{json}");
        // Balanced braces — cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
