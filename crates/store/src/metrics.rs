//! Write-path instrumentation: pre-resolved handles into the
//! process-wide [`obs::global`] registry.
//!
//! Every store handle owns a `StoreMetrics`: the `Arc`'d counters and
//! histograms are resolved **once at construction**, so hot paths pay
//! only an `Instant::now()` pair and a relaxed `fetch_add` — the
//! registry lock is never touched after setup (the zero-overhead policy
//! of DESIGN.md §10, measured by `tab02_micro`'s printed obs-overhead
//! rows and pacbench's `obs.*` rows).
//!
//! # Metric naming
//!
//! All store series are prefixed `pacstore_`; latency histograms end in
//! `_ns` (nanoseconds), monotone counters in `_total`. Per-shard series
//! bake the shard index into the name as a label —
//! `pacstore_incr_chain_depth{shard="003"}` — which
//! [`obs::Registry::render_text`] keeps in the series' label set.
//! A [`crate::PacStore`] is a one-shard store, so its series carry
//! shard `"000"` and dashboards see one schema for every shard count.
//!
//! All stores share the global registry: two stores in one
//! process record into the same series. That is deliberate (the
//! process, not the handle, is the unit a scrape observes); tests that
//! need isolation take before/after [`obs::HistogramSnapshot::delta`]s.

use std::sync::{Arc, Once, OnceLock};

use obs::{Counter, Gauge, Histogram};
use parking_lot::Mutex;

use crate::pool::PoolStats;

/// Install the `cpam::stats` → registry bridge exactly once per
/// process. Pull-based: the cpam counters keep their single relaxed
/// `fetch_add` and are only read when something scrapes the registry.
pub fn install_cpam_bridge() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| cpam::stats::register_with(obs::global()));
}

/// Process-global page-codec counters (pages and bytes through
/// [`crate::page`] encode/decode). Global rather than per-store:
/// the codec layer has no store handle in scope.
pub(crate) struct PageCounters {
    pub pages_written: Arc<Counter>,
    pub page_bytes_written: Arc<Counter>,
    pub pages_read: Arc<Counter>,
    pub page_bytes_read: Arc<Counter>,
}

pub(crate) fn page_counters() -> &'static PageCounters {
    static COUNTERS: OnceLock<PageCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = obs::global();
        PageCounters {
            pages_written: r.counter("pacstore_pages_written_total"),
            page_bytes_written: r.counter("pacstore_page_bytes_written_total"),
            pages_read: r.counter("pacstore_pages_read_total"),
            page_bytes_read: r.counter("pacstore_page_bytes_read_total"),
        }
    })
}

/// Pre-resolved handles for every stage of the store write path.
/// Created per store handle; all handles for a name share one atomic
/// (the registry deduplicates by name).
pub(crate) struct StoreMetrics {
    /// End-to-end `commit()` latency: enqueue to acknowledged version.
    pub commit: Arc<Histogram>,
    /// Time a committer spends parked on the group-commit condvar
    /// (followers waiting for their ticket; leaders-to-be waiting for
    /// the previous leader). Recorded once per commit, 0 for an
    /// uncontended leader.
    pub ticket_wait: Arc<Histogram>,
    /// Leader batch apply: `apply_ops`, one tree pass per participating
    /// shard (parallel fan-out included, for the sharded store).
    pub apply: Arc<Histogram>,
    /// The log append (`write_all` + `flush`): one sample per commit
    /// group, whatever its shard count.
    pub wal_append: Arc<Histogram>,
    /// The log append's `sync_data`, one sample per group, recorded
    /// only when fsync ran.
    pub wal_fsync: Arc<Histogram>,
    /// `get()` point reads on the current version.
    pub point_read: Arc<Histogram>,
    /// `ShardedStore::range_entries` reads: one pin plus one in-order walk
    /// of the overlapping shards, collected into one vector. Reads
    /// through a pinned snapshot (`ShardedSnapshot::range_for_each`,
    /// pacserve's `Range`) are not sampled here.
    pub range_read: Arc<Histogram>,
    /// Full or incremental checkpoint page writes (`save*`).
    pub save: Arc<Histogram>,
    /// Whole `gc()` passes, including the off-lock history drop.
    pub gc_pause: Arc<Histogram>,
    /// Whole `compact()` cycles.
    pub compact_pause: Arc<Histogram>,
    /// Compaction phase 1: checkpoint pages written (off the commit
    /// lock in the sharded store).
    pub compact_pages: Arc<Histogram>,
    /// Compaction phase 2: the log rewrite under the log lock — the
    /// part concurrent commits actually wait behind.
    pub compact_truncate: Arc<Histogram>,
    /// Snapshots pinned (`snapshot` / `snapshot_at`).
    pub snapshots: Arc<Counter>,
    /// Explicit version pins / unpins.
    pub pins: Arc<Counter>,
    pub unpins: Arc<Counter>,
    /// Cumulative GC outcomes.
    pub gc_versions_dropped: Arc<Counter>,
    pub gc_nodes_reclaimed: Arc<Counter>,
    /// Per-shard incremental-chain depth (links past the full page),
    /// `pacstore_incr_chain_depth{shard=...}`.
    pub incr_chain_depth: Vec<Arc<Gauge>>,
    /// Buffer-pool residency publisher; see [`PoolMetrics`].
    pub pool: PoolMetrics,
}

/// Publishes buffer-pool stats snapshots into the registry. The
/// instantaneous fields land as gauges in one [`obs::Registry::gauge_set`]
/// batch (a scrape never sees resident pages from one snapshot next to
/// resident bytes from another); the monotone fields land as counter
/// *deltas* against the previously published snapshot, so
/// `pacstore_pool_{hits,misses,evictions}_total` keep counter semantics
/// across repeated publishes.
///
/// Publishing happens on the stats read path
/// ([`crate::ShardedStore::pool_stats`]) — pool
/// operations themselves touch only the pool's own relaxed atomics,
/// preserving the zero-overhead policy of DESIGN.md §10.
pub(crate) struct PoolMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    /// Monotone fields of the last published snapshot:
    /// `(hits, misses, evictions)`.
    last: Mutex<(u64, u64, u64)>,
}

impl PoolMetrics {
    fn new() -> PoolMetrics {
        let r = obs::global();
        PoolMetrics {
            hits: r.counter("pacstore_pool_hits_total"),
            misses: r.counter("pacstore_pool_misses_total"),
            evictions: r.counter("pacstore_pool_evictions_total"),
            last: Mutex::new((0, 0, 0)),
        }
    }

    /// Publish one aggregated pool snapshot.
    pub fn publish(&self, s: &PoolStats) {
        obs::global().gauge_set(&[
            ("pacstore_pool_capacity_pages", s.capacity_pages as i64),
            ("pacstore_pool_resident_pages", s.resident_pages as i64),
            ("pacstore_pool_resident_bytes", s.resident_bytes as i64),
        ]);
        let mut last = self.last.lock();
        self.hits.add(s.hits.saturating_sub(last.0));
        self.misses.add(s.misses.saturating_sub(last.1));
        self.evictions.add(s.evictions.saturating_sub(last.2));
        *last = (s.hits, s.misses, s.evictions);
    }
}

impl StoreMetrics {
    /// Resolve all handles against [`obs::global`] for a store with
    /// `shards` shards and install the cpam bridge.
    pub fn new(shards: usize) -> Arc<StoreMetrics> {
        install_cpam_bridge();
        let r = obs::global();
        let incr_chain_depth = (0..shards)
            .map(|i| {
                let label = format!("{i:03}");
                r.gauge(&obs::labeled(
                    "pacstore_incr_chain_depth",
                    &[("shard", &label)],
                ))
            })
            .collect();
        Arc::new(StoreMetrics {
            commit: r.histogram("pacstore_commit_ns"),
            ticket_wait: r.histogram("pacstore_commit_ticket_wait_ns"),
            apply: r.histogram("pacstore_commit_apply_ns"),
            wal_append: r.histogram("pacstore_wal_append_ns"),
            wal_fsync: r.histogram("pacstore_wal_fsync_ns"),
            point_read: r.histogram("pacstore_point_read_ns"),
            range_read: r.histogram("pacstore_range_read_ns"),
            save: r.histogram("pacstore_save_ns"),
            gc_pause: r.histogram("pacstore_gc_ns"),
            compact_pause: r.histogram("pacstore_compact_ns"),
            compact_pages: r.histogram("pacstore_compact_pages_ns"),
            compact_truncate: r.histogram("pacstore_compact_truncate_ns"),
            snapshots: r.counter("pacstore_snapshots_total"),
            pins: r.counter("pacstore_version_pins_total"),
            unpins: r.counter("pacstore_version_unpins_total"),
            gc_versions_dropped: r.counter("pacstore_gc_versions_dropped_total"),
            gc_nodes_reclaimed: r.counter("pacstore_gc_nodes_reclaimed_total"),
            incr_chain_depth,
            pool: PoolMetrics::new(),
        })
    }

    /// Record one log append's stage timings: the write, and the fsync
    /// only when it ran.
    #[inline]
    pub fn record_wal_append(&self, t: crate::wal::Appended, fsync: bool) {
        self.wal_append.record(t.write_ns);
        if fsync {
            self.wal_fsync.record(t.sync_ns);
        }
    }
}
