//! Timing and accounting shared by every workload: the timed-phase
//! loop (one clock read per call, a hundred equal-count slices run in
//! laps), the estimator that picks a phase's rate out of its slices,
//! and the byte counters behind `bytes_per_entry` and
//! `workload.write_amp`.
//!
//! # Why slices and laps
//!
//! The reference box switches, every one to four seconds, between
//! speeds up to 40 % apart (a register-only loop takes 73, 78, 93 or
//! 105 ms per round in stretches of 15–40 rounds; see the README's box
//! caveats). A phase timed in one stretch lands in one regime or
//! another and reads ±15 % from run to run. So a phase is cut into a
//! hundred slices and the workload runs in a hundred *laps* — slice
//! `s` of every phase, then slice `s + 1` of every phase — which makes
//! every phase sample the whole run's mixture of regimes, 20–70 ms at
//! a time. A phase's time is then taken as **its median slice's time ×
//! its slices** ([`Phase::steady_seconds`]): over 25 s the mixture's
//! median repeats within a few percent where means, quartiles and
//! minima do not. Percentiles are over all of a phase's samples.

use std::path::Path;
use std::time::Instant;

use crate::trace::{Recorder, SpanName, NO_PARENT};

/// Laps per workload, and the most slices a phase is cut into.
pub const LAPS: usize = 100;

/// Every `REPLAY_EVERY`-th call of a traced phase is replayed through
/// the layers below it (see `trace.rs`).
pub const REPLAY_EVERY: usize = 64;

/// What a phase body is asked to do.
pub enum Step<'a> {
    /// Perform call `i`; the return value is the units it completed.
    Call(usize),
    /// Replay call `i` through the layers below it, as children of
    /// root span `.1`. The return value is ignored.
    Replay(usize, u32, &'a mut Recorder),
}

/// One timed phase: `n` calls in `min(n, LAPS)` equal-count slices,
/// run one slice at a time so phases can take turns.
pub struct Phase {
    name: &'static str,
    n: usize,
    slices: usize,
    /// Per-call latencies in nanoseconds, in call order.
    pub samples_ns: Vec<u32>,
    /// Units (keys, entries) completed and seconds taken, per slice run
    /// so far.
    pub done: Vec<(u64, f64)>,
}

impl Phase {
    pub fn new(name: &'static str, n: usize) -> Phase {
        assert!(n >= 1, "phase {name} needs at least one call");
        let slices = n.min(LAPS);
        Phase {
            name,
            n,
            slices,
            samples_ns: Vec::with_capacity(n),
            done: Vec::with_capacity(slices),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn slices(&self) -> usize {
        self.slices
    }

    /// The calls of slice `s`.
    pub fn bounds(&self, s: usize) -> std::ops::Range<usize> {
        self.n * s / self.slices..self.n * (s + 1) / self.slices
    }

    /// Whether the phase runs a slice in `lap`: every lap for a phase
    /// of [`LAPS`] slices, evenly spaced laps for a phase of fewer.
    pub fn due(&self, lap: usize) -> bool {
        (lap + 1) * self.slices / LAPS > lap * self.slices / LAPS
    }

    /// Runs the next slice's calls back to back, if one is due in
    /// `lap`. The clock is read once per call: the end of call `i` is
    /// the start of call `i + 1`, so the samples add up to the slice's
    /// time and the timer costs one read per call.
    ///
    /// With a recorder, every call also pushes a root span named
    /// `name_of(i)`, and every [`REPLAY_EVERY`]-th call is handed back
    /// to `body` as a [`Step::Replay`] after it completes; the clock is
    /// read again after the replay, so replays never count into a
    /// sample.
    pub fn lap(
        &mut self,
        lap: usize,
        name_of: impl Fn(usize) -> SpanName,
        mut rec: Option<&mut Recorder>,
        mut body: impl FnMut(Step<'_>) -> u64,
    ) {
        if !self.due(lap) {
            return;
        }
        let calls = self.bounds(self.done.len());
        let mut units = 0u64;
        let mut busy_ns = 0u64;
        let mut prev = Instant::now();
        for i in calls {
            units += body(Step::Call(i));
            let now = Instant::now();
            let ns = now.duration_since(prev).as_nanos() as u64;
            self.samples_ns.push(ns.min(u32::MAX as u64) as u32);
            busy_ns += ns;
            prev = now;
            if let Some(rec) = rec.as_deref_mut() {
                let end_ns = rec.at(now);
                let id = rec.push(name_of(i), NO_PARENT, i as u32, end_ns - ns, end_ns);
                if i % REPLAY_EVERY == 0 {
                    body(Step::Replay(i, id, rec));
                    prev = Instant::now();
                }
            }
        }
        self.done.push((units, busy_ns as f64 / 1e9));
    }

    /// Runs every slice, for a phase that takes no turns.
    pub fn run(
        &mut self,
        name_of: impl Fn(usize) -> SpanName,
        mut rec: Option<&mut Recorder>,
        mut body: impl FnMut(Step<'_>) -> u64,
    ) {
        for lap in 0..LAPS {
            self.lap(lap, &name_of, rec.as_deref_mut(), &mut body);
        }
    }

    pub fn calls(&self) -> usize {
        self.samples_ns.len()
    }

    pub fn units(&self) -> u64 {
        self.done.iter().map(|s| s.0).sum()
    }

    /// The time the phase took.
    pub fn seconds(&self) -> f64 {
        self.done.iter().map(|s| s.1).sum()
    }

    /// The time the phase takes when every slice takes the median
    /// slice's time.
    pub fn steady_seconds(&self) -> f64 {
        let mut secs: Vec<f64> = self.done.iter().map(|s| s.1).collect();
        median(&mut secs) * self.done.len() as f64
    }

    /// The phase's throughput: units per steady second.
    pub fn rate(&self) -> f64 {
        rate_of(&[self])
    }

    /// The `q`-quantile of the per-call latency in microseconds, over
    /// all samples of the phase.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_ns(&self.samples_ns, q) / 1e3
    }
}

/// Units per second of several phases taken as one: all their units
/// over all their steady seconds. (Range windows with full scans;
/// commits with the compactions between them.)
pub fn rate_of(phases: &[&Phase]) -> f64 {
    let units: u64 = phases.iter().map(|p| p.units()).sum();
    let secs: f64 = phases.iter().map(|p| p.steady_seconds()).sum();
    units as f64 / secs
}

/// Exact `q`-quantile (nearest rank) of `samples`, as f64 nanoseconds.
pub fn quantile_ns(samples: &[u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(rank).1 as f64
}

/// Median of `xs` (mean of the middle two when even); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Times `f` once, returning its result and the seconds it took.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Bytes this process has passed to `write`-family system calls
/// (`wchar` of `/proc/self/io`), or `None` where `/proc` is absent.
pub fn proc_write_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:")?.trim().parse().ok())
}

/// Write-side byte counter for `workload.write_amp`: `/proc/self/io`
/// where it exists; elsewhere the store's own page-byte counter plus
/// `wal_truncated`, the store's running total of log bytes dropped by
/// checkpoints (the write phase's last lap ends in one, so over the
/// phase that is the log bytes written).
pub fn write_bytes(wal_truncated: u64) -> u64 {
    proc_write_bytes().unwrap_or_else(|| {
        obs::global()
            .counter_value("pacstore_page_bytes_written_total")
            .unwrap_or(0)
            + wal_truncated
    })
}

/// Forces what set-up wrote under `dir` to the disk (every file, then
/// the directory), so its write-back is over before timing starts
/// instead of competing with the first timed phases.
pub fn flush_dir(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        match e.metadata() {
            Ok(m) if m.is_dir() => flush_dir(&e.path()),
            _ => {
                let _ = std::fs::File::open(e.path()).and_then(|f| f.sync_all());
            }
        }
    }
    let _ = std::fs::File::open(dir).and_then(|f| f.sync_all());
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The filesystem type backing `path`, from the longest matching mount
/// point in `/proc/mounts` (`"unknown"` where that cannot be read).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// p50 of an `obs` nanosecond histogram window, in microseconds.
pub fn hist_p50_us(window: &obs::HistogramSnapshot) -> f64 {
    if window.count() == 0 {
        0.0
    } else {
        window.p50() as f64 / 1e3
    }
}

/// The current global snapshot of histogram `name` (empty if absent).
pub fn hist_now(name: &str) -> obs::HistogramSnapshot {
    obs::global().histogram_snapshot(name).unwrap_or_default()
}

/// The window of global histogram `name` since `before`.
pub fn hist_since(name: &str, before: &obs::HistogramSnapshot) -> obs::HistogramSnapshot {
    hist_now(name).delta(before)
}

/// The current value of global counter `name` (0 if absent).
pub fn counter_now(name: &str) -> u64 {
    obs::global().counter_value(name).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_ns(&s, 0.5), 50.0);
        assert_eq!(quantile_ns(&s, 0.99), 99.0);
        assert_eq!(quantile_ns(&s, 1.0), 100.0);
        assert_eq!(quantile_ns(&[], 0.5), 0.0);
    }

    #[test]
    fn phase_counts_every_call_once_across_laps() {
        let mut calls = 0usize;
        let mut phase = Phase::new("t", 250);
        for lap in 0..LAPS {
            phase.lap(
                lap,
                |_| SpanName::Get,
                None,
                |step| {
                    let Step::Call(i) = step else {
                        unreachable!("no recorder, no replay")
                    };
                    calls += 1;
                    assert_eq!(i + 1, calls);
                    2
                },
            );
        }
        assert_eq!((calls, phase.calls(), phase.units()), (250, 250, 500));
        assert_eq!(phase.done.len(), LAPS);
        assert!(phase.rate() > 0.0 && phase.quantile_us(0.5) >= 0.0);
    }

    #[test]
    fn a_short_phase_spreads_its_calls_over_the_laps() {
        let mut phase = Phase::new("t", 4);
        let due: Vec<usize> = (0..LAPS).filter(|&lap| phase.due(lap)).collect();
        assert_eq!(due, [24, 49, 74, 99]);
        phase.run(|_| SpanName::Scan, None, |_| 1);
        assert_eq!((phase.calls(), phase.done.len()), (4, 4));
    }

    #[test]
    fn a_phase_takes_its_median_slice_for_every_slice() {
        let mut fast = Phase::new("fast", 5);
        // Five slices of two units; one slice stalled.
        fast.done = vec![(2, 0.001), (2, 0.003), (2, 1.0), (2, 0.002), (2, 0.002)];
        assert_eq!(fast.steady_seconds(), 0.01);
        assert_eq!(fast.rate(), 1000.0);
        let mut pause = Phase::new("pause", 1);
        pause.done = vec![(0, 0.01)];
        assert_eq!(rate_of(&[&fast, &pause]), 500.0);
    }
}
