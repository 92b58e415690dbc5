//! What every workload shares: the run context, frozen-count scaling,
//! answer checking, the oracle, and the metric list a run returns.

use std::collections::BTreeMap;
use std::path::PathBuf;

use store::StoreOptions;

use crate::gen::{value_of, OpHash};
use crate::measure::{median, rate_of, time, Phase, LAPS};

/// Leaf block size used everywhere (the paper's default).
pub const BLOCK_SIZE: usize = 128;

/// The store options of every store this benchmark opens. Every field
/// is set here so `StoreOptions::default()` (which reads the
/// environment) is never consulted; the flush policy is *no fsync per
/// commit*: log records reach the OS before a commit is acknowledged,
/// not the device.
pub fn store_options(pool_pages: Option<usize>) -> StoreOptions {
    StoreOptions {
        block_size: BLOCK_SIZE,
        history_limit: 8,
        strict_log: false,
        fsync_commits: false,
        pool_pages,
    }
}

/// How the frozen per-second op counts become this run's op counts.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `--seconds`, which the driver passes on every run (`run_seconds`
    /// of `BENCHMARK.json`): the measuring time the counts are sized
    /// for.
    pub seconds: u64,
    /// `--smoke`: counts and data sizes divided by 100.
    pub smoke: bool,
    /// Traced runs measure half the calls, leaving room for the phases
    /// and probes only they run.
    pub trace: bool,
}

impl Scale {
    /// Calls for a phase that runs `per_second` calls per second at the
    /// seed commit on the reference box and gets `share` of the run.
    pub fn calls(&self, per_second: f64, share: f64) -> usize {
        let mut n = per_second * self.seconds as f64 * share;
        if self.smoke {
            n /= 100.0;
        }
        if self.trace {
            n /= 2.0;
        }
        // A whole number of calls per slice, or fewer calls than laps.
        let n = n as usize;
        if n >= LAPS {
            n / LAPS * LAPS
        } else {
            n.max(1)
        }
    }

    /// A data-set size: fixed, except at smoke scale.
    pub fn size(&self, n: usize) -> usize {
        if self.smoke {
            (n / 100).max(1_000)
        } else {
            n
        }
    }
}

/// One run's inputs.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    /// A fresh directory under the build's target directory, inside the
    /// checkout; removed when the run ends.
    pub data_dir: PathBuf,
}

/// Counts every answer checked and every one that was wrong or an
/// `Err`; the two become `attempted` and `failed`.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    #[inline]
    pub fn ok(&mut self, cond: bool) {
        self.attempted += 1;
        self.failed += !cond as u64;
    }

    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The expected final contents: the preloaded stable keys at generation
/// 0, overlaid with everything written since. Updated outside timed
/// loops only.
pub struct Oracle {
    base: Vec<u64>,
    delta: BTreeMap<u64, Option<u64>>,
}

impl Oracle {
    pub fn new(base: Vec<u64>) -> Oracle {
        Oracle {
            base,
            delta: BTreeMap::new(),
        }
    }

    pub fn put(&mut self, key: u64, value: u64) {
        self.delta.insert(key, Some(value));
    }

    pub fn delete(&mut self, key: u64) {
        self.delta.insert(key, None);
    }

    /// The expected contents, in key order: a merge of the base with
    /// the overlay, the overlay winning on equal keys.
    pub fn expected(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut base = self.base.iter().copied().peekable();
        let mut delta = self.delta.iter().map(|(&k, &v)| (k, v)).peekable();
        std::iter::from_fn(move || loop {
            let take_delta = match (base.peek(), delta.peek()) {
                (None, None) => return None,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(&b), Some(&(d, _))) => {
                    if b == d {
                        base.next();
                    }
                    d <= b
                }
            };
            if take_delta {
                if let Some((k, Some(v))) = delta.next() {
                    return Some((k, v));
                }
            } else {
                return base.next().map(|k| (k, value_of(k, 0)));
            }
        })
    }

    /// Compares `actual` (in key order) with the expected contents, one
    /// check per expected entry plus one for the length; returns the
    /// number of entries expected.
    pub fn compare(&self, actual: &[(u64, u64)], check: &mut Check) -> usize {
        let mut it = actual.iter();
        let mut expected_len = 0usize;
        for want in self.expected() {
            expected_len += 1;
            check.ok(it.next() == Some(&want));
        }
        check.ok(actual.len() == expected_len);
        expected_len
    }
}

/// What planning a workload accumulates before anything runs: the last
/// write generation handed out, the contents those writes must leave,
/// and the hash of everything generated.
pub struct Plan {
    pub max_gen: u64,
    pub oracle: Oracle,
    pub hash: OpHash,
}

impl Plan {
    /// A plan over the preloaded `keys`, all at generation 0.
    pub fn new(keys: &[u64]) -> Plan {
        let mut hash = OpHash::new();
        hash.mix_all(keys);
        Plan {
            max_gen: 0,
            oracle: Oracle::new(keys.to_vec()),
            hash,
        }
    }

    /// The generation of the next write (or batch of writes).
    pub fn next_gen(&mut self) -> u64 {
        self.max_gen += 1;
        self.max_gen
    }

    /// Plans a put of `key` at `gen`; returns the value to write.
    pub fn put(&mut self, key: u64, gen: u64) -> u64 {
        let value = value_of(key, gen);
        self.hash.mix(key);
        self.hash.mix(value);
        self.oracle.put(key, value);
        value
    }

    /// Plans a delete of `key`.
    pub fn delete(&mut self, key: u64) {
        self.hash.mix(!key);
        self.oracle.delete(key);
    }
}

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload returns.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics, from untraced phases only.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics. An untraced run collects only the latency
    /// percentiles of its own phases here, and prints them unreported.
    pub per_layer: Vec<Metric>,
    /// `(metric, samples)` behind each percentile.
    pub samples: Vec<(&'static str, u64)>,
    /// The frozen op counts this run used, for the fingerprint.
    pub counts: Vec<(&'static str, u64)>,
    /// `(phase, calls, seconds, steady seconds)` of every timed phase.
    pub phases: Vec<(&'static str, usize, f64, f64)>,
    pub check: Check,
    pub op_hash: u64,
    pub clients: usize,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Declares per-layer metrics this workload does not exercise. The
    /// driver wants a value for every metric from every run, so they
    /// read 0 here; a metric that is neither reported nor declared
    /// fails the run (`contract::in_order`).
    pub fn not_exercised(&mut self, names: &[&'static str]) {
        for &name in names {
            self.layer(name, 0.0, crate::contract::unit_of(name));
        }
    }

    /// Rate and latency of the read phase.
    pub fn reads(&mut self, phase: &Phase) {
        self.e2e("get_ops_per_s", phase.rate(), "ops/s");
        self.layer("workload.get_p50_us", phase.quantile_us(0.50), "us");
        self.layer("workload.get_p99_us", phase.quantile_us(0.99), "us");
        self.samples
            .push(("workload.get_p50_us", phase.calls() as u64));
    }

    /// The same for the small-write phase, whose time includes that of
    /// the `pauses` (compactions) between its slices.
    pub fn writes(&mut self, phase: &Phase, pauses: Option<&Phase>) {
        let rate = match pauses {
            Some(pauses) => rate_of(&[phase, pauses]),
            None => phase.rate(),
        };
        self.e2e("put_keys_per_s", rate, "keys/s");
        self.layer("workload.put_p50_us", phase.quantile_us(0.50), "us");
        self.layer("workload.put_p99_us", phase.quantile_us(0.99), "us");
        self.samples
            .push(("workload.put_p50_us", phase.calls() as u64));
    }

    /// What the recorder cost the read phase: untraced against traced
    /// rate of the two twins.
    pub fn trace_overhead(&mut self, plain: &Phase, traced: &Phase) {
        let pct = (plain.rate() - traced.rate()) / plain.rate() * 100.0;
        self.layer("obs.trace_overhead_pct", pct, "%");
    }

    /// Notes finished phases for the run report.
    pub fn phases_done(&mut self, phases: &[&Phase]) {
        self.phases.extend(
            phases
                .iter()
                .map(|p| (p.name(), p.calls(), p.seconds(), p.steady_seconds())),
        );
    }
}

/// Set-ups per run.
const SET_UPS: usize = 5;

/// Sets up [`SET_UPS`] times, discarding all but the last result before
/// the next attempt starts; returns the last result and the median time
/// of `build` in seconds (`setup_s`).
pub fn set_up_repeatedly<T>(
    mut build: impl FnMut(usize) -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::new();
    let mut built = None;
    for round in 0..SET_UPS {
        if let Some(previous) = built.take() {
            discard(previous);
        }
        let (result, secs) = time(|| build(round));
        times.push(secs);
        built = Some(result);
    }
    (built.expect("the set-ups ran"), median(&mut times))
}

/// Reopens a store `rounds` times (the caller has dropped every
/// handle), each handle dropped before the next open; returns the last
/// handle and the median open time in milliseconds
/// (`workload.open_ms`). The end-of-run compare needs one reopen; a
/// traced run makes five.
pub fn reopen<T, E>(rounds: usize, open: impl Fn() -> Result<T, E>, check: &mut Check) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..rounds {
        drop(last.take());
        let (store, secs) = time(&open);
        check.ok(store.is_ok());
        times.push(secs * 1e3);
        last = store.ok();
    }
    (last.expect("the store reopens"), median(&mut times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_overlays_writes_on_the_base() {
        let mut o = Oracle::new(vec![4, 8, 12]);
        o.put(8, 99);
        o.put(6, 7);
        o.delete(12);
        o.delete(100);
        let want = vec![(4, value_of(4, 0)), (6, 7), (8, 99)];
        let mut c = Check::default();
        o.compare(&want, &mut c);
        assert_eq!((c.attempted, c.failed), (4, 0));
        let mut c = Check::default();
        o.compare(&want[..2], &mut c);
        assert!(c.failed >= 1);
    }

    #[test]
    fn calls_are_whole_slices_and_scale_down() {
        let full = Scale {
            seconds: 10,
            smoke: false,
            trace: false,
        };
        let smoke = Scale {
            smoke: true,
            ..full
        };
        assert_eq!(full.calls(1000.0, 0.25), 2500);
        assert_eq!(full.calls(1050.0, 0.25), 2600);
        assert_eq!(full.calls(9.0, 0.5), 45);
        assert_eq!(smoke.calls(1000.0, 0.25), 25);
        assert_eq!(smoke.calls(1.0, 0.25), 1);
        assert_eq!(smoke.size(4_000_000), 40_000);
    }
}
