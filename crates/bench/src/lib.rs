//! Shared infrastructure for the experiment harnesses.
//!
//! Each binary in `src/bin` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index). Scales default to laptop-size
//! datasets and can be adjusted with the `REPRO_N` environment variable;
//! run with `PARLAY_NUM_THREADS=1` for sequential (`T1`) numbers.

use std::time::Instant;

/// Base element count for microbenchmarks (default 10^6; the paper uses
/// 10^8 on a 72-core/1TB machine). Override with `REPRO_N`.
pub fn base_n() -> usize {
    std::env::var("REPRO_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// Times one run of `f`, returning (result, seconds).
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Times `reps` runs and returns the mean seconds (result discarded).
pub fn time_avg<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(reps > 0);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Prints the standard harness header (binary name, threads, scale).
pub fn header(name: &str, what: &str) {
    println!("=== {name} — {what} ===");
    println!(
        "threads = {}, base n = {} (paper: 72 cores, n = 1e8)",
        parlay::num_threads(),
        base_n()
    );
    println!();
}

/// Formats bytes as MiB with two decimals.
pub fn mib(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
}

/// Formats seconds as milliseconds with three decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.3} ms", seconds * 1e3)
}

/// Prints one row of a two-column-aligned table.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<34}");
    for c in cells {
        print!(" {c:>16}");
    }
    println!();
}

/// Deterministic xorshift for workload generation inside harnesses.
pub struct XorShift(pub u64);

impl XorShift {
    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A vector of `n` values below `bound`.
    pub fn vec(&mut self, n: usize, bound: u64) -> Vec<u64> {
        (0..n).map(|_| self.next_u64() % bound).collect()
    }
}
