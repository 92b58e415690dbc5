//! Table 1 validation: empirical work-bound checks for the headline
//! asymptotics, using the library's node-allocation counters.
//!
//! Checks (at B = 128):
//! * union work is `O(w(m))` with `w(m) = m·log2(n/m + 1) + min(mB, n)`
//!   — the printed ratio `allocs / w(m)` must stay at most 1 on every
//!   row, or the binary exits non-zero;
//! * insert allocates `O(log n + B)` nodes, independent of `n`'s
//!   doubling beyond the log term;
//! * `join`/`append` allocates `O(log n + B)` nodes, not `O(n)`.

use bench::{header, XorShift};
use cpam::{stats, PacSet};

fn allocs(f: impl FnOnce()) -> u64 {
    let before = stats::read();
    f();
    stats::read().delta(before).node_allocs
}

fn main() {
    header("tab01_bounds", "Table 1 empirical work bounds (B = 128)");
    let n = bench::base_n();
    let big: Vec<u64> = (0..n as u64).map(|i| i * 4).collect();

    let over = parlay::run(|| {
        let base = PacSet::<u64>::from_sorted_keys(128, &big);

        println!("union(n = {n}, m) node allocations vs m:");
        println!("{:>10} {:>14} {:>16} {:>14}", "m", "allocs", "w(m)", "allocs/w(m)");
        let mut rng = XorShift(5);
        let mut over = Vec::new();
        for exp in [2u32, 3, 4, 5, 6] {
            let m = 10usize.pow(exp).min(n);
            let other = PacSet::<u64>::from_keys_with(128, rng.vec(m, 4 * n as u64));
            let a = allocs(|| {
                std::hint::black_box(base.union(&other));
            });
            let w = m as f64 * (n as f64 / m as f64 + 1.0).log2() + (m * 128).min(n) as f64;
            println!("{:>10} {:>14} {:>16.0} {:>14.4}", m, a, w, a as f64 / w);
            if a as f64 > w {
                over.push(m);
            }
        }

        println!();
        println!("insert: allocations per insert vs n (expect ~log(n/B), flat):");
        for size in [n / 100, n / 10, n] {
            let s = PacSet::<u64>::from_sorted_keys(128, &big[..size]);
            let a = allocs(|| {
                let mut t = s.clone();
                for i in 0..100u64 {
                    t = t.insert(i * 37 + 1);
                }
                std::hint::black_box(t);
            });
            println!("  n = {size:>9}: {:.1} allocs/insert", a as f64 / 100.0);
        }

        println!();
        println!("append (join2): allocations vs size (expect ~log n, not O(n)):");
        for size in [n / 100, n / 10, n] {
            let seq_l = cpam::PacSeq::<u64>::from_slice_with(128, &big[..size / 2]);
            let seq_r = cpam::PacSeq::<u64>::from_slice_with(128, &big[size / 2 + 1..size]);
            let a = allocs(|| {
                std::hint::black_box(seq_l.append(&seq_r));
            });
            println!("  n = {size:>9}: {a} allocs");
        }

        println!();
        println!("(See Table 1 in the paper; shapes above should be flat or");
        println!(" logarithmic in n, and union allocs/w(m) should not grow with m.)");
        over
    });
    if !over.is_empty() {
        eprintln!("tab01_bounds: union allocs exceed w(m) at m = {over:?}");
        std::process::exit(1);
    }
}
