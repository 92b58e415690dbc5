//! Table 2: map/set microbenchmarks — PaC-tree, PaC-tree (Diff), and
//! P-tree (PAM) across build, set algebra, bulk ops, and point lookups,
//! with and without augmentation.
//!
//! Before the table it prints find/insert/iterate micro-op throughputs
//! (raw and byte-coded leaves, B = 128), measured first on a quiet heap.
//!
//! The `insert_consume_*` rows measure the ownership-aware consuming
//! update path (`insert_owned`: refcount-1 nodes rebuilt in place)
//! against the persistent clone-per-op loop (`insert_*`, which pins the
//! previous version and forces path copying on every op).
//!
//! The obs-overhead rows compare plain find/insert loops against the
//! same loops with the observability layer live (registry populated,
//! per-batch spans, scrapes between reps); the zero-overhead policy
//! requires the regression to stay under 3%.

use bench::{header, ms, row, time, time_avg, XorShift};
use cpam::{DiffMap, PacMap, SumAug};
use pam::PamMap;

/// Find/insert/iterate micro-op throughputs, ops per second.
struct MicroOps {
    find_raw_b128: f64,
    find_delta_b128: f64,
    insert_raw_b128: f64,
    insert_delta_b128: f64,
    insert_consume_raw_b128: f64,
    insert_consume_delta_b128: f64,
    iter_raw_b128: f64,
    iter_delta_b128: f64,
}

/// Plain vs instrumentation-live find/insert throughput (ops/s),
/// best-of-7 interleaved. The live variant runs with the observability
/// layer fully active — the `cpam::stats` → `obs` bridge registered,
/// latency histograms resolved, one span recorded per op batch (the
/// store's per-commit recording granularity; hot paths never record
/// per tree op), and a `render_text` scrape between reps. The
/// zero-overhead policy of DESIGN.md §10 asks live to stay within 3% of
/// plain.
struct ObsOverhead {
    find_plain: f64,
    find_live: f64,
    insert_plain: f64,
    insert_live: f64,
}

impl ObsOverhead {
    /// Regression in percent (positive = live is slower).
    fn pct(plain: f64, live: f64) -> f64 {
        if plain > 0.0 {
            (plain - live) / plain * 100.0
        } else {
            0.0
        }
    }
}

/// Measures [`ObsOverhead`] on a Diff map of `pairs` at B = 128.
fn measure_obs_overhead(n: usize, pairs: &[(u64, u64)]) -> ObsOverhead {
    let dif = DiffMap::<u64, u64>::from_sorted_pairs(128, pairs);
    let queries = XorShift(0x0B5E).vec(100_000, 3 * n as u64);
    let keys = XorShift(0x0B51).vec(2000, u64::MAX);
    cpam::stats::register_with(obs::global());
    let find_hist = obs::global().histogram("cpam_bench_find_batch_ns");
    let ins_hist = obs::global().histogram("cpam_bench_insert_batch_ns");

    // Both variants run the *identical* chunked loop — the span entry
    // is the only difference — so the comparison isolates the
    // instrumentation, not the loop shape.
    let find_loop = |live: bool| {
        let t = time(|| {
            let mut acc = 0u64;
            for chunk in queries.chunks(1000) {
                let _s = live.then(|| obs::span!(find_hist));
                acc += chunk.iter().map(|k| dif.find(k).unwrap_or(0)).sum::<u64>();
            }
            acc
        })
        .1;
        queries.len() as f64 / t
    };
    let insert_loop = |live: bool| {
        let t = time(|| {
            let mut m = dif.clone();
            for chunk in keys.chunks(100) {
                let _s = live.then(|| obs::span!(ins_hist));
                for &k in chunk {
                    m = m.insert(k, 1);
                }
            }
            m
        })
        .1;
        keys.len() as f64 / t
    };

    let mut o =
        ObsOverhead { find_plain: 0.0, find_live: 0.0, insert_plain: 0.0, insert_live: 0.0 };
    for rep in 0..7 {
        // Alternate which variant runs first so cache warm-up does not
        // systematically favour either side. Best-of-7: noise on this
        // class of machine only ever slows a run down, so the max per
        // side converges on the clean figure.
        let (fp, fl) = if rep % 2 == 0 {
            (find_loop(false), find_loop(true))
        } else {
            let l = find_loop(true);
            (find_loop(false), l)
        };
        o.find_plain = o.find_plain.max(fp);
        o.find_live = o.find_live.max(fl);
        let (ip, il) = if rep % 2 == 0 {
            (insert_loop(false), insert_loop(true))
        } else {
            let l = insert_loop(true);
            (insert_loop(false), l)
        };
        o.insert_plain = o.insert_plain.max(ip);
        o.insert_live = o.insert_live.max(il);

        // A full scrape between reps: rendering must not perturb the
        // loops (the registry is only locked here, never on hot paths).
        std::hint::black_box(obs::global().render_text());
    }
    o
}

/// Measures the micro-ops on maps of `n` presorted pairs at B = 128.
fn measure_micro(n: usize, pairs: &[(u64, u64)]) -> MicroOps {
    let raw = PacMap::<u64, u64>::from_sorted_pairs(128, pairs);
    let dif = DiffMap::<u64, u64>::from_sorted_pairs(128, pairs);

    let queries = XorShift(0x5EED).vec(100_000, 3 * n as u64);
    let find = |t: f64| queries.len() as f64 / t;
    let t_raw = time(|| queries.iter().map(|k| raw.find(k).unwrap_or(0)).sum::<u64>()).1;
    let t_dif = time(|| queries.iter().map(|k| dif.find(k).unwrap_or(0)).sum::<u64>()).1;

    let keys = XorShift(0xB10C).vec(1000, u64::MAX);
    let ins = |t: f64| keys.len() as f64 / t;
    // Persistent clone-per-op loop: every insert pins the previous
    // version (`&self` clones the root), so the whole path is copied.
    let t_ins_raw = time(|| {
        let mut m = raw.clone();
        for &k in &keys {
            m = m.insert(k, 1);
        }
        m
    })
    .1;
    let t_ins_dif = time(|| {
        let mut m = dif.clone();
        for &k in &keys {
            m = m.insert(k, 1);
        }
        m
    })
    .1;
    // Consuming loop: the working map is uniquely owned after the first
    // op, so refcount-1 path nodes are rebuilt in place.
    let t_ins_consume_raw = time(|| {
        let mut m = raw.clone();
        for &k in &keys {
            m = m.insert_owned(k, 1);
        }
        m
    })
    .1;
    let t_ins_consume_dif = time(|| {
        let mut m = dif.clone();
        for &k in &keys {
            m = m.insert_owned(k, 1);
        }
        m
    })
    .1;

    let iter = |t: f64| n as f64 / t;
    let t_it_raw = time(|| raw.iter().map(|(_, v)| v).sum::<u64>()).1;
    let t_it_dif = time(|| dif.iter().map(|(_, v)| v).sum::<u64>()).1;

    MicroOps {
        find_raw_b128: find(t_raw),
        find_delta_b128: find(t_dif),
        insert_raw_b128: ins(t_ins_raw),
        insert_delta_b128: ins(t_ins_dif),
        insert_consume_raw_b128: ins(t_ins_consume_raw),
        insert_consume_delta_b128: ins(t_ins_consume_dif),
        iter_raw_b128: iter(t_it_raw),
        iter_delta_b128: iter(t_it_dif),
    }
}

/// Prints the micro-op rows and the obs-overhead rows.
fn print_micro(m: &MicroOps, o: &ObsOverhead) {
    let ops = |x: f64| format!("{x:.0}");
    let ratio = |num: f64, den: f64| format!("{:.3}x", num / den);
    println!("micro-ops (B = 128; find and insert in ops/s, iter in entries/s):");
    row("", &["raw".into(), "delta".into()]);
    row("find", &[ops(m.find_raw_b128), ops(m.find_delta_b128)]);
    row("insert (persistent)", &[ops(m.insert_raw_b128), ops(m.insert_delta_b128)]);
    row(
        "insert (consuming)",
        &[ops(m.insert_consume_raw_b128), ops(m.insert_consume_delta_b128)],
    );
    row(
        "consuming / persistent",
        &[
            ratio(m.insert_consume_raw_b128, m.insert_raw_b128),
            ratio(m.insert_consume_delta_b128, m.insert_delta_b128),
        ],
    );
    row("iter", &[ops(m.iter_raw_b128), ops(m.iter_delta_b128)]);
    println!();
    println!("obs overhead (plain vs instrumentation-live, best-of-7, ops/s):");
    row("", &["plain".into(), "live".into(), "overhead".into()]);
    for (name, plain, live) in
        [("find", o.find_plain, o.find_live), ("insert", o.insert_plain, o.insert_live)]
    {
        row(name, &[ops(plain), ops(live), format!("{:+.2}%", ObsOverhead::pct(plain, live))]);
    }
}

fn main() {
    header("tab02_micro", "Table 2 microbenchmarks (keys/values u64)");
    let n = bench::base_n();
    let m_small = (n / 1000).max(1);

    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 3, i)).collect();
    let other: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 5 + 1, i)).collect();
    let small: Vec<(u64, u64)> = (0..m_small as u64).map(|i| (i * 211 + 7, i)).collect();

    parlay::run(|| {
        // Micro-ops — measured first, on a quiet heap: point-lookup
        // timings are dominated by cache/TLB behaviour, so running them
        // after the table's maps are built would measure the
        // resident-set size, not the access path.
        let micro = measure_micro(n, &pairs);
        let overhead = measure_obs_overhead(n, &pairs);
        print_micro(&micro, &overhead);
        println!();

        // Warm the allocator and page cache so the first timed build is
        // not dominated by first-touch faults.
        std::hint::black_box(PacMap::<u64, u64>::from_sorted_pairs(128, &pairs));
        std::hint::black_box(PamMap::<u64, u64>::from_sorted_pairs(&pairs));
        let (pac, t_build_pac) = time(|| PacMap::<u64, u64>::from_sorted_pairs(128, &pairs));
        let (dif, t_build_dif) = time(|| DiffMap::<u64, u64>::from_sorted_pairs(128, &pairs));
        let (pam, t_build_pam) = time(|| PamMap::<u64, u64>::from_sorted_pairs(&pairs));
        let pac2 = PacMap::<u64, u64>::from_sorted_pairs(128, &other);
        let dif2 = DiffMap::<u64, u64>::from_sorted_pairs(128, &other);
        let pam2 = PamMap::<u64, u64>::from_sorted_pairs(&other);
        let pac_small = PacMap::<u64, u64>::from_sorted_pairs(128, &small);
        let dif_small = DiffMap::<u64, u64>::from_sorted_pairs(128, &small);
        let pam_small = PamMap::<u64, u64>::from_sorted_pairs(&small);

        row(
            &format!("op (n = {n}, m = {m_small})"),
            &["PaC-tree".into(), "PaC-tree (Diff)".into(), "P-tree (PAM)".into()],
        );
        row(
            "size",
            &[
                bench::mib(pac.space_stats().total_bytes),
                bench::mib(dif.space_stats().total_bytes),
                bench::mib(pam.space_bytes()),
            ],
        );
        row("build (presorted)", &[ms(t_build_pac), ms(t_build_dif), ms(t_build_pam)]);

        let t1 = time_avg(3, || pac.union(&pac2));
        let t2 = time_avg(3, || dif.union(&dif2));
        let t3 = time_avg(3, || pam.union(&pam2));
        row("union (n, n)", &[ms(t1), ms(t2), ms(t3)]);

        let t1 = time_avg(5, || pac.union(&pac_small));
        let t2 = time_avg(5, || dif.union(&dif_small));
        let t3 = time_avg(5, || pam.union(&pam_small));
        row("union (n, m)", &[ms(t1), ms(t2), ms(t3)]);

        let t1 = time_avg(3, || pac.intersect_with(&pac2, |a, _| *a));
        let t2 = time_avg(3, || dif.intersect_with(&dif2, |a, _| *a));
        let t3 = time_avg(3, || pam.intersect_with(&pam2, |a, _| *a));
        row("intersect (n, n)", &[ms(t1), ms(t2), ms(t3)]);

        let t1 = time_avg(3, || pac.difference(&pac2));
        let t2 = time_avg(3, || dif.difference(&dif2));
        let t3 = time_avg(3, || pam.difference(&pam2));
        row("difference (n, n)", &[ms(t1), ms(t2), ms(t3)]);

        let t1 = time_avg(3, || pac.map_values(|_, v| v + 1));
        let t2 = time_avg(3, || dif.map_values(|_, v| v + 1));
        let t3 = time_avg(3, || pam.map_values(|_, v| v + 1));
        row("map", &[ms(t1), ms(t2), ms(t3)]);

        let t1 = time_avg(5, || pac.map_reduce(|_, v| *v, |a, b| a + b, 0u64));
        let t2 = time_avg(5, || dif.map_reduce(|_, v| *v, |a, b| a + b, 0u64));
        let t3 = time_avg(5, || pam.map_reduce(|_, v| *v, |a, b| a + b, 0u64));
        row("reduce", &[ms(t1), ms(t2), ms(t3)]);

        let t1 = time_avg(3, || pac.filter(|k, _| k % 2 == 0));
        let t2 = time_avg(3, || dif.filter(|k, _| k % 2 == 0));
        let t3 = time_avg(3, || pam.filter(|k, _| k % 2 == 0));
        row("filter", &[ms(t1), ms(t2), ms(t3)]);

        // find: m random lookups.
        let mut rng = XorShift(42);
        let queries = rng.vec(100_000, 3 * n as u64);
        let t1 = time(|| queries.iter().map(|k| pac.find(k).unwrap_or(0)).sum::<u64>()).1;
        let t2 = time(|| queries.iter().map(|k| dif.find(k).unwrap_or(0)).sum::<u64>()).1;
        let t3 = time(|| queries.iter().map(|k| pam.find(k).unwrap_or(0)).sum::<u64>()).1;
        row("find (100k queries)", &[ms(t1), ms(t2), ms(t3)]);

        // insert: 1000 single functional inserts.
        let keys = rng.vec(1000, u64::MAX);
        let t1 = time(|| {
            let mut m = pac.clone();
            for &k in &keys {
                m = m.insert(k, 1);
            }
            m
        })
        .1;
        let t2 = time(|| {
            let mut m = dif.clone();
            for &k in &keys {
                m = m.insert(k, 1);
            }
            m
        })
        .1;
        let t3 = time(|| {
            let mut m = pam.clone();
            for &k in &keys {
                m = m.insert(k, 1);
            }
            m
        })
        .1;
        row("insert (1k singles)", &[ms(t1), ms(t2), ms(t3)]);

        let batch: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 7 + 3, i)).collect();
        let t1 = time_avg(3, || pac.multi_insert(batch.clone()));
        let t2 = time_avg(3, || dif.multi_insert(batch.clone()));
        let t3 = time_avg(3, || pam.multi_insert(batch.clone()));
        row("multi-insert (n)", &[ms(t1), ms(t2), ms(t3)]);

        // range: m window extractions.
        let windows: Vec<(u64, u64)> = (0..10_000)
            .map(|_| {
                let lo = rng.next_u64() % (3 * n as u64);
                (lo, lo + 3000)
            })
            .collect();
        let t1 = time(|| {
            windows
                .iter()
                .map(|(lo, hi)| pac.range_entries(lo, hi).len())
                .sum::<usize>()
        })
        .1;
        let t2 = time(|| {
            windows
                .iter()
                .map(|(lo, hi)| dif.range_entries(lo, hi).len())
                .sum::<usize>()
        })
        .1;
        let t3 = time(|| {
            windows
                .iter()
                .map(|(lo, hi)| pam.range(lo, hi).len())
                .sum::<usize>()
        })
        .1;
        row("range (10k windows)", &[ms(t1), ms(t2), ms(t3)]);

        // --- With augmentation (sum of values) ---------------------------
        println!();
        println!("with augmentation (sum of values):");
        let (apac, ta1) = time(|| PacMap::<u64, u64, SumAug>::from_sorted_pairs(128, &pairs));
        let (adif, ta2) = time(|| DiffMap::<u64, u64, SumAug>::from_sorted_pairs(128, &pairs));
        let (apam, ta3) = time(|| PamMap::<u64, u64, SumAug>::from_sorted_pairs(&pairs));
        row(
            "size (aug)",
            &[
                bench::mib(apac.space_stats().total_bytes),
                bench::mib(adif.space_stats().total_bytes),
                bench::mib(apam.space_bytes()),
            ],
        );
        row("build (aug)", &[ms(ta1), ms(ta2), ms(ta3)]);

        let apac2 = PacMap::<u64, u64, SumAug>::from_sorted_pairs(128, &other);
        let adif2 = DiffMap::<u64, u64, SumAug>::from_sorted_pairs(128, &other);
        let apam2 = PamMap::<u64, u64, SumAug>::from_sorted_pairs(&other);
        let t1 = time_avg(3, || apac.union_with(&apac2, |a, b| a + b));
        let t2 = time_avg(3, || adif.union_with(&adif2, |a, b| a + b));
        let t3 = time_avg(3, || apam.union_with(&apam2, |a, b| a + b));
        row("union (aug)", &[ms(t1), ms(t2), ms(t3)]);

        let t1 = time(|| {
            windows
                .iter()
                .map(|(lo, hi)| apac.aug_range(lo, hi))
                .sum::<u64>()
        })
        .1;
        let t2 = time(|| {
            windows
                .iter()
                .map(|(lo, hi)| adif.aug_range(lo, hi))
                .sum::<u64>()
        })
        .1;
        let t3 = time(|| {
            windows
                .iter()
                .map(|(lo, hi)| apam.aug_range(lo, hi))
                .sum::<u64>()
        })
        .1;
        row("aug_range (10k)", &[ms(t1), ms(t2), ms(t3)]);
    });
}
