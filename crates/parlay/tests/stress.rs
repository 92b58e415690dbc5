//! Stress and property tests for the work-stealing scheduler and the
//! parallel slice primitives.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn scheduler_survives_many_irregular_joins() {
    // Irregular task tree: sizes vary wildly so stealing actually happens.
    fn weird(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            let (a, b) = parlay::join(|| weird(n - 1), || weird(n / 3));
            a.wrapping_add(b).wrapping_add(1)
        }
    }
    let r1 = parlay::run(|| weird(22));
    let r2 = weird_seq(22);
    assert_eq!(r1, r2);

    fn weird_seq(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            weird_seq(n - 1)
                .wrapping_add(weird_seq(n / 3))
                .wrapping_add(1)
        }
    }
}

/// High-contention steal storm: many external threads flood the pool
/// with fine-grained fork trees so workers constantly race for the same
/// deques and the injector. Under the locked deque shim a losing racer
/// sees `Steal::Retry`; before the retry loops were bounded this profile
/// could livelock (every attempt losing the race and spinning forever).
/// The test both finishes — the regression check — and verifies results.
#[test]
fn steal_retry_storm_makes_progress() {
    fn storm(n: u64) -> u64 {
        if n == 0 {
            1
        } else {
            // Tiny leaves: maximal fork-to-work ratio, maximal deque churn.
            let (a, b) = parlay::join(|| storm(n - 1), || storm(n.saturating_sub(2)));
            a.wrapping_add(b)
        }
    }
    let expected = {
        // Fibonacci-shaped recursion: leaf count follows fib(n + 1).
        let (mut a, mut b) = (1u64, 1u64);
        for _ in 0..14 {
            let t = a.wrapping_add(b);
            a = b;
            b = t;
        }
        b
    };
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(move || {
                for _ in 0..20 {
                    assert_eq!(parlay::run(|| storm(14)), expected);
                }
            });
        }
    });
    // Bounded retries are observable: the abandoned-retry counter may or
    // may not have fired (timing-dependent), but the stats snapshot must
    // be coherent after the storm. (A one-worker pool runs every `run`
    // inline, so there no job ever reaches it.)
    let stats = parlay::scheduler_stats();
    assert_eq!(stats.exec_local + stats.exec_stolen > 0, parlay::num_threads() > 1);
}

#[test]
fn concurrent_sorts_from_multiple_threads() {
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..5 {
                    let mut xs: Vec<u64> = (0..50_000).map(|_| rng.gen_range(0..10_000)).collect();
                    let mut expected = xs.clone();
                    expected.sort_unstable();
                    parlay::run(|| parlay::par_sort(&mut xs));
                    assert_eq!(xs, expected);
                }
            });
        }
    });
}

#[test]
fn filter_then_sum_pipeline() {
    let xs: Vec<u64> = (0..1_000_000).collect();
    let (evens, total) = parlay::run(|| {
        let evens = parlay::filter(&xs, |x| x % 2 == 0);
        let total = parlay::sum(&evens);
        (evens, total)
    });
    assert_eq!(evens.len(), 500_000);
    assert_eq!(total, (0..1_000_000u64).filter(|x| x % 2 == 0).sum());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_par_sort_matches_std(mut xs in prop::collection::vec(any::<u32>(), 0..5000)) {
        let mut expected = xs.clone();
        expected.sort_unstable();
        parlay::run(|| parlay::par_sort(&mut xs));
        prop_assert_eq!(xs, expected);
    }

    #[test]
    fn prop_scan_matches_prefix_sum(mut xs in prop::collection::vec(0u64..1000, 0..5000)) {
        let orig = xs.clone();
        let total = parlay::run(|| parlay::scan_inplace(&mut xs));
        let mut acc = 0u64;
        for (i, v) in orig.iter().enumerate() {
            prop_assert_eq!(xs[i], acc);
            acc += v;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn prop_filter_matches_std(xs in prop::collection::vec(any::<i32>(), 0..5000)) {
        let got = parlay::run(|| parlay::filter(&xs, |x| x % 3 == 0));
        let expected: Vec<i32> = xs.iter().copied().filter(|x| x % 3 == 0).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn prop_merge_matches_concat_sort(
        mut a in prop::collection::vec(any::<u16>(), 0..2000),
        mut b in prop::collection::vec(any::<u16>(), 0..2000),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let mut out = vec![0u16; a.len() + b.len()];
        parlay::run(|| parlay::merge_by(&a, &b, &mut out, &|x, y| x.cmp(y)));
        let mut expected = [a, b].concat();
        expected.sort_unstable();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn prop_find_first_matches_position(xs in prop::collection::vec(0u32..50, 0..3000), needle in 0u32..50) {
        let got = parlay::run(|| parlay::slice::find_first(&xs, |&x| x == needle));
        let expected = xs.iter().position(|&x| x == needle);
        prop_assert_eq!(got, expected);
    }
}
