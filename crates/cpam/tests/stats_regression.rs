//! Regression gates over the global `cpam::stats` counters.
//!
//! * Cursor access layer: point lookups on a byte-coded map of 1M keys
//!   must perform **zero** full-block decodes — the `block_decodes`
//!   counter stays flat while `cursor_ops` advances.
//! * Ownership-aware updates: a sequential insert loop over a
//!   uniquely-owned map must rebuild ≥ 90% of its path nodes **in
//!   place** (`nodes_reused`), while the same loop against a spine
//!   pinned by snapshots must reuse **nothing** (`nodes_copied` only) —
//!   the safety half of the refcount-1 rule, not just the speed half.
//! * Drop accounting: over a build-then-drop window allocs and drops
//!   balance. (It lives here, not among the crate's unit tests: they
//!   allocate concurrently in one process, and a gate only this test
//!   held would not exclude them.)
//!
//! The counters are process-wide, so the tests in this binary serialize
//! on one mutex; each reads its deltas inside the critical section.
//! Runs under the CI `PARLAY_NUM_THREADS` matrix like every cpam test.

use std::sync::{Mutex, MutexGuard};

use cpam::{stats, DiffMap, DiffSet, PacMap, PacSet};

static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    // A panicking sibling test must not wedge the others.
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn point_lookups_on_byte_coded_map_never_fully_decode() {
    let _serialize = counters_lock();
    const N: u64 = 1_000_000;
    parlay::run(|| {
        let pairs: Vec<(u64, u64)> = (0..N).map(|i| (i * 3, i)).collect();
        let map: DiffMap<u64, u64> = DiffMap::from_sorted_pairs(128, &pairs);
        let keys: Vec<u64> = (0..N).collect();
        let set: DiffSet<u64> = DiffSet::from_sorted_keys(128, &keys);

        let before = stats::read();
        let mut hits = 0u64;
        for probe in 0..20_000u64 {
            // Mix of hits (multiples of 3) and misses.
            if map.find(&probe).is_some() {
                hits += 1;
            }
            if map.contains_key(&(probe * 151 % (3 * N))) {
                hits += 1;
            }
            if set.contains(&probe) {
                hits += 1;
            }
        }
        let d = stats::read().delta(before);
        assert!(hits > 0, "workload degenerated: no hits at all");
        assert_eq!(
            d.block_decodes, 0,
            "point lookups fully decoded {} blocks",
            d.block_decodes
        );
        // Not every lookup reaches a leaf (some resolve at a regular
        // pivot), but the bulk must be cursor searches.
        assert!(
            d.cursor_ops >= 20_000,
            "expected >= 20000 cursor ops, saw {}",
            d.cursor_ops
        );
        // Lookups build nothing and encode nothing either.
        assert_eq!(d.node_allocs, 0, "point lookups allocated nodes");
        assert_eq!(d.block_encodes, 0, "point lookups encoded blocks");
    });
}

#[test]
fn sequential_unique_owner_inserts_reuse_the_spine() {
    let _serialize = counters_lock();
    parlay::run(|| {
        // The map is uniquely owned throughout, so every node on each
        // insert's root-to-leaf path is eligible for in-place reuse;
        // only rebalancing rotations and leaf splits may copy.
        let mut m: PacMap<u64, u64> =
            PacMap::from_pairs((0..50_000u64).map(|i| (i * 2, i)).collect());
        let before = stats::read();
        let mut k = 1u64;
        for i in 0..2_000u64 {
            m = m.insert_owned(k, i);
            // Deterministic LCG: a spread of hits and fresh keys.
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                % 1_000_000;
        }
        let d = stats::read().delta(before);
        assert!(
            d.nodes_reused + d.nodes_copied > 0,
            "insert loop never hit a reuse-eligible rebuild"
        );
        assert!(
            d.reuse_ratio() >= 0.9,
            "unique-owner insert loop reused only {:.1}% of eligible rebuilds \
             (reused {}, copied {})",
            100.0 * d.reuse_ratio(),
            d.nodes_reused,
            d.nodes_copied
        );
        assert!(m.check_invariants().is_ok());
    });
}

#[test]
fn pinned_snapshot_spines_are_never_reused() {
    let _serialize = counters_lock();
    parlay::run(|| {
        let base: PacMap<u64, u64> =
            PacMap::from_pairs((0..50_000u64).map(|i| (i * 2, i)).collect());
        let reference = base.to_vec();

        let mut m = base.clone();
        let mut pins = Vec::new();
        let before = stats::read();
        for i in 0..500u64 {
            // Pin every version, then overwrite an existing key: each
            // insert sees a fully shared path and must path-copy it —
            // zero in-place reuse. (Overwrites keep the shape fixed, so
            // no rebalancing happens and every single rebuild on the
            // path is a shared-node rebuild.)
            pins.push((m.clone(), i));
            let k = (i * 97 % 50_000) * 2;
            m = m.insert_owned(k, 1_000_000 + i);
        }
        let d = stats::read().delta(before);
        assert_eq!(
            d.nodes_reused, 0,
            "an update mutated a node reachable from a pinned snapshot"
        );
        assert!(
            d.nodes_copied > 0,
            "pinned-spine inserts should tally as copies"
        );

        // The safety half, verified on the data too: the original still
        // holds exactly its old contents, and every pinned version
        // reads the value that was current when it was pinned — not the
        // overwrite that came after.
        assert_eq!(base.to_vec(), reference);
        for (pin, i) in &pins {
            let k = (i * 97 % 50_000) * 2;
            let at_pin_time = (0..*i)
                .rev()
                .find(|j| (j * 97 % 50_000) * 2 == k)
                .map_or(k / 2, |j| 1_000_000 + j);
            assert_eq!(pin.find(&k), Some(at_pin_time), "pin {i} saw a later write");
            assert_eq!(pin.len(), reference.len(), "pin {i} changed size");
        }
        assert_eq!(m.len(), reference.len());
    });
}

#[test]
fn dropped_nodes_are_counted() {
    let _serialize = counters_lock();
    let before = stats::read();
    let s: PacSet<u64> = PacSet::from_keys_with(4, (0..10_000).collect());
    drop(s);
    let d = stats::read().delta(before);
    // Allocs and drops balance over a build-then-drop window; nothing
    // else in this binary touches the counters meanwhile.
    assert!(d.nodes_dropped >= d.node_allocs);
    assert!(d.node_allocs > 0);
}
