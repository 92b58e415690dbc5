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
//! * A small write touches one leaf, once (exact counts): an owned
//!   point write encodes exactly one block — one more when the leaf
//!   splits — and decodes none; a persistent one copies its path and
//!   shares the sibling leaf; a sparse batch costs one leaf per key and
//!   never enters the scheduler, a bulk batch still forks; a put and a
//!   remove in one leaf rewrite it once; dropping a superseded version
//!   off the pool does not fork either — one path or a 64-key batch's
//!   worth — while a whole tree dropped inside `parlay::run` still does.
//! * Set operations (exact counts): union, intersection, difference and
//!   the expose-only union ablation on two fixed overlapping delta sets,
//!   owned and persistent, each spend the encodes, decodes and node
//!   allocations, reuses and copies pinned here.
//! * Drop accounting: over a build-then-drop window allocs and drops
//!   balance. (It lives here, not among the crate's unit tests: they
//!   allocate concurrently in one process, and a gate only this test
//!   held would not exclude them.)
//!
//! The counters are process-wide, so the tests in this binary serialize
//! on one mutex; each reads its deltas inside the critical section.
//! Runs under the CI `PARLAY_NUM_THREADS` matrix like every cpam test.

use std::sync::{Mutex, MutexGuard};

use cpam::{stats, DiffMap, DiffSet, PacMap, PacSeq, PacSet};

/// Block size of the exact-count tests (the paper's and the store's
/// default).
const B: usize = 128;

/// Nodes on the root-to-leaf path to the leaf holding position `at` of
/// a `from_sorted` tree over `n` entries (the builder splits at the
/// midpoint down to `2b`); `None` if `at` is a regular node's pivot.
fn path_len(mut n: usize, mut at: usize) -> Option<u64> {
    let mut len = 1;
    while n > 2 * B {
        let mid = n / 2;
        match at.cmp(&mid) {
            std::cmp::Ordering::Less => n = mid,
            std::cmp::Ordering::Equal => return None,
            std::cmp::Ordering::Greater => {
                at -= mid + 1;
                n -= mid + 1;
            }
        }
        len += 1;
    }
    Some(len)
}

/// Jobs the pool executed and jobs handed to it from outside, so far.
fn pool_jobs() -> (u64, u64) {
    let s = parlay::scheduler_stats();
    (s.exec_local + s.exec_stolen, s.injected)
}

/// The fork assertions need a second worker; at one thread every fork
/// site runs sequential code by construction, so they say so and pass.
fn pool_can_fork(test: &str) -> bool {
    use std::io::Write;
    let threads = parlay::num_threads();
    if threads < 2 {
        // Written to the stream itself: libtest captures `eprintln!` of
        // a passing test, and a skip nobody sees is a check nobody ran.
        let _ = writeln!(
            std::io::stderr(),
            "SKIPPED fork assertions of `{test}`: the pool has {threads} thread, they need >= 2"
        );
    }
    threads >= 2
}

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

#[test]
fn owned_point_writes_encode_one_leaf_each() {
    let _serialize = counters_lock();
    // 50 000 entries build into 256 leaves of 195–196: room for ~60
    // more each, so 2 000 fresh keys spread over them split nothing and
    // never become a pivot.
    let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i * 64, i)).collect();
    let mut m: DiffMap<u64, u64> = DiffMap::from_sorted_pairs(B, &pairs);
    let fresh: Vec<u64> = (0..2_000u64).map(|i| (i * 25 + 7) * 64 + 1).collect();

    let before = stats::read();
    for &k in &fresh {
        m = m.insert_owned(k, k);
    }
    let d = stats::read().delta(before);
    assert_eq!(d.block_encodes, 2_000, "one encode per insert: the touched leaf");
    assert_eq!(d.block_decodes, 0, "the sibling leaf was flattened");
    assert_eq!(d.node_allocs, 0, "an owned insert without a split allocates no node");
    assert_eq!(m.len(), 52_000);
    m.check_invariants().unwrap();

    let before = stats::read();
    for &k in &fresh {
        m = m.remove_owned(&k);
    }
    let d = stats::read().delta(before);
    assert_eq!(d.block_encodes, 2_000, "one encode per remove hit");
    assert_eq!(d.block_decodes, 0);
    assert_eq!(d.node_allocs, 0);
    assert_eq!(m.to_vec(), pairs);
    m.check_invariants().unwrap();

    // Splits: 257·2^6 − 1 entries build into 64 leaves of exactly 2b, so
    // the first insert into each overflows it. An overflow beside a full
    // sibling is one more encode (the leaf becomes two) and two new
    // nodes; nothing else is touched.
    let n = 257 * 64 - 1;
    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 64, i)).collect();
    let mut m: DiffMap<u64, u64> = DiffMap::from_sorted_pairs(B, &pairs);
    let leaves = m.space_stats().flat_nodes;
    assert_eq!(leaves, 64);
    let before = stats::read();
    for i in 0..2_000u64 {
        let k = (i * 8 + 200) * 64 + 1;
        m = m.insert_owned(k, k);
    }
    let d = stats::read().delta(before);
    let splits = (m.space_stats().flat_nodes - leaves) as u64;
    assert_eq!(splits, 64, "every full leaf split exactly once");
    assert_eq!(d.block_encodes, 2_000 + splits, "each split adds one encode");
    assert_eq!(d.block_decodes, 0);
    assert_eq!(d.node_allocs, 2 * splits);
    assert_eq!(m.len(), n + 2_000);
    m.check_invariants().unwrap();
}

#[test]
fn persistent_insert_copies_its_path_and_shares_the_sibling_leaf() {
    let _serialize = counters_lock();
    let n = 50_000usize;
    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 64, i)).collect();
    let m: DiffMap<u64, u64> = DiffMap::from_sorted_pairs(B, &pairs);
    let nodes = m.space_stats();
    for at in [10usize, 12_345, 25_100, 49_990] {
        // A fresh key just below entry `at`: it lands in that entry's leaf.
        let len = path_len(n, at).expect("probe positions are not pivots");
        let before = stats::read();
        let m2 = m.insert(at as u64 * 64 - 1, 7);
        let d = stats::read().delta(before);
        assert_eq!(d.node_allocs, len, "v+1 copies the path to its leaf, nothing beside it");
        assert_eq!(d.block_encodes, 1, "the sibling leaf is shared, not rewritten");
        assert_eq!(d.block_decodes, 0);
        assert_eq!(d.nodes_reused, 0, "a shared path is never rebuilt in place");
        assert_eq!(m2.len(), n + 1);
        m2.check_invariants().unwrap();
        // v and v+1 differ in exactly that path: dropping v+1 frees it.
        let before = stats::read();
        drop(m2);
        assert_eq!(stats::read().delta(before).nodes_dropped, len);
    }
    assert_eq!(m.space_stats(), nodes);
    assert_eq!(m.to_vec(), pairs);
    m.check_invariants().unwrap();

    // Appending nothing shares everything: no node, no block is rebuilt.
    let keys: Vec<u64> = (0..1_000_000u64).collect();
    let (set, none) = (PacSet::<u64>::from_sorted_keys(B, &keys), PacSet::<u64>::from_sorted_keys(B, &[]));
    let (seq, nothing) = (PacSeq::<u64>::from_slice_with(B, &keys), PacSeq::<u64>::from_slice_with(B, &[]));
    for (what, d) in [
        ("PacSet::append(&empty)", work_of(|| set.append(&none)).1),
        ("PacSet empty.append", work_of(|| none.append(&set)).1),
        ("PacSeq::append(&empty)", work_of(|| seq.append(&nothing)).1),
        ("PacSeq empty.append", work_of(|| nothing.append(&seq)).1),
    ] {
        assert_eq!([d[0], d[2]], [0, 0], "{what}: [encodes, allocs]");
    }
}

#[test]
fn sparse_batches_cost_one_leaf_per_key_and_never_fork() {
    let _serialize = counters_lock();
    let n = 1_000_000u64;
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i * 64, i)).collect();
    let mut m: DiffMap<u64, u64> = DiffMap::from_sorted_pairs(B, &pairs);
    let forks = pool_can_fork("sparse_batches_cost_one_leaf_per_key_and_never_fork");
    parlay::run(|| {
        // 16 keys, half fresh and half overwrites, far apart: each is
        // alone in its leaf (and in its κ-subtree, which the parent
        // rebuilt whole).
        let small: Vec<(u64, u64)> = (0..16u64).map(|i| ((i * 61_111 + 5) * 64 + i % 2, 9)).collect();
        let leaves = m.space_stats().flat_nodes;
        let (jobs, _) = pool_jobs();
        let before = stats::read();
        m = std::mem::take(&mut m).multi_insert_owned(small.clone());
        let d = stats::read().delta(before);
        let splits = (m.space_stats().flat_nodes - leaves) as u64;
        assert!(d.block_encodes <= 16 + splits, "{} encodes for 16 keys", d.block_encodes);
        assert!(d.block_decodes <= 16, "{} decodes for 16 keys", d.block_decodes);
        if forks {
            assert_eq!(pool_jobs().0 - jobs, 0, "a 16-key batch forked");
        }
        assert_eq!(m.len() as u64, n + 8);

        let (jobs, _) = pool_jobs();
        let before = stats::read();
        m = std::mem::take(&mut m).multi_delete_owned(small.iter().map(|(k, _)| *k).collect());
        let d = stats::read().delta(before);
        assert!(d.block_encodes <= 16, "{} encodes for 16 deleted keys", d.block_encodes);
        assert!(d.block_decodes <= 16, "{} decodes for 16 deleted keys", d.block_decodes);
        if forks {
            assert_eq!(pool_jobs().0 - jobs, 0, "a 16-key delete forked");
        }
        assert_eq!(m.len() as u64, n - 8);

        // A mixed batch, 8 fresh puts and 8 removes far apart, is one
        // descent that costs one leaf per key all the same.
        let mixed: Vec<(u64, Option<u64>)> = (0..16u64)
            .map(|i| match i % 2 {
                0 => ((i * 61_111 + 30_000) * 64 + 1, Some(4)),
                _ => ((i * 61_111 + 60_000) * 64, None),
            })
            .collect();
        let leaves = m.space_stats().flat_nodes;
        let (jobs, _) = pool_jobs();
        let before = stats::read();
        m = std::mem::take(&mut m).multi_update_owned(mixed);
        let d = stats::read().delta(before);
        let splits = (m.space_stats().flat_nodes - leaves) as u64;
        assert!(d.block_encodes <= 16 + splits, "{} encodes for 16 mixed edits", d.block_encodes);
        assert!(d.block_decodes <= 16, "{} decodes for 16 mixed edits", d.block_decodes);
        if forks {
            assert_eq!(pool_jobs().0 - jobs, 0, "a 16-edit mixed batch forked");
        }
        assert_eq!(m.len() as u64, n - 8);

        // A bulk batch is as parallel as it was.
        let large: Vec<(u64, u64)> = (0..100_000u64).map(|i| (i * 640, 3)).collect();
        let (jobs, _) = pool_jobs();
        m = std::mem::take(&mut m).multi_insert_owned(large);
        if forks {
            assert!(pool_jobs().0 > jobs, "a 100k-key batch ran without a single fork");
        }
    });
    assert_eq!(m.find(&(5 * 64)), None);
    assert_eq!(m.find(&640), Some(3));
    m.check_invariants().unwrap();
}

#[test]
fn a_mixed_batch_in_one_leaf_encodes_it_once() {
    let _serialize = counters_lock();
    // A put of a fresh key and a removal of a present one in the same
    // leaf: first one with room (50 000 entries build into leaves of
    // 195–196), then a full one (64 leaves of exactly 2b).
    let (fresh, gone) = (10 * 64 - 1, 11 * 64);
    let edits = || vec![(fresh, Some(7)), (gone, None)];
    for (n, two_pass) in [(50_000u64, 2), (257 * 64 - 1, 4)] {
        let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i * 64, i)).collect();
        let m = DiffMap::<u64, u64>::from_sorted_pairs(B, &pairs);
        let before = stats::read();
        let one = m.multi_update_owned(edits());
        let d = stats::read().delta(before);
        assert_eq!(d.block_encodes, 1, "n = {n}: one descent rewrites the leaf once");
        assert_eq!(d.block_decodes, 0, "n = {n}");
        assert_eq!(d.node_allocs, 0, "n = {n}");
        one.check_invariants().unwrap();

        // The same change as a batch insert and then a batch delete walks
        // the tree twice: two encodes where the leaf has room; where it is
        // full it splits into halves of b, and the removal then takes one
        // below b, so the pair folds back into one leaf.
        let m = DiffMap::<u64, u64>::from_sorted_pairs(B, &pairs);
        let before = stats::read();
        let two = m.multi_insert_owned(vec![(fresh, 7)]).multi_delete_owned(vec![gone]);
        assert_eq!(stats::read().delta(before).block_encodes, two_pass, "n = {n}");
        assert_eq!(one.to_vec(), two.to_vec());
    }
}

/// `[block_encodes, block_decodes, node_allocs, nodes_reused,
/// nodes_copied]` spent by `op`, with what it returned.
fn work_of<T>(op: impl FnOnce() -> T) -> (T, [u64; 5]) {
    let before = stats::read();
    let out = op();
    let d = stats::read().delta(before);
    (out, [d.block_encodes, d.block_decodes, d.node_allocs, d.nodes_reused, d.nodes_copied])
}

#[test]
fn set_operations_do_the_pinned_work() {
    let _serialize = counters_lock();
    // Multiples of 3 below 60 000 and multiples of 5 in [30 000, 90 000):
    // one half of each tree meets nothing of the other, the other half
    // shares every fifteenth key.
    let xs: Vec<u64> = (0..20_000u64).map(|i| i * 3).collect();
    let ys: Vec<u64> = (6_000..18_000u64).map(|i| i * 5).collect();
    let sets = || (DiffSet::<u64>::from_sorted_keys(B, &xs), DiffSet::<u64>::from_sorted_keys(B, &ys));
    type Op = fn(DiffSet<u64>, DiffSet<u64>) -> DiffSet<u64>;
    parlay::run(|| {
        // Each operation applies the smaller operand to the larger as
        // one batch. The ablation borrows its operands, like the
        // persistent union below, and exposes all the way down.
        let consumed: [(&str, Op, usize, [u64; 5]); 4] = [
            ("union_owned", |a, b| a.union_owned(b), 30_000, [95, 64, 170, 39, 16]),
            ("intersect_owned", |a, b| a.intersect_owned(b), 2_000, [32, 88, 248, 42, 0]),
            ("difference_owned", |a, b| a.difference_owned(b), 18_000, [48, 80, 32, 80, 0]),
            ("union_naive", |a, b| a.union_naive(&b), 30_000, [19561, 19593, 30253, 7716, 139]),
        ];
        for (what, op, len, want) in consumed {
            let (a, b) = sets();
            let (out, got) = work_of(|| op(a, b));
            assert_eq!(got, want, "{what}: [encodes, decodes, allocs, reused, copied]");
            assert_eq!(out.len(), len, "{what}");
            out.check_invariants().unwrap();
        }
        // Both operands stay alive: the nodes they hold are copied, and
        // only nodes the walk built itself are rebuilt in place.
        let (a, b) = sets();
        let (out, got) = work_of(|| a.union(&b));
        assert_eq!(got, [95, 64, 190, 19, 36], "persistent union: [encodes, decodes, allocs, reused, copied]");
        assert_eq!((a.len(), b.len(), out.len()), (20_000, 12_000, 30_000));
        out.check_invariants().unwrap();
    });
}

#[test]
fn a_set_operation_costs_what_its_batch_costs() {
    let _serialize = counters_lock();
    // Table 1's union bound at n = 10^6: the smaller operand's `m` keys
    // (every other one stored in `base`) cost what the same keys cost
    // as a batch, whichever operation takes them.
    let n = 1_000_000u64;
    let base = PacSet::<u64>::from_sorted_keys(B, &(0..n).map(|i| i * 4).collect::<Vec<_>>());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for m in [100usize, 1_000, 10_000, 100_000] {
        let keys: Vec<u64> = (0..m)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n * 4 + i as u64 % 2
            })
            .collect();
        let small = PacSet::<u64>::from_keys_with(B, keys.clone());
        let (ins, insert) = work_of(|| base.multi_insert(keys.clone()));
        let (del, delete) = work_of(|| base.multi_delete(keys.clone()));
        let (u, union) = work_of(|| base.union(&small));
        let (i, inter) = work_of(|| base.intersect(&small));
        let (d, diff) = work_of(|| base.difference(&small));
        // [encodes, allocs] against the batch's, and the factor allowed.
        for (what, got, batch, enc) in [
            ("union", union, insert, 1.5),
            ("intersect", inter, insert, 3.0),
            ("difference", diff, delete, 1.5),
        ] {
            let within = |k: usize, factor: f64| got[k] as f64 <= factor * batch[k] as f64;
            assert!(within(0, enc) && within(2, 1.5), "m = {m}: {what} {got:?} against its batch {batch:?}");
        }
        assert_eq!(u.to_vec(), ins.to_vec(), "m = {m}");
        assert_eq!(d.to_vec(), del.to_vec(), "m = {m}");
        assert_eq!(i.len(), small.len() - (ins.len() - base.len()), "m = {m}");
        i.check_invariants().unwrap();
    }
    // Operands that do not interleave are joined, not flattened.
    let low = PacSet::<u64>::from_sorted_keys(B, &(0..n).collect::<Vec<_>>());
    let high = PacSet::<u64>::from_sorted_keys(B, &(n..2 * n).collect::<Vec<_>>());
    for (what, (u, got)) in [("low ∪ high", work_of(|| low.union(&high))), ("high ∪ low", work_of(|| high.union(&low)))] {
        assert!(got[2] <= 64, "{what}: {got:?}");
        assert_eq!(u.len() as u64, 2 * n);
        u.check_invariants().unwrap();
    }
}

#[test]
fn dropping_a_superseded_version_stays_off_the_pool() {
    let _serialize = counters_lock();
    // Large enough for the iterative drop walk (>= 2^14 entries at the
    // upper levels), called from this thread — not a pool worker, the
    // way a store commit drops the version it evicts.
    let old: PacMap<u64, u64> = PacMap::from_pairs((0..200_000u64).map(|i| (i * 2, i)).collect());
    let new = old.insert(100_001, 7);
    let (jobs, injected) = pool_jobs();
    let before = stats::read();
    // `old` differs from `new` by one path: every node beside it is
    // shared, so the drop is a walk down that path.
    drop(old);
    let freed = stats::read().delta(before).nodes_dropped;
    assert!((2..40).contains(&freed), "freed {freed} nodes for one path");
    assert_eq!(pool_jobs(), (jobs, injected), "dropping one path entered the scheduler");
    assert_eq!(new.len(), 200_001);
    new.check_invariants().unwrap();

    // The version a commit actually evicts: superseded by a 64-key batch
    // spread across the tree, so both children of its root — and many
    // nodes below — are its alone. Off the pool it is still one walk on
    // this thread.
    let old = new;
    let batch: Vec<(u64, u64)> = (0..64u64).map(|i| (i * 6_250 + 3, i)).collect();
    let new = old.multi_insert(batch);
    let (jobs, injected) = pool_jobs();
    let before = stats::read();
    drop(old);
    let freed = stats::read().delta(before).nodes_dropped;
    assert!((64..1_000).contains(&freed), "freed {freed} nodes for 64 paths");
    assert_eq!(pool_jobs(), (jobs, injected), "dropping 64 paths entered the scheduler");
    assert_eq!(new.len(), 200_065);
    new.check_invariants().unwrap();

    // A caller that wants a whole tree torn down in parallel drops it
    // inside `run`: there the walk forks, besides the run's own job.
    if pool_can_fork("dropping_a_superseded_version_stays_off_the_pool") {
        let (jobs, _) = pool_jobs();
        parlay::run(move || drop(new));
        let spent = pool_jobs().0 - jobs;
        assert!(spent > 1, "a 200k-entry drop inside the pool executed {spent} job(s)");
    }
}
