//! Ownership-aware updates: the refcount-1 in-place fast path.
//!
//! Every PaC-tree update has two flavours:
//!
//! * the persistent `&self` methods (`insert`, `remove`, `union`, ...)
//!   return a new collection and leave the old one intact — the old
//!   version keeps a reference to every node, so the update path-copies;
//! * the consuming `*_owned` methods take the collection by value. For
//!   each node on the update path the tree checks, at the moment of the
//!   rebuild, whether the caller holds the *only* reference
//!   (`Arc` refcount 1) — and if so overwrites the node in place
//!   instead of allocating a copy.
//!
//! Holding a clone anywhere (a snapshot, an old version, a reader)
//! makes the shared nodes revert to copy-on-write automatically, so
//! persistence semantics never change; only the allocation traffic
//! does.
//!
//! Either way a point update rewrites *one* leaf: the consuming loop
//! encodes exactly one block per insert, and two consecutive persistent
//! versions differ in exactly one leaf (plus the path above it) — the
//! sibling is linked back untouched and stays shared. Both are asserted
//! below. Run with `cargo run --release --example inplace_updates`.

use cpam::structure::NodeRef;
use cpam::{stats, PacMap};

fn main() {
    const N: u64 = 100_000;
    const OPS: u64 = 10_000;

    let base: PacMap<u64, u64> = PacMap::from_pairs((0..N).map(|i| (i * 2, i)).collect());

    // --- Consuming loop: uniquely owned, nodes rebuilt in place. -----
    let before = stats::read();
    let mut hot = base.clone();
    for i in 0..OPS {
        // After the first op `hot` shares nothing with `base` on the
        // update path, so the whole spine is refcount-1. (Fresh odd
        // keys spread over the base's range, ~20 a leaf: every insert
        // lands in a leaf and no leaf outgrows 2B.)
        hot = hot.insert_owned(i * 31 % N * 2 + 1, i);
    }
    let owned = stats::read().delta(before);
    println!(
        "consuming loop:  {:>7} node rebuilds reused in place, {:>7} copied  ({:.1}% reuse)",
        owned.nodes_reused,
        owned.nodes_copied,
        100.0 * owned.reuse_ratio()
    );
    println!(
        "                 {:.4} block encodes per insert, {} full-block decodes",
        owned.block_encodes as f64 / OPS as f64,
        owned.block_decodes
    );
    assert_eq!(owned.block_encodes, OPS, "an insert re-encoded more than its own leaf");
    assert_eq!(owned.block_decodes, 0, "an insert flattened a leaf beside its own");

    // --- Persistent loop: every version pinned, every path copied. ---
    let before = stats::read();
    let mut versions = vec![base.clone()];
    for i in 0..OPS / 10 {
        // `insert` (&self) keeps the previous version alive; with the
        // version vector pinning each one, nothing is uniquely owned.
        let next = versions.last().unwrap().insert(i * 31 % N * 2 + 1, i);
        versions.push(next);
    }
    let persistent = stats::read().delta(before);
    println!(
        "persistent loop: {:>7} node rebuilds reused in place, {:>7} copied  ({:.1}% reuse)",
        persistent.nodes_reused,
        persistent.nodes_copied,
        100.0 * persistent.reuse_ratio()
    );
    // What v+1 does not share with v — the walk a checkpoint diff does.
    let mut unshared_leaves = 0usize;
    for pair in versions.windows(2) {
        pair[1].visit_nodes(Some(&pair[0]), &mut |node| {
            if let NodeRef::Flat(_) = node {
                unshared_leaves += 1;
            }
        });
    }
    println!(
        "                 {:.4} leaves not shared between v and v+1",
        unshared_leaves as f64 / (versions.len() - 1) as f64
    );
    assert_eq!(unshared_leaves, versions.len() - 1, "a version rewrote a leaf it did not touch");

    // Safety: the refcount check is per node, so snapshots stay frozen
    // no matter which flavour ran.
    let snapshot = hot.clone();
    let len_at_snapshot = snapshot.len();
    hot = hot.insert_owned(u64::MAX, 42);
    assert_eq!(snapshot.len(), len_at_snapshot);
    assert_eq!(snapshot.find(&u64::MAX), None);
    assert_eq!(hot.find(&u64::MAX), Some(42));
    assert_eq!(base.len(), N as usize);
    println!("snapshots stay immutable: pinned version unchanged after consuming update");
}
