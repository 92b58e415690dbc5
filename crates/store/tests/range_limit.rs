//! Pins what a limited range read costs, in exact counts: a
//! `range_for_each` over the whole key space of a 10⁶-entry, 3-shard
//! store that stops after 10 entries reads the one leaf holding them,
//! not every leaf of the range.
//!
//! This file must contain exactly one `#[test]`: `cpam::stats` counters
//! are process-wide, so a concurrently running sibling test would make
//! the cursor-op delta racy.

use std::ops::ControlFlow;

use store::{Op, Router, ShardedStore};

const N: u64 = 1_000_000;
const LIMIT: usize = 10;

#[test]
fn a_limited_range_read_stops_at_its_limit() {
    let store: ShardedStore<u64, u64> =
        ShardedStore::in_memory(Router::uniform_span(3, N)).unwrap();
    for start in (0..N).step_by(100_000) {
        let ops = (start..start + 100_000).map(|k| Op::Put(k, k)).collect();
        store.commit(ops).unwrap();
    }
    let snap = store.snapshot();
    assert_eq!(snap.len(), N as usize);
    assert_eq!(snap.shard_count(), 3);

    let before = cpam::stats::read();
    let mut got = Vec::new();
    let flow = snap.range_for_each(&0, &u64::MAX, |e| {
        got.push(*e);
        match got.len() == LIMIT {
            true => ControlFlow::Break(()),
            false => ControlFlow::Continue(()),
        }
    });
    let cost = cpam::stats::read().delta(before);

    assert!(flow.is_break());
    assert_eq!(got, (0..LIMIT as u64).map(|k| (k, k)).collect::<Vec<_>>());
    assert!(
        cost.cursor_ops <= 2,
        "a 10-entry read touched {} leaves",
        cost.cursor_ops
    );
}
