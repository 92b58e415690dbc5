//! Adaptive fork-granularity policy for the bulk tree operations.
//!
//! Fork cutoffs used to be fixed constants (`max(4b, 1024)` for the
//! divide-and-conquer set operations, `4096` for builds and walks),
//! which pays full `StackJob` bookkeeping on a single-threaded pool and
//! picks the same split depth whether 1 or 64 workers are available.
//! This module centralizes the policy:
//!
//! - **1 worker:** every cutoff is `usize::MAX` — bulk ops run pure
//!   sequential code with zero fork overhead (the scheduler's solo
//!   `join` fast path makes a stray fork cheap, this makes it free).
//! - **T workers:** the static floor is kept (small subproblems are
//!   never worth a fork) but scaled up to `n / (8 * T)` for large root
//!   problems: about `8T` leaf tasks per operation is enough slack for
//!   work stealing to balance load without flooding the deques with
//!   thousands of tiny jobs.
//!
//! `n` is the size of the *root* problem; callers compute a grain once
//! at the entry point and thread it through their recursion, so the
//! cutoff is a property of the whole operation, not of each subtree.
//!
//! For the batch updates the problem is the *batch's work*, not the
//! tree: 16 keys into a million entries touch 16 leaves, so
//! [`batch_grain`] takes the entries the batch can reach and never goes
//! below [`parlay::FORK_FLOOR`], under which an operation never enters
//! the scheduler at all. The floor is the scheduler's, not this
//! module's: a store commit checks the same one before it fans out over
//! its shards, so a batch that cpam would not fork does not enter the
//! pool one layer up either.
//!
//! The worker count is read once and cached: the pool's size is fixed
//! after startup, and the policy is consulted on every recursive step.

use std::sync::OnceLock;

fn pool_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(parlay::num_threads)
}

/// Fork cutoff for the divide-and-conquer walks over two trees or one
/// (the expose-only union, filter) on trees with
/// block-size parameter `b`, for a root problem of `n` entries.
///
/// Subproblems of at most `max(4b, 1024)` entries — a handful of leaf
/// blocks — always run sequentially; see the module docs for the
/// thread-count scaling.
pub(crate) fn par_grain(b: usize, n: usize) -> usize {
    let threads = pool_threads();
    if threads <= 1 {
        return usize::MAX;
    }
    (4 * b).max(1024).max(n / (8 * threads))
}

// A commit-sized batch — 64 keys at B = 128 touch at most 64·256 + 64
// entries — stays under the fork floor and never enters the scheduler.
const _: () = assert!(64 * 256 + 64 <= parlay::FORK_FLOOR);

/// Fork cutoff for the batch update (`setops::multi_update`)
/// whose root problem is `work` entries of batch work — what the keys
/// can touch, not the size of the tree they land in: a small batch into
/// a large tree is a small problem. Never below [`parlay::FORK_FLOOR`];
/// same `8T` tasks scaling as [`par_grain`] above it.
pub(crate) fn batch_grain(work: usize) -> usize {
    let threads = pool_threads();
    if threads <= 1 {
        return usize::MAX;
    }
    parlay::FORK_FLOOR.max(work / (8 * threads))
}

/// Fork cutoff for structure builds and linear walks (`from_sorted`,
/// `to_vec`, map/filter/fold traversals) over `n` entries, where the
/// per-entry work has no block-size dependence.
pub(crate) fn walk_grain(n: usize) -> usize {
    let threads = pool_threads();
    if threads <= 1 {
        return usize::MAX;
    }
    4096usize.max(n / (8 * threads))
}

/// Whether the pool can run anything in parallel at all. Used by fork
/// sites with non-size-based heuristics (e.g. parallel subtree drops).
pub(crate) fn pool_is_parallel() -> bool {
    pool_threads() > 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grains_scale_with_problem_size() {
        if pool_threads() <= 1 {
            assert_eq!(par_grain(32, 1_000_000), usize::MAX);
            assert_eq!(walk_grain(1_000_000), usize::MAX);
            assert!(!pool_is_parallel());
        } else {
            let t = pool_threads();
            // Small problems keep the static floor.
            assert_eq!(par_grain(32, 1000), 1024);
            assert_eq!(walk_grain(1000), 4096);
            // Large problems scale as n / 8T.
            let n = 80_000_000;
            assert_eq!(par_grain(32, n), n / (8 * t));
            assert_eq!(walk_grain(n), n / (8 * t));
            assert!(pool_is_parallel());
        }
    }

    #[test]
    fn batch_grain_follows_the_batch_not_the_tree() {
        if pool_threads() <= 1 {
            assert_eq!(batch_grain(1 << 30), usize::MAX);
            return;
        }
        // A commit-sized batch (64 keys at B = 128) is under the floor
        // whatever tree it lands in; bulk work scales as work / 8T.
        assert_eq!(batch_grain(64 * 256 + 64), parlay::FORK_FLOOR);
        let work = 80_000_000;
        assert_eq!(batch_grain(work), work / (8 * pool_threads()));
    }

    #[test]
    fn block_size_floor_dominates_for_big_blocks() {
        if pool_threads() > 1 {
            assert_eq!(par_grain(512, 1000), 2048);
        }
    }
}
