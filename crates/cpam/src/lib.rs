//! CPAM in Rust: parallel, compressed, purely-functional collections on
//! PaC-trees.
//!
//! This crate reimplements the data structure and library of
//! *"PaC-trees: Supporting Parallel and Compressed Purely-Functional
//! Collections"* (PLDI 2022): weight-balanced binary search trees whose
//! leaves are *blocked* — packed into encoded arrays of `B..2B` entries —
//! giving close-to-array space usage while keeping `O(log n)`-style
//! functional updates and a full parallel collection interface.
//!
//! # The collection types
//!
//! Ordered collections are one generic type, [`PacOrd`], parameterised
//! by its entry as in PAM, and used through two aliases:
//!
//! * [`PacSet`]`<K>` = `PacOrd<K>` — ordered sets
//!   (union/intersect/difference, rank/select, ranges);
//! * [`PacMap`]`<K, V>` = `PacOrd<(K, V)>` — ordered maps with optional
//!   *augmentation* (an associative aggregate maintained per subtree,
//!   e.g. max or sum).
//!
//! Positional collections are a separate type:
//!
//! * [`PacSeq`] — sequences (take/subseq/append/reverse/map/reduce).
//!
//! All are persistent: every operation returns a new collection sharing
//! structure with the input, a `clone` is an `O(1)` snapshot, and
//! reference counting (`Arc`) reclaims unshared nodes — the paper's
//! memory-management design, for free in Rust.
//!
//! # Compression
//!
//! Leaf blocks are encoded through the [`codecs::Codec`] trait:
//! [`codecs::RawCodec`] stores plain arrays (the paper's default), while
//! [`codecs::DeltaCodec`] difference-encodes integer keys with byte
//! codes, reaching ~1 byte per entry on locality-friendly data
//! (Theorem 4.2). User-defined codecs plug in the same way.
//!
//! ```
//! use cpam::{PacSet, NoAug};
//! use codecs::DeltaCodec;
//!
//! // A plain and a difference-encoded set over the same keys.
//! let keys: Vec<u64> = (0..100_000).map(|i| 3 * i).collect();
//! let plain: PacSet<u64> = PacSet::from_keys(keys.clone());
//! let packed: PacSet<u64, NoAug, DeltaCodec> = PacSet::from_keys(keys);
//! assert_eq!(plain.len(), packed.len());
//! // Delta encoding: ~8x smaller than raw 8-byte keys.
//! assert!(packed.space_stats().total_bytes * 4 < plain.space_stats().total_bytes);
//! ```
//!
//! # Parallelism
//!
//! Bulk operations (build, union, filter, map, reduce, batch updates)
//! fork through [`parlay::join_if`], at one cutoff per operation that
//! [`parlay::cutoff`] computes from the root problem's size (`usize::MAX`
//! on a one-worker pool, so nothing forks there); wrap a batch of work in
//! [`parlay::run`] to enter the pool once. Everything is deterministic.

mod algos;
mod base;
mod entry;
mod iter;
mod join;
mod node;
mod scratch;
mod seq;
mod setops;
mod verify;

mod aug;
mod map;
mod ordered;
mod pseq;
mod set;

pub mod stats;
pub mod structure;

pub use aug::{Augmentation, MaxAug, NoAug, SumAug};
pub use entry::{Element, Entry, ScalarKey};
pub use iter::Iter;
pub use map::{PacMap, RangePart};
pub use node::{BlockSource, SpaceStats};
pub use ordered::PacOrd;
pub use pseq::PacSeq;
pub use set::PacSet;

/// The paper's default block size.
pub const DEFAULT_B: usize = 128;

/// A difference-encoded ordered set of integer keys.
pub type DiffSet<K, A = NoAug> = PacSet<K, A, codecs::DeltaCodec>;

/// A difference-encoded ordered map (integer keys, byte-coded values).
pub type DiffMap<K, V, A = NoAug> = PacMap<K, V, A, codecs::DeltaCodec>;

#[cfg(test)]
mod tests;
