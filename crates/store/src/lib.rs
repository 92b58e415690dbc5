//! pacstore: a versioned, persistent key-value store on PaC-trees.
//!
//! The paper's headline property — array-like space with O(1)
//! purely-functional snapshots — is exactly the substrate a
//! multi-version store needs (the PAM line of work serves databases
//! this way). This crate turns the workspace's [`cpam::PacMap`] into a
//! serveable system:
//!
//! * **One engine** — an MVCC key-value store over N key-range shards
//!   (a [`Router`] partition map), each shard a PaC-tree with its own
//!   page chain, all shards behind one write-ahead log. Writers submit
//!   batches to a group-commit pipeline (one parallel tree update and
//!   one log append per *group*, not per batch), committed *atomically*
//!   across shards because the group's last byte is its commit point;
//!   readers pin any retained version as an O(1) snapshot of one
//!   consistent version vector and never block. Open/recovery, commit,
//!   pin/GC and the checkpoint routine exist once.
//! * **[`ShardedStore`]** is the engine's handle at any shard count,
//!   with [`ShardedSnapshot`]s spanning the shards; **[`PacStore`]** is
//!   the same engine at one shard ([`Router::single`]), whose
//!   [`Snapshot`] exposes the single [`cpam::PacMap`] directly. A
//!   `PacStore` directory is a one-shard `ShardedStore` directory.
//! * **Page files** ([`page`]) — the one on-disk image of a PaC-tree,
//!   full snapshot and incremental diff alike: interior structure as a
//!   tagged pre-order stream, leaves as their *already-encoded
//!   compressed blocks*, copied verbatim both ways (decode does no
//!   re-sorting and no re-encoding, so space accounting is
//!   bit-identical). [`StoreOptions::pool_pages`] is a *read policy*
//!   over that one format — every leaf adopted resident at `open`, or
//!   `O(structure)` opens with leaves paged through a [`BufferPool`] —
//!   never a choice of what is written. CRC-32s over the metadata and
//!   over every leaf record make truncation and bit flips surface as
//!   typed [`StoreError`]s.
//! * **Durability** ([`wal`]) — one append-only batch log per store,
//!   replayed on open in one forward pass with standard torn-tail
//!   recovery; `save`/`save_incremental`/`compact` checkpoint the
//!   committed state into pages and rewrite the log without the groups
//!   they cover.
//!
//! ```
//! use store::{Op, PacStore};
//!
//! let store: PacStore<u64, String> = PacStore::in_memory();
//!
//! // Commit batches; each group of concurrent batches becomes one
//! // immutable version.
//! let v1 = store.commit(vec![Op::Put(1, "one".into())]).unwrap();
//! let pinned = store.snapshot(); // O(1), never blocks writers
//! let v2 = store
//!     .commit(vec![Op::Put(1, "uno".into()), Op::Put(2, "dos".into())])
//!     .unwrap();
//!
//! assert_eq!(store.get(&1), Some("uno".into()));
//! assert_eq!(pinned.get(&1), Some("one".into())); // time travel
//! assert_eq!(store.snapshot_at(v1).unwrap().len(), 1);
//! assert_eq!(store.snapshot_at(v2).unwrap().len(), 2);
//! ```
//!
//! Durable stores work the same way, plus [`PacStore::open`] /
//! [`ShardedStore::save`] (a `PacStore` derefs to its engine); see `examples/versioned_store.rs` and
//! `examples/sharded_store.rs` for the tours, `DESIGN.md` §"The store
//! engine" for the directory layout, commit protocol, recovery rule
//! and checkpoint routine, and §"pacstore on-disk formats" for the
//! byte layouts.

pub mod checksum;
mod error;
mod lifecycle;
pub mod metrics;
mod mvcc;
pub mod page;
pub mod pool;
mod router;
mod shard;
pub mod wal;

pub use error::StoreError;
pub use lifecycle::{GcStats, LifecycleStats, RetentionPolicy, VersionRegistry};
pub use mvcc::{
    Op, PacStore, Snapshot, StoreKey, StoreOptions, StoreValue, LOCK_FILE, LOG_FILE, SNAPSHOT_FILE,
};
pub use page::{
    decode_snapshot, encode_snapshot, incr_file_name, write_file_atomic, DiskTree, PAGE_MAGIC,
};
pub use pool::{BufferPool, PageKey, PoolStats};
pub use router::{Router, PARTITION_FILE, PARTITION_MAGIC};
pub use shard::{shard_dir_name, ShardedSnapshot, ShardedStore};
