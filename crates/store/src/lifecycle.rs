//! Version lifecycle: retention policy, pin registry, and the stats
//! counters behind GC and log compaction.
//!
//! MVCC snapshots are cheap to *create* — a PaC-tree clone is one
//! refcount bump — but history retained forever pins every subtree any
//! old version ever referenced. The lifecycle subsystem reclaims that
//! space along two axes:
//!
//! * **Version GC** ([`crate::ShardedStore::gc`]): drops retained history entries that
//!   are neither within the [`RetentionPolicy`]'s `keep_last` window
//!   nor pinned in the [`VersionRegistry`]. Dropping a version is just
//!   dropping its root `Arc`; the existing refcount machinery frees
//!   exactly the subtrees no surviving version shares, which the
//!   [`cpam::stats`] `nodes_dropped` counter makes observable.
//! * **Log compaction** ([`crate::ShardedStore::compact`]):
//!   checkpoint-then-truncate — the
//!   committed version is persisted (incrementally when a previous
//!   checkpoint is pinned), then the WAL prefix it covers is dropped,
//!   bounding log growth under sustained writes.
//!
//! Safety argument: a pinned version's root keeps every node it
//! references at refcount ≥ 1 *and* marks them shared (refcount ≥ 2
//! for anything also in the current version), so neither GC of other
//! versions nor the in-place-reuse write path can free or mutate a
//! pinned snapshot's data out from under a reader.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;

use codecs::{write_list, ByteEncode};
use parking_lot::Mutex;

use crate::checksum::{seal, unseal};
use crate::error::StoreError;
use crate::page;

/// Which retained versions GC may drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Keep this many most-recent history entries (the current version
    /// is always kept regardless). Pinned versions are kept on top of
    /// this window — unlike `StoreOptions::history_limit`, whose window
    /// counts the pinned versions it keeps.
    pub keep_last: usize,
}

impl RetentionPolicy {
    /// Keep the `k` most recent versions plus everything pinned.
    pub fn keep_last(k: usize) -> Self {
        RetentionPolicy { keep_last: k }
    }
}

impl Default for RetentionPolicy {
    /// Keep only the current version (plus pins).
    fn default() -> Self {
        RetentionPolicy { keep_last: 1 }
    }
}

/// What one GC pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// History entries dropped by this pass.
    pub versions_dropped: usize,
    /// History entries retained (window + pins + current).
    pub versions_retained: usize,
    /// Tree nodes freed while dropping those entries, measured as the
    /// [`cpam::stats`] `nodes_dropped` delta around the drop. Exact
    /// when no other thread frees trees concurrently; an upper bound
    /// otherwise (the counters are process-global).
    pub nodes_reclaimed: u64,
}

/// Cumulative lifecycle counters for one store handle, read via
/// [`crate::ShardedStore::lifecycle_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// GC passes run.
    pub gc_runs: u64,
    /// History entries dropped across all GC passes.
    pub versions_dropped: u64,
    /// Nodes reclaimed across all GC passes (see
    /// [`GcStats::nodes_reclaimed`] for accuracy).
    pub nodes_reclaimed: u64,
    /// Full snapshot pages written.
    pub full_saves: u64,
    /// Incremental snapshot pages written.
    pub incremental_saves: u64,
    /// Compaction cycles completed.
    pub compactions: u64,
    /// Cumulative bytes of full pages written.
    pub full_page_bytes: u64,
    /// Cumulative bytes of incremental pages written.
    pub incremental_page_bytes: u64,
    /// Cumulative WAL bytes dropped by checkpoint truncation.
    pub wal_bytes_truncated: u64,
}

impl LifecycleStats {
    /// Counter increments between `earlier` and `self`, where both were
    /// read from the same store handle and `earlier` was taken first.
    /// Same snapshot-vs-delta idiom as [`cpam::stats::OpCounts::delta`].
    pub fn delta(&self, earlier: LifecycleStats) -> LifecycleStats {
        LifecycleStats {
            gc_runs: self.gc_runs - earlier.gc_runs,
            versions_dropped: self.versions_dropped - earlier.versions_dropped,
            nodes_reclaimed: self.nodes_reclaimed - earlier.nodes_reclaimed,
            full_saves: self.full_saves - earlier.full_saves,
            incremental_saves: self.incremental_saves - earlier.incremental_saves,
            compactions: self.compactions - earlier.compactions,
            full_page_bytes: self.full_page_bytes - earlier.full_page_bytes,
            incremental_page_bytes: self.incremental_page_bytes - earlier.incremental_page_bytes,
            wal_bytes_truncated: self.wal_bytes_truncated - earlier.wal_bytes_truncated,
        }
    }
}

/// Tracks explicitly pinned versions. Pins are counted, so independent
/// readers can pin the same version and each unpin releases one hold;
/// the version stays GC-exempt until the count reaches zero.
///
/// The registry is bookkeeping only — the memory safety of a pinned
/// snapshot comes from the `Arc` the history entry holds. What a pin
/// buys is *retention*: GC and commit-time history eviction skip
/// pinned versions, so [`crate::ShardedStore::snapshot_at`] keeps working
/// for them.
pub struct VersionRegistry {
    pins: Mutex<HashMap<u64, usize>>,
}

impl Default for VersionRegistry {
    fn default() -> Self {
        VersionRegistry {
            pins: Mutex::new(HashMap::new()),
        }
    }
}

impl std::fmt::Debug for VersionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionRegistry")
            .field("pins", &*self.pins.lock())
            .finish()
    }
}

impl VersionRegistry {
    /// A registry seeded with pins loaded from disk (see
    /// [`load_pins`]).
    pub(crate) fn from_pins(pins: HashMap<u64, usize>) -> Self {
        VersionRegistry {
            pins: Mutex::new(pins),
        }
    }

    /// The full pin table `(version, count)`, ascending by version —
    /// the payload [`persist_pins`] writes.
    pub(crate) fn dump(&self) -> Vec<(u64, usize)> {
        let mut out: Vec<(u64, usize)> = self.pins.lock().iter().map(|(&v, &n)| (v, n)).collect();
        out.sort_unstable();
        out
    }

    /// Adds one pin on `version`.
    pub fn pin(&self, version: u64) {
        *self.pins.lock().entry(version).or_insert(0) += 1;
    }

    /// Releases one pin on `version`; returns `false` if it held none.
    pub fn unpin(&self, version: u64) -> bool {
        let mut pins = self.pins.lock();
        match pins.get_mut(&version) {
            Some(n) if *n > 1 => {
                *n -= 1;
                true
            }
            Some(_) => {
                pins.remove(&version);
                true
            }
            None => false,
        }
    }

    /// The set of pinned versions, for a retention decision.
    pub fn pinned(&self) -> HashSet<u64> {
        self.pins.lock().keys().copied().collect()
    }
}

/// Commit-time history eviction, pin-aware: pops the *oldest unpinned*
/// entries until at most `limit` remain or only pinned entries (plus
/// the newest) are left. With pins held, history may exceed `limit` —
/// that is the point of a pin.
///
/// The pin set is read once per call: the caller holds the store's
/// state lock, which `pin_version` and `unpin_version` also take, so
/// pins cannot change under it.
///
/// The evicted entries are handed back rather than dropped here:
/// freeing a superseded version walks every node only it owns (and runs
/// the `Drop` of every value in them), which a caller holding a lock
/// readers need must do after releasing it.
#[must_use = "drop the evicted versions outside any lock readers take"]
pub(crate) fn evict_history<T>(
    history: &mut VecDeque<T>,
    limit: usize,
    version_of: impl Fn(&T) -> u64,
    registry: &VersionRegistry,
) -> Vec<T> {
    let limit = limit.max(1);
    if history.len() <= limit {
        return Vec::new();
    }
    let pinned = registry.pinned();
    let mut evicted = Vec::new();
    while history.len() > limit {
        // Never evict the newest entry (the current version).
        let victim = history
            .iter()
            .take(history.len() - 1)
            .position(|e| !pinned.contains(&version_of(e)));
        match victim {
            Some(i) => evicted.extend(history.remove(i)),
            None => break,
        }
    }
    evicted
}

// ----- Pin persistence ----------------------------------------------
//
// Pins promise retention, and retention is only meaningful if it
// survives a restart: a reader that pinned version 7 before the
// process died expects `snapshot_at(7)` to still work after reopen
// (provided the WAL still reaches it). The pin table is therefore
// written to `pins.pac` in the store directory on every pin/unpin,
// atomically (temp + rename, like snapshot pages), and loaded *before*
// WAL replay so replay-time history eviction honors it.

/// File holding the durable pin table, at the root of a store (or
/// sharded store) directory.
pub(crate) const PINS_FILE: &str = "pins.pac";

/// `pins.pac` layout: a sealed envelope ([`crate::checksum::seal`])
/// around this magic and a `Vec<(u64, usize)>` of `(version, pin
/// count)` entries in the [`ByteEncode`] grammar: varint entry count,
/// then per entry `varint version ++ varint pin-count`.
const PINS_MAGIC: &[u8; 8] = b"PACPINS1";

fn encode_pins(pins: &[(u64, usize)]) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + pins.len() * 10);
    write_list(pins, &mut body);
    seal(PINS_MAGIC, &body)
}

fn decode_pins(bytes: &[u8]) -> Result<HashMap<u64, usize>, StoreError> {
    let body = unseal(PINS_MAGIC, bytes)?;
    let mut pos = 0;
    let entries = Vec::<(u64, usize)>::try_read(body, &mut pos)
        .ok_or_else(|| StoreError::Corrupt("malformed pin table".into()))?;
    if pos != body.len() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after pin table",
            body.len() - pos
        )));
    }
    let mut pins = HashMap::with_capacity(entries.len());
    for (version, n) in entries {
        if n == 0 {
            return Err(StoreError::Corrupt(format!(
                "pin count 0 for version {version}"
            )));
        }
        if pins.insert(version, n).is_some() {
            return Err(StoreError::Corrupt(format!(
                "duplicate pin entry for version {version}"
            )));
        }
    }
    Ok(pins)
}

/// Loads the pin table from `dir`, an empty table when no `pins.pac`
/// exists yet.
///
/// # Errors
///
/// I/O errors; [`StoreError::BadMagic`] /
/// [`StoreError::ChecksumMismatch`] / [`StoreError::Truncated`] /
/// [`StoreError::Corrupt`] for a clobbered file.
pub(crate) fn load_pins(dir: &Path) -> Result<HashMap<u64, usize>, StoreError> {
    let path = dir.join(PINS_FILE);
    if !path.exists() {
        return Ok(HashMap::new());
    }
    decode_pins(&std::fs::read(&path)?)
}

/// Durably rewrites `dir`'s pin table from `registry`'s current state
/// (atomic temp-then-rename; see [`page::write_file_atomic`]).
///
/// # Errors
///
/// Any underlying I/O error.
pub(crate) fn persist_pins(dir: &Path, registry: &VersionRegistry) -> Result<(), StoreError> {
    page::write_file_atomic(&dir.join(PINS_FILE), &encode_pins(&registry.dump())).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::crc32;
    use codecs::bytecode;

    #[test]
    fn pins_are_counted() {
        let r = VersionRegistry::default();
        r.pin(7);
        r.pin(7);
        assert!(r.pinned().contains(&7));
        assert!(r.unpin(7));
        assert!(r.pinned().contains(&7));
        assert!(r.unpin(7));
        assert!(!r.pinned().contains(&7));
        assert!(!r.unpin(7));
    }

    #[test]
    fn eviction_skips_pinned_and_keeps_newest() {
        let r = VersionRegistry::default();
        r.pin(2);
        let mut h: VecDeque<u64> = (1..=6).collect();
        assert_eq!(evict_history(&mut h, 2, |&v| v, &r), vec![1, 3, 4, 5]);
        assert_eq!(h, VecDeque::from(vec![2, 6]));

        // All pinned but the newest: nothing below the limit to evict.
        let r = VersionRegistry::default();
        for v in 1..=3 {
            r.pin(v);
        }
        let mut h: VecDeque<u64> = (1..=4).collect();
        assert!(evict_history(&mut h, 1, |&v| v, &r).is_empty());
        assert_eq!(h, VecDeque::from(vec![1, 2, 3, 4]));
    }

    #[test]
    fn pin_table_roundtrips() {
        let r = VersionRegistry::default();
        r.pin(3);
        r.pin(3);
        r.pin(9);
        let decoded = decode_pins(&encode_pins(&r.dump())).unwrap();
        assert_eq!(decoded, HashMap::from([(3, 2), (9, 1)]));
        // Empty table roundtrips too (the post-last-unpin state).
        assert!(decode_pins(&encode_pins(&[])).unwrap().is_empty());
    }

    #[test]
    fn clobbered_pin_tables_are_typed_errors() {
        let good = encode_pins(&[(5, 1), (7, 2)]);

        assert!(matches!(
            decode_pins(b"NOTPINS!rest"),
            Err(StoreError::BadMagic)
        ));
        assert!(matches!(
            decode_pins(&good[..good.len() - 2]),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        let mut flipped = good.clone();
        flipped[10] ^= 0x40;
        assert!(matches!(
            decode_pins(&flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // CRC-valid but hostile: entry count far past the byte budget.
        let mut hostile = Vec::from(*PINS_MAGIC);
        bytecode::write_varint(1 << 33, &mut hostile);
        let crc = crc32(&hostile);
        hostile.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_pins(&hostile), Err(StoreError::Corrupt(_))));

        // CRC-valid zero pin count: structurally impossible.
        let mut zero = Vec::from(*PINS_MAGIC);
        bytecode::write_varint(1, &mut zero);
        bytecode::write_varint(4, &mut zero);
        bytecode::write_varint(0, &mut zero);
        let crc = crc32(&zero);
        zero.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_pins(&zero), Err(StoreError::Corrupt(_))));

        // An entry count equal to the bytes left whose entries then run
        // out, and a count one past the bytes left.
        for list in [[2u8, 5, 1], [3, 5, 1]] {
            let mut short = Vec::from(*PINS_MAGIC);
            short.extend_from_slice(&list);
            let crc = crc32(&short);
            short.extend_from_slice(&crc.to_le_bytes());
            assert!(matches!(decode_pins(&short), Err(StoreError::Corrupt(_))));
        }
    }

    /// Lowercase hex of `bytes`.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sealed_files_and_log_records_keep_their_bytes() {
        // Pinned byte for byte: a change to any of these literals is a
        // format change, and needs a new magic or format byte.
        use crate::mvcc::Op;
        let ops = [Op::Put(1u64, 10u64), Op::Delete(300), Op::Put(u64::MAX, 0)];
        let record = crate::wal::encode_record(7, 42, &[0, 2, 5], 0xD00D_F00D, &ops);
        assert_eq!(
            hex(&record),
            "1ea2070df00dd02a030002050300010a01ac0200ffffffffffffffffff01008700a828"
        );
        let replay = crate::wal::replay::<u64, u64>(&record, 0xD00D_F00D);
        assert_eq!(replay.records[0].ops, ops);
        assert_eq!(replay.records[0].participants, vec![0, 2, 5]);

        let router = crate::Router::new(vec![100u64, 2000, 30_000]).unwrap();
        assert_eq!(
            hex(&router.encode()),
            "504143504152543112e7fa790364d00fb0ea0172e37212"
        );
        assert_eq!(
            crate::Router::<u64>::decode(&router.encode()).unwrap(),
            router
        );

        let pins = encode_pins(&[(5, 1), (300, 2)]);
        assert_eq!(hex(&pins), "50414350494e5331020501ac0202d8026439");
        assert_eq!(
            decode_pins(&pins).unwrap(),
            HashMap::from([(5, 1), (300, 2)])
        );
    }
}
