//! Key-range partitioning for the sharded store: which shard owns a
//! key, how a batch splits across shards, and how the partition map is
//! persisted.
//!
//! A [`Router`] is an ordered list of boundary keys `b_0 < b_1 < ... <
//! b_{n-2}` carving the keyspace into `n` contiguous ranges: shard `0`
//! owns `(-inf, b_0)`, shard `i` owns `[b_{i-1}, b_i)`, and the last
//! shard owns `[b_{n-2}, +inf)`. Contiguity is what makes a sharded
//! store still an *ordered* collection — concatenating per-shard
//! entries in shard order yields the globally sorted sequence, so range
//! queries and ordered scans compose from [`cpam::PacMap::range`]
//! pieces, the same composition PAM uses for augmented-map queries.
//!
//! The partition map is persisted (`partition.pac`) so reopening a
//! store directory recovers the exact same routing; a store whose
//! boundaries changed out from under its shard data would silently
//! misroute reads.
//!
//! On-disk layout (see DESIGN.md §6):
//!
//! ```text
//! magic    8 bytes   b"PACPART1"
//! schema   4 bytes   little-endian key-type fingerprint (schema_id)
//! count    varint    number of boundaries (shard count - 1)
//! keys     ...       ByteEncode'd boundary keys, ascending
//! crc32    4 bytes   little-endian, over everything above
//! ```
//!
//! The magic and the trailer are the sealed-file envelope
//! ([`crate::checksum::seal`]); count and keys are a `Vec<K>` in the
//! [`codecs::ByteEncode`] grammar.

use std::path::Path;

use codecs::ByteEncode;
use cpam::ScalarKey;

use crate::checksum::{schema_id, seal, unseal};
use crate::error::StoreError;
use crate::mvcc::Op;

/// Identifies a pacstore partition map, version 01.
pub const PARTITION_MAGIC: [u8; 8] = *b"PACPART1";

/// File name of the partition map inside a sharded store directory.
pub const PARTITION_FILE: &str = "partition.pac";

/// The key-range partition map of a [`crate::ShardedStore`]: routes
/// point operations to shards and splits batches by range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router<K> {
    /// Strictly ascending boundary keys; `boundaries.len() + 1` shards.
    boundaries: Vec<K>,
}

impl<K: ScalarKey> Router<K> {
    /// A router over `boundaries.len() + 1` shards.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidBoundaries`] unless the boundaries are
    /// strictly ascending.
    pub fn new(boundaries: Vec<K>) -> Result<Self, StoreError> {
        if let Some(i) = (1..boundaries.len()).find(|&i| boundaries[i - 1] >= boundaries[i]) {
            return Err(StoreError::InvalidBoundaries(format!(
                "boundaries must be strictly ascending (violated at index {i})"
            )));
        }
        Ok(Router { boundaries })
    }

    /// The single-shard router (no boundaries): every key routes to
    /// shard 0. Useful as the degenerate point of a shard-count sweep.
    pub fn single() -> Self {
        Router {
            boundaries: Vec::new(),
        }
    }

    /// Number of shards (`boundaries + 1`).
    pub fn shard_count(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The boundary keys, ascending.
    pub fn boundaries(&self) -> &[K] {
        &self.boundaries
    }

    /// The shard owning `k`: the number of boundaries `<= k`.
    pub fn shard_of(&self, k: &K) -> usize {
        self.boundaries.partition_point(|b| b <= k)
    }

    /// The inclusive range of shard *indices* whose key ranges overlap
    /// the query `[lo, hi]` — from `lo`'s owner through `hi`'s owner
    /// (ranges are contiguous, so every shard in between overlaps too).
    ///
    /// A reversed query (`lo > hi`) denotes the empty key range and
    /// yields an empty shard range. Callers pass client-supplied bounds
    /// straight in (the pacserve `range` handler does), and the naive
    /// `shard_of(lo)..=shard_of(hi)` is *non-empty* whenever both
    /// reversed bounds land in the same shard.
    pub fn shards_overlapping(&self, lo: &K, hi: &K) -> std::ops::RangeInclusive<usize> {
        if lo > hi {
            #[allow(clippy::reversed_empty_ranges)]
            return 1..=0;
        }
        self.shard_of(lo)..=self.shard_of(hi)
    }

    /// Splits a batch into one sub-batch per shard, preserving the
    /// submission order of ops *within* each shard (ops on different
    /// shards touch disjoint keys, so their relative order is
    /// immaterial). Routing is a binary search per op — no sort.
    pub fn split_ops<V>(&self, ops: Vec<Op<K, V>>) -> Vec<Vec<Op<K, V>>> {
        let mut buckets: Vec<Vec<Op<K, V>>> = (0..self.shard_count()).map(|_| Vec::new()).collect();
        for op in ops {
            let shard = match &op {
                Op::Put(k, _) => self.shard_of(k),
                Op::Delete(k) => self.shard_of(k),
            };
            buckets[shard].push(op);
        }
        buckets
    }
}

impl<K: ScalarKey + ByteEncode> Router<K> {
    /// Encodes the partition map (header + boundaries + CRC trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = schema_id::<K>().to_le_bytes().to_vec();
        self.boundaries.write(&mut body);
        seal(&PARTITION_MAGIC, &body)
    }

    /// Decodes a partition map written by [`Router::encode`].
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s: [`StoreError::BadMagic`] for foreign
    /// files, [`StoreError::ChecksumMismatch`] for truncation or bit
    /// flips (verified before the payload is parsed),
    /// [`StoreError::SchemaMismatch`] when the key type differs, and
    /// [`StoreError::Corrupt`] / [`StoreError::InvalidBoundaries`] for
    /// framing or ordering violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let body = unseal(&PARTITION_MAGIC, bytes)?;
        let (found, list) = body
            .split_first_chunk::<4>()
            .ok_or(StoreError::Truncated("partition map schema"))?;
        let found = u32::from_le_bytes(*found);
        let expected = schema_id::<K>();
        if found != expected {
            return Err(StoreError::SchemaMismatch { found, expected });
        }
        // Fallible read: a CRC-valid but mistyped or truncated boundary
        // list is a typed error, not a panic — this file may come from a
        // foreign or hostile writer.
        let mut pos = 0;
        let boundaries = Vec::<K>::try_read(list, &mut pos)
            .ok_or_else(|| StoreError::Corrupt("malformed boundary list".into()))?;
        if pos != list.len() {
            return Err(StoreError::Corrupt(
                "trailing bytes after boundaries".into(),
            ));
        }
        Router::new(boundaries)
    }

    /// Writes the partition map to `path` atomically and durably.
    ///
    /// # Errors
    ///
    /// Any underlying I/O error.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        crate::page::write_file_atomic(path, &self.encode()).map(drop)
    }

    /// Reads a partition map from `path`.
    ///
    /// # Errors
    ///
    /// I/O errors plus every [`Router::decode`] error.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        Self::decode(&std::fs::read(path)?)
    }
}

impl Router<u64> {
    /// `shards` ranges of equal width over `[0, span)`; keys `>= span`
    /// all land in the last shard. Useful when keys are dense in a
    /// known domain.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `span < shards`.
    pub fn uniform_span(shards: usize, span: u64) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(span >= shards as u64, "span must cover all shards");
        let width = span / shards as u64;
        Router {
            boundaries: (1..shards as u64).map(|i| i * width).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::crc32;
    use codecs::bytecode;

    #[test]
    fn shard_of_respects_half_open_ranges() {
        let r = Router::new(vec![10u64, 20]).unwrap();
        assert_eq!(r.shard_count(), 3);
        assert_eq!(r.shard_of(&0), 0);
        assert_eq!(r.shard_of(&9), 0);
        assert_eq!(r.shard_of(&10), 1); // boundary belongs to the right
        assert_eq!(r.shard_of(&19), 1);
        assert_eq!(r.shard_of(&20), 2);
        assert_eq!(r.shard_of(&u64::MAX), 2);
    }

    #[test]
    fn single_and_uniform_routers() {
        let s = Router::<u64>::single();
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.shard_of(&u64::MAX), 0);

        let d = Router::uniform_span(4, 1000);
        assert_eq!(d.shard_of(&0), 0);
        assert_eq!(d.shard_of(&250), 1);
        assert_eq!(d.shard_of(&999), 3);
        assert_eq!(d.shard_of(&5000), 3);
    }

    #[test]
    fn unsorted_boundaries_rejected() {
        assert!(matches!(
            Router::new(vec![5u64, 5]),
            Err(StoreError::InvalidBoundaries(_))
        ));
        assert!(matches!(
            Router::new(vec![9u64, 3]),
            Err(StoreError::InvalidBoundaries(_))
        ));
    }

    #[test]
    fn split_ops_routes_and_preserves_order() {
        let r = Router::new(vec![10u64, 20]).unwrap();
        let buckets = r.split_ops(vec![
            Op::Put(5, 50u64),
            Op::Put(15, 150),
            Op::Delete(5),
            Op::Put(25, 250),
            Op::Put(5, 51),
        ]);
        assert_eq!(
            buckets[0],
            vec![Op::Put(5, 50), Op::Delete(5), Op::Put(5, 51)]
        );
        assert_eq!(buckets[1], vec![Op::Put(15, 150)]);
        assert_eq!(buckets[2], vec![Op::Put(25, 250)]);
    }

    #[test]
    fn shards_overlapping_forward_ranges() {
        let r = Router::new(vec![10u64, 20]).unwrap();
        assert_eq!(r.shards_overlapping(&0, &9), 0..=0);
        assert_eq!(r.shards_overlapping(&5, &15), 0..=1);
        assert_eq!(r.shards_overlapping(&0, &u64::MAX), 0..=2);
        assert_eq!(r.shards_overlapping(&12, &12), 1..=1);
    }

    #[test]
    fn shards_overlapping_reversed_bounds_is_empty() {
        let r = Router::new(vec![10u64]).unwrap();
        // Reversed bounds inside one shard: the naive owner-to-owner
        // range is 1..=1 — a non-empty answer to an empty query.
        assert_eq!(r.shards_overlapping(&15, &12).count(), 0);
        // Reversed across shards, and on a single-shard router.
        assert_eq!(r.shards_overlapping(&15, &5).count(), 0);
        assert_eq!(
            Router::<u64>::single().shards_overlapping(&9, &3).count(),
            0
        );
        // Degenerate-but-forward single-point query stays non-empty.
        assert_eq!(r.shards_overlapping(&12, &12).count(), 1);
    }

    #[test]
    fn crc_valid_hostile_boundaries_are_typed_errors() {
        // Rebuild a partition file whose CRC is valid but whose body
        // lies: the claimed boundary is a truncated varint. Must be a
        // typed error, not a panic.
        let mut body = Vec::new();
        body.extend_from_slice(&PARTITION_MAGIC);
        body.extend_from_slice(&schema_id::<u64>().to_le_bytes());
        bytecode::write_varint(1, &mut body); // one boundary...
        body.push(0x80); // ...that never terminates
        let mut bytes = body.clone();
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        assert!(matches!(
            Router::<u64>::decode(&bytes).unwrap_err(),
            StoreError::Truncated(_) | StoreError::Corrupt(_)
        ));

        // A boundary count crafted to wrap a 32-bit usize.
        let mut body = Vec::new();
        body.extend_from_slice(&PARTITION_MAGIC);
        body.extend_from_slice(&schema_id::<u64>().to_le_bytes());
        bytecode::write_varint(1 << 33, &mut body);
        let mut bytes = body.clone();
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        assert!(matches!(
            Router::<u64>::decode(&bytes).unwrap_err(),
            StoreError::Corrupt(_)
        ));

        // A boundary count equal to the bytes left whose keys then run
        // out, and a count one past the bytes left.
        for list in [[2u8, 1, 0x80], [3, 1, 2]] {
            let mut body = Vec::new();
            body.extend_from_slice(&PARTITION_MAGIC);
            body.extend_from_slice(&schema_id::<u64>().to_le_bytes());
            body.extend_from_slice(&list);
            let mut bytes = body.clone();
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            assert!(matches!(
                Router::<u64>::decode(&bytes).unwrap_err(),
                StoreError::Corrupt(_)
            ));
        }
    }

    #[test]
    fn partition_map_roundtrip_and_corruption() {
        let r = Router::new(vec![100u64, 2000, 30_000]).unwrap();
        let bytes = r.encode();
        assert_eq!(Router::<u64>::decode(&bytes).unwrap(), r);

        // Truncations and bit flips are typed errors.
        for cut in [0, 7, 8, 11, bytes.len() - 5, bytes.len() - 1] {
            assert!(
                matches!(
                    Router::<u64>::decode(&bytes[..cut]).unwrap_err(),
                    StoreError::ChecksumMismatch { .. }
                        | StoreError::Truncated(_)
                        | StoreError::BadMagic
                ),
                "cut {cut}"
            );
        }
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x20;
        assert!(matches!(
            Router::<u64>::decode(&flipped).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));

        // Wrong key type is a schema error, not a misparse.
        assert!(matches!(
            Router::<u32>::decode(&bytes).unwrap_err(),
            StoreError::SchemaMismatch { .. }
        ));
    }
}
