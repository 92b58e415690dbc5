//! C-trees: the Aspen baseline (Dhulipala, Blelloch, Shun; PLDI 2019).
//!
//! A reimplementation of the compressed purely-functional trees that the
//! Aspen graph-streaming system uses for edge lists, and that the
//! PaC-tree paper compares against (Figs. 1, 11; Table 5).
//!
//! A C-tree stores an ordered set of integer keys by *randomly* sampling
//! heads: key `x` is a head iff `hash(x) % b == 0` (expected block size
//! `b`). Heads live in a purely-functional search tree (a P-tree here,
//! as in Aspen, which leaves the head tree uncompressed); each head owns
//! the difference-encoded block of keys between it and the next head; a
//! *prefix* block holds keys before the first head.
//!
//! The two structural differences from PaC-trees the paper highlights
//! are visible in this implementation:
//!
//! * block sizes are only `b` in expectation (geometric), so space
//!   bounds hold only in expectation (vs deterministic for PaC-trees);
//! * the head tree itself is uncompressed, which is why Aspen's vertex
//!   trees cost more memory than CPAM's (Fig. 11 discussion).
//!
//! ```
//! use graphs::ctree::CTree;
//!
//! let t = CTree::<u64>::from_keys(16, (0..10_000).collect());
//! assert_eq!(t.len(), 10_000);
//! assert!(t.contains(&5000));
//! let t2 = t.insert_batch(vec![20_000, 20_001]);
//! assert_eq!(t2.len(), 10_002);
//! assert_eq!(t.len(), 10_000); // persistent
//! ```

use codecs::{Codec, Delta, DeltaCodec, EncodedBlock};
use cpam::ScalarKey;
use pam::PamMap;

/// Keys a C-tree can store: ordered integers with difference encoding.
pub trait CKey: ScalarKey + Delta + Copy {
    /// A mixing hash for head selection.
    fn mix(self) -> u64;
}

impl CKey for u32 {
    fn mix(self) -> u64 {
        splitmix(u64::from(self))
    }
}

impl CKey for u64 {
    fn mix(self) -> u64 {
        splitmix(self)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A compressed purely-functional ordered set of integer keys, using
/// randomized head selection (the Aspen design).
pub struct CTree<K: CKey> {
    /// head -> difference-encoded tail block (keys strictly between this
    /// head and the next head).
    heads: PamMap<K, EncodedBlock>,
    /// Keys before the first head, difference-encoded.
    prefix: Option<EncodedBlock>,
    len: usize,
    b: usize,
}

impl<K: CKey> Clone for CTree<K> {
    fn clone(&self) -> Self {
        CTree {
            heads: self.heads.clone(),
            prefix: self.prefix.clone(),
            len: self.len,
            b: self.b,
        }
    }
}

impl<K: CKey> std::fmt::Debug for CTree<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CTree")
            .field("len", &self.len)
            .field("expected_block", &self.b)
            .finish()
    }
}

/// Splits a sorted run into (leading non-head keys, head-led segments).
fn partition_by_heads<K: CKey>(seg: &[K], is_head: impl Fn(&K) -> bool) -> (Vec<K>, Vec<(K, Vec<K>)>) {
    let mut leading = Vec::new();
    let mut i = 0;
    while i < seg.len() && !is_head(&seg[i]) {
        leading.push(seg[i]);
        i += 1;
    }
    let mut segments = Vec::new();
    while i < seg.len() {
        let head = seg[i];
        let mut tail = Vec::new();
        i += 1;
        while i < seg.len() && !is_head(&seg[i]) {
            tail.push(seg[i]);
            i += 1;
        }
        segments.push((head, tail));
    }
    (leading, segments)
}

impl<K: CKey> CTree<K> {
    /// An empty C-tree with expected block size `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn new(b: usize) -> Self {
        assert!(b > 0, "expected block size must be positive");
        CTree {
            heads: PamMap::new(),
            prefix: None,
            len: 0,
            b,
        }
    }

    fn is_head(&self, k: &K) -> bool {
        k.mix().is_multiple_of(self.b as u64)
    }

    /// Builds from arbitrary keys (sorted and deduplicated internally).
    pub fn from_keys(b: usize, mut keys: Vec<K>) -> Self {
        parlay::par_sort(&mut keys);
        keys.dedup();
        Self::from_sorted_keys(b, &keys)
    }

    /// Builds from strictly increasing keys.
    pub fn from_sorted_keys(b: usize, keys: &[K]) -> Self {
        let mut t = Self::new(b);
        t.len = keys.len();
        let (leading, segments) = partition_by_heads(keys, |k| t.is_head(k));
        if !leading.is_empty() {
            t.prefix = Some(<DeltaCodec as Codec<K>>::encode(&leading));
        }
        let pairs: Vec<(K, EncodedBlock)> = segments
            .into_iter()
            .map(|(h, tail)| (h, <DeltaCodec as Codec<K>>::encode(&tail)))
            .collect();
        t.heads = PamMap::from_sorted_pairs(&pairs);
        t
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test: find the owning segment, decode, search.
    pub fn contains(&self, k: &K) -> bool {
        if self.is_head(k) {
            return self.heads.contains_key(k);
        }
        let segment = match self.heads.pred(k) {
            Some((_, block)) => Some(block),
            None => self.prefix.clone(),
        };
        let Some(block) = segment else { return false };
        let mut keys = Vec::with_capacity(<DeltaCodec as Codec<K>>::len(&block));
        <DeltaCodec as Codec<K>>::decode(&block, &mut keys);
        keys.binary_search(k).is_ok()
    }

    /// All keys in order.
    pub fn to_vec(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(p) = &self.prefix {
            <DeltaCodec as Codec<K>>::decode(p, &mut out);
        }
        for (head, block) in self.heads.to_vec() {
            out.push(head);
            <DeltaCodec as Codec<K>>::decode(&block, &mut out);
        }
        out
    }

    /// Visits every key in order.
    pub fn for_each(&self, mut f: impl FnMut(&K)) {
        if let Some(p) = &self.prefix {
            <DeltaCodec as Codec<K>>::for_each(p, &mut |k| f(k));
        }
        for (head, block) in self.heads.to_vec() {
            f(&head);
            <DeltaCodec as Codec<K>>::for_each(&block, &mut |k| f(k));
        }
    }

    /// Inserts a batch of keys, returning a new tree.
    ///
    /// Only the segments a batch key lands in are decoded and re-split
    /// (new keys may themselves become heads), mirroring Aspen's batch
    /// update; untouched segments are shared with the input version.
    pub fn insert_batch(&self, mut keys: Vec<K>) -> Self {
        parlay::par_sort(&mut keys);
        keys.dedup();
        if keys.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return Self::from_sorted_keys(self.b, &keys);
        }
        // Group batch keys by owning segment anchor: the largest
        // *existing* head <= k, or None for the prefix. A batch key that
        // becomes a new head is still rebuilt inside its old segment.
        let mut groups: Vec<(Option<K>, Vec<K>)> = Vec::new();
        for k in keys {
            let anchor = self.heads.pred(&k).map(|(h, _)| h);
            match groups.last_mut() {
                Some((a, ks)) if *a == anchor => ks.push(k),
                _ => groups.push((anchor, vec![k])),
            }
        }
        let mut prefix_keys: Option<Vec<K>> = None;
        let mut added = 0usize;
        let mut new_pairs: Vec<(K, EncodedBlock)> = Vec::new();
        for (anchor, batch) in groups {
            // Decode the segment this group lands in.
            let mut seg: Vec<K> = Vec::new();
            match anchor {
                Some(h) => {
                    seg.push(h);
                    let block = self.heads.find(&h).expect("anchor is a head");
                    <DeltaCodec as Codec<K>>::decode(&block, &mut seg);
                }
                None => {
                    if let Some(p) = &self.prefix {
                        <DeltaCodec as Codec<K>>::decode(p, &mut seg);
                    }
                }
            }
            let before = seg.len();
            for k in batch {
                if let Err(i) = seg.binary_search(&k) {
                    seg.insert(i, k);
                }
            }
            added += seg.len() - before;
            // Re-split: new keys may be heads.
            let (leading, segments) = partition_by_heads(&seg, |k| self.is_head(k));
            match anchor {
                Some(_) => debug_assert!(leading.is_empty(), "anchor segment starts with a head"),
                None => prefix_keys = Some(leading),
            }
            for (h, tail) in segments {
                new_pairs.push((h, <DeltaCodec as Codec<K>>::encode(&tail)));
            }
        }
        let heads = self.heads.multi_insert(new_pairs);
        let prefix = match prefix_keys {
            Some(ks) if ks.is_empty() => None,
            Some(ks) => Some(<DeltaCodec as Codec<K>>::encode(&ks)),
            None => self.prefix.clone(),
        };
        CTree {
            heads,
            prefix,
            len: self.len + added,
            b: self.b,
        }
    }

    /// Heap bytes: compressed blocks plus the uncompressed head tree
    /// (P-tree node per head, as in Aspen).
    pub fn space_bytes(&self) -> usize {
        let mut block_bytes = 0usize;
        if let Some(p) = &self.prefix {
            block_bytes += <DeltaCodec as Codec<K>>::heap_bytes(p) + 24;
        }
        for (_, block) in self.heads.to_vec() {
            block_bytes += <DeltaCodec as Codec<K>>::heap_bytes(&block) + 24;
        }
        block_bytes + self.heads.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_roundtrip() {
        let keys: Vec<u64> = (0..5000).map(|i| i * 3).collect();
        let t = CTree::from_keys(16, keys.clone());
        assert_eq!(t.len(), 5000);
        assert_eq!(t.to_vec(), keys);
    }

    #[test]
    fn contains_heads_and_tails() {
        let keys: Vec<u64> = (0..2000).collect();
        let t = CTree::from_keys(8, keys);
        for k in [0u64, 1, 999, 1999] {
            assert!(t.contains(&k), "missing {k}");
        }
        assert!(!t.contains(&2000));
        assert!(!t.contains(&5000));
    }

    #[test]
    fn empty_and_tiny() {
        let t = CTree::<u64>::new(16);
        assert!(t.is_empty());
        assert!(!t.contains(&1));
        let t2 = CTree::<u64>::from_keys(16, vec![7]);
        assert_eq!(t2.len(), 1);
        assert!(t2.contains(&7));
    }

    #[test]
    fn insert_batch_matches_rebuild() {
        let initial: Vec<u64> = (0..3000).map(|i| i * 2).collect();
        let batch: Vec<u64> = (0..1500).map(|i| i * 3).collect();
        let t = CTree::from_keys(16, initial.clone());
        let t2 = t.insert_batch(batch.clone());

        let mut all = initial.clone();
        all.extend(&batch);
        all.sort_unstable();
        all.dedup();
        assert_eq!(t2.to_vec(), all);
        assert_eq!(t2.len(), all.len());
        // Persistence.
        assert_eq!(t.to_vec(), initial);
    }

    #[test]
    fn insert_batch_into_empty_and_empty_batch() {
        let t = CTree::<u64>::new(8);
        let t2 = t.insert_batch(vec![5, 1, 3]);
        assert_eq!(t2.to_vec(), vec![1, 3, 5]);
        let t3 = t2.insert_batch(vec![]);
        assert_eq!(t3.to_vec(), vec![1, 3, 5]);
    }

    #[test]
    fn repeated_batches_accumulate() {
        let mut t = CTree::<u64>::new(32);
        let mut oracle = std::collections::BTreeSet::new();
        let mut state = 99u64;
        for _ in 0..20 {
            let batch: Vec<u64> = (0..100)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % 10_000
                })
                .collect();
            for k in &batch {
                oracle.insert(*k);
            }
            t = t.insert_batch(batch);
            assert_eq!(t.len(), oracle.len());
        }
        assert_eq!(t.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn space_is_compressed_for_dense_keys() {
        let keys: Vec<u64> = (0..100_000).collect();
        let t = CTree::from_keys(64, keys);
        // Dense keys: ~1 byte each in blocks + head-tree overhead.
        assert!(
            t.space_bytes() < 100_000 * 4,
            "space {} too large",
            t.space_bytes()
        );
    }

    #[test]
    fn for_each_matches_to_vec() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 7).collect();
        let t = CTree::from_keys(16, keys.clone());
        let mut seen = Vec::new();
        t.for_each(|k| seen.push(*k));
        assert_eq!(seen, keys);
    }
}
