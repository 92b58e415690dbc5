//! The page file: the one on-disk image of a PaC-tree (DESIGN.md §5
//! has the byte-level specification).
//!
//! A page file is a CRC-checked *metadata section* — what the tree is,
//! and its shape as a tagged pre-order stream — followed by the tree's
//! leaves as unpadded *records*, each the leaf's *already-encoded*
//! block copied verbatim through [`codecs::BlockIo`]:
//!
//! ```text
//! magic        8 bytes   b"PACPAGE1"
//! meta length  8 bytes   LE, byte length of the metadata that follows
//! metadata:
//!   codec id     1 byte    BlockIo::CODEC_ID (raw = 0, delta = 1, gamma = 2)
//!   schema       4 bytes   LE entry-type fingerprint (schema_id)
//!   block size   varint    the tree's B parameter
//!   base         varint    0 for a full snapshot, else 1 + the version of
//!                          the snapshot this page is a diff against
//!   version      varint    store version this page captures
//!   count        varint    entries in the resulting tree
//!   structure    ...       tagged pre-order node stream, to the end
//! meta crc     4 bytes   LE, over everything above
//! records      ...       leaf records back to back, in stream order
//! ```
//!
//! Structure tags: `0` = empty subtree; `1` = regular node + its pivot
//! entry ([`codecs::ByteEncode`]); `2` = leaf: entry count (varint), the
//! byte length of its record (varint) and the record's CRC-32 (4 bytes
//! LE); `4` = a subtree shared with the base: the base rank of its first
//! entry (varint) and its entry count (varint), resolved by one descent
//! over the base's cached sizes. Tag `3`, an earlier build's pre-order
//! index into the base, is refused as an unknown tag, so an old
//! incremental page fails as [`StoreError::Corrupt`] instead of naming
//! a wrong subtree. Pre-order with explicit empties is self-delimiting;
//! record `i` starts where the lengths of the records before it sum to,
//! so there is no offset table and no padding, and the last record must
//! end exactly at the end of the file.
//!
//! A *full snapshot* is the file with no base and no tag `4`; an
//! *incremental* page is the same writer driven by the walk against the
//! previous checkpoint's pinned root (see
//! [`cpam::PacMap::visit_nodes`]), and both are read by the same
//! reader. How the records are read is a *policy*, not a format
//! ([`crate::StoreOptions::pool_pages`]): eagerly — every record read,
//! CRC-verified and adopted as a resident leaf, the decoded tree's
//! [`cpam::SpaceStats`] identical to the encoded one's — or lazily —
//! `O(structure)` I/O at open, leaves materialized through a
//! [`BufferPool`] when a query first crosses them.
//!
//! Integrity: the metadata CRC is verified before any field is parsed,
//! every offset, length and index taken from the file goes through
//! checked arithmetic and a bound against the file length, and a
//! record's CRC is verified when the record is read — so truncations,
//! bit flips and hostile lengths surface as typed [`StoreError`]s, never
//! as silently wrong data. Lazily, a record is verified and parsed on
//! its first load only; later loads reuse what that parse learned. A
//! lazy record that fails at a load (a bad CRC, or a read error) can
//! only panic with its typed error's message, because
//! [`BlockSource::load`] has no error channel (DESIGN.md §5); ROADMAP
//! item 14 gives `load` a `Result`. Every other failure, and every
//! failure of an eager read, is a returned error.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use codecs::{bytecode, BlockIndex, BlockIo, ByteEncode, Codec};
use cpam::structure::{BuildError, NodeOwned, NodeRef};
use cpam::{Augmentation, BlockSource, Element, Entry, PacOrd};

use crate::checksum::{crc32, schema_id, seal, unseal};
use crate::error::StoreError;
use crate::mvcc::SNAPSHOT_FILE;
use crate::pool::BufferPool;

/// Identifies a page file.
pub const PAGE_MAGIC: [u8; 8] = *b"PACPAGE1";

/// Magic plus metadata length.
const HEAD_LEN: usize = 16;

const TAG_EMPTY: u8 = 0;
const TAG_REGULAR: u8 = 1;
const TAG_LEAF: u8 = 2;
const TAG_SHARED: u8 = 4;

/// Earlier builds wrote three formats, none of which this build reads:
/// `PACSNP02` full and `PACINC01` incremental pages under the names
/// still in use, which now fail the magic check, and `PACPGF01` paged
/// snapshots under this name, refused by name.
const LEGACY_PAGED_FILE: &str = "snapshot.pgf";

/// A collection that can be written to and read from a page file:
/// implemented once, for every [`PacOrd`] (so for `PacMap` and `PacSet`
/// alike) whose entries are byte-encodable and whose codec supports
/// [`BlockIo`]. It stays a trait so that [`decode_snapshot`] keeps its
/// one type parameter.
pub trait DiskTree: Clone + Sized + Send + Sync + 'static {
    /// What the tree stores; its fingerprint goes in the metadata so
    /// mistyped loads fail with a typed error.
    type Entry: Element + ByteEncode;
    /// The leaf codec; its id goes in the metadata likewise.
    type Codec: BlockIo<Self::Entry>;

    /// The tree's block size parameter.
    fn disk_block_size(&self) -> usize;
    /// Number of entries.
    fn disk_len(&self) -> usize;
    /// Pre-order walk, against `base` when given (`visit_nodes`).
    fn visit(
        &self,
        base: Option<&Self>,
        f: &mut impl FnMut(NodeRef<'_, Self::Entry, BlockOf<Self>>),
    );
    /// Rebuilds a tree from a pre-order stream (`from_node_stream`).
    ///
    /// # Errors
    ///
    /// [`BuildError`] when `next` fails or the stream is structurally
    /// invalid.
    fn build(
        b: usize,
        base: Option<&Self>,
        src: Option<Arc<dyn BlockSource<BlockOf<Self>>>>,
        next: &mut impl FnMut() -> Result<NodeOf<Self>, StoreError>,
    ) -> Result<Self, BuildError<StoreError>>;
}

/// The encoded leaf block type of a [`DiskTree`].
pub type BlockOf<T> = <<T as DiskTree>::Codec as Codec<<T as DiskTree>::Entry>>::Block;

/// One owned stream node of a [`DiskTree`].
type NodeOf<T> = NodeOwned<<T as DiskTree>::Entry, BlockOf<T>>;

impl<E, A, C> DiskTree for PacOrd<E, A, C>
where
    E: Entry + ByteEncode,
    A: Augmentation<E>,
    C: BlockIo<E>,
{
    type Entry = E;
    type Codec = C;

    fn disk_block_size(&self) -> usize {
        self.block_size()
    }

    fn disk_len(&self) -> usize {
        self.len()
    }

    fn visit(&self, base: Option<&Self>, f: &mut impl FnMut(NodeRef<'_, E, C::Block>)) {
        self.visit_nodes(base, f);
    }

    fn build(
        b: usize,
        base: Option<&Self>,
        src: Option<Arc<dyn BlockSource<C::Block>>>,
        next: &mut impl FnMut() -> Result<NodeOwned<E, C::Block>, StoreError>,
    ) -> Result<Self, BuildError<StoreError>> {
        Self::from_node_stream(b, base, src, next)
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Encodes `tree` (captured at `version`) into a complete page image:
/// a full snapshot, or — given `base`, the tree persisted at the paired
/// version — the diff against it.
///
/// A diff is sound only if `base` is the *pinned* checkpoint root
/// `tree` evolved from (see [`cpam::PacMap::visit_nodes`] for why the
/// pin makes pointer identity a valid sharing witness).
pub(crate) fn encode_page<T: DiskTree>(tree: &T, base: Option<(&T, u64)>, version: u64) -> Vec<u8> {
    // The sealed body is the metadata length (patched in below), then
    // the metadata.
    let mut meta = vec![0; 8];
    meta.push(<T::Codec as BlockIo<T::Entry>>::CODEC_ID);
    meta.extend_from_slice(&schema_id::<T::Entry>().to_le_bytes());
    bytecode::write_varint(tree.disk_block_size() as u64, &mut meta);
    bytecode::write_varint(base.map_or(0, |(_, v)| v + 1), &mut meta);
    bytecode::write_varint(version, &mut meta);
    bytecode::write_varint(tree.disk_len() as u64, &mut meta);
    let mut records = Vec::new();
    tree.visit(base.map(|(base, _)| base), &mut |node| match node {
        NodeRef::Empty => meta.push(TAG_EMPTY),
        NodeRef::Regular(entry) => {
            meta.push(TAG_REGULAR);
            entry.write(&mut meta);
        }
        NodeRef::Flat(block) => {
            let start = records.len();
            T::Codec::write_block(block, &mut records);
            meta.push(TAG_LEAF);
            bytecode::write_varint(T::Codec::len(block) as u64, &mut meta);
            bytecode::write_varint((records.len() - start) as u64, &mut meta);
            meta.extend_from_slice(&crc32(&records[start..]).to_le_bytes());
        }
        NodeRef::Shared { rank, len } => {
            meta.push(TAG_SHARED);
            bytecode::write_varint(rank, &mut meta);
            bytecode::write_varint(len, &mut meta);
        }
    });

    let meta_len = (meta.len() - 8) as u64;
    meta[..8].copy_from_slice(&meta_len.to_le_bytes());
    let mut page = seal(&PAGE_MAGIC, &meta);
    page.extend_from_slice(&records);
    let pc = crate::metrics::page_counters();
    pc.pages_written.inc();
    pc.page_bytes_written.add(page.len() as u64);
    page
}

/// Encodes `tree` (captured at `version`) into a full-snapshot page
/// image — what a store writes as its `snapshot.pac`.
pub fn encode_snapshot<T: DiskTree>(tree: &T, version: u64) -> Vec<u8> {
    encode_page(tree, None, version)
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

fn take<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    n: usize,
    what: &'static str,
) -> Result<&'a [u8], StoreError> {
    let end = pos.checked_add(n).filter(|&end| end <= buf.len());
    let end = end.ok_or(StoreError::Truncated(what))?;
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

fn take_u32(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, StoreError> {
    let bytes = take(buf, pos, 4, what)?;
    Ok(u32::from_le_bytes(
        bytes.try_into().expect("take returned 4 bytes"),
    ))
}

fn take_varint(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, StoreError> {
    bytecode::try_read_varint(buf, pos).ok_or(StoreError::Truncated(what))
}

/// What a page's metadata says about it besides the tree.
#[derive(Clone, Copy)]
pub(crate) struct PageHead {
    /// The version of the snapshot the page diffs against, if any.
    pub base: Option<u64>,
    /// The store version the page captures.
    pub version: u64,
}

/// The metadata section of a page, CRC-verified and parsed up to the
/// structure stream.
struct Meta<'a> {
    b: usize,
    head: PageHead,
    count: u64,
    structure: &'a [u8],
    /// File offset of the first leaf record.
    data_off: u64,
}

/// Where a page's leaf records start, from the first [`HEAD_LEN`]
/// bytes of its file: all a lazy open needs to size its one read.
fn records_start(head: &[u8]) -> Result<usize, StoreError> {
    let mut pos = 0;
    if take(head, &mut pos, PAGE_MAGIC.len(), "page head")? != PAGE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let len = take(head, &mut pos, 8, "page head")?;
    let len = u64::from_le_bytes(len.try_into().expect("take returned 8 bytes"));
    usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_add(HEAD_LEN + 4))
        .ok_or_else(|| StoreError::Corrupt("metadata length overflows".into()))
}

/// Verifies and parses the metadata section at the front of `bytes` (a
/// whole page image, or at least its first [`records_start`] bytes).
fn parse_meta<T: DiskTree>(bytes: &[u8]) -> Result<Meta<'_>, StoreError> {
    let end = records_start(bytes)?;
    let section = bytes
        .get(..end)
        .ok_or(StoreError::Truncated("page metadata"))?;
    let body = unseal(&PAGE_MAGIC, section)?;

    let mut pos = HEAD_LEN - PAGE_MAGIC.len();
    let found = take(body, &mut pos, 1, "codec id")?[0];
    let expected = <T::Codec as BlockIo<T::Entry>>::CODEC_ID;
    if found != expected {
        let expected_name = <T::Codec as BlockIo<T::Entry>>::CODEC_NAME;
        return Err(StoreError::CodecMismatch {
            found,
            expected,
            expected_name,
        });
    }
    let found = take_u32(body, &mut pos, "schema")?;
    let expected = schema_id::<T::Entry>();
    if found != expected {
        return Err(StoreError::SchemaMismatch { found, expected });
    }
    // A leaf holds up to 2B entries, counted in a `u32`.
    let b = take_varint(body, &mut pos, "block size")?;
    if !(1..=u64::from(u32::MAX / 2)).contains(&b) {
        return Err(StoreError::Corrupt(format!("block size {b} out of range")));
    }
    Ok(Meta {
        b: b as usize,
        head: PageHead {
            base: take_varint(body, &mut pos, "base version")?.checked_sub(1),
            version: take_varint(body, &mut pos, "version")?,
        },
        count: take_varint(body, &mut pos, "entry count")?,
        structure: &body[pos..],
        data_off: end as u64,
    })
}

/// Where one leaf record lives in its file, and what its structure tag
/// promised about it.
struct Record {
    off: u64,
    len: usize,
    crc: u32,
    entries: u64,
    /// Set by the record's first successful load, which checked its CRC
    /// and parsed it: its presence means "verified and indexed". A
    /// re-load after an eviction trusts the kernel page cache / disk to
    /// return those same bytes, so it skips the CRC and the parse and
    /// rebuilds the block from this index
    /// ([`BlockIo::read_block_indexed`]).
    index: OnceLock<BlockIndex>,
}

/// Decodes the leaf record `bytes` against its tag: on its first load,
/// a CRC check and a parse that fills `rec.index`; on a later one, a
/// copy checked against that index.
fn decode_record<T: DiskTree>(bytes: &[u8], rec: &Record) -> Result<BlockOf<T>, StoreError> {
    // A first load parses into `fresh`, which is kept only once every
    // check below has passed.
    let fresh = OnceLock::new();
    let index = match rec.index.get() {
        Some(_) => &rec.index,
        None => {
            let computed = crc32(bytes);
            if computed != rec.crc {
                return Err(StoreError::ChecksumMismatch {
                    stored: rec.crc,
                    computed,
                });
            }
            &fresh
        }
    };
    let mut pos = 0;
    let block = T::Codec::read_block_indexed(bytes, &mut pos, index)?;
    if pos != bytes.len() || T::Codec::len(&block) as u64 != rec.entries {
        return Err(StoreError::Corrupt(
            "leaf record disagrees with its structure tag".into(),
        ));
    }
    // Two first loads may race (a pool miss and a `load_once` fetch
    // run on different locks); the one that sets the index counts it.
    if let Some(parsed) = fresh.into_inner() {
        if rec.index.set(parsed).is_ok() {
            crate::metrics::page_counters().records_parsed.inc();
        }
    }
    Ok(block)
}

/// Parses the structure stream into owned nodes, locating every leaf
/// record by prefix sum. With the whole page `image` in memory (the
/// eager policy) each record is verified and decoded into a resident
/// leaf; without it, leaves become lazy references into the returned
/// record table. Either way the records must tile the file exactly:
/// `file_len` is where the last one has to end.
fn parse_structure<T: DiskTree>(
    meta: &Meta<'_>,
    file_len: u64,
    image: Option<&[u8]>,
) -> Result<(Vec<NodeOf<T>>, Vec<Record>), StoreError> {
    let (mut nodes, mut records) = (Vec::new(), Vec::new());
    let stream = meta.structure;
    let (mut pos, mut off) = (0, meta.data_off);
    while let Some(&tag) = stream.get(pos) {
        pos += 1;
        nodes.push(match tag {
            TAG_EMPTY => NodeOwned::Empty,
            TAG_REGULAR => NodeOwned::Regular(
                T::Entry::try_read(stream, &mut pos).ok_or(StoreError::Truncated("pivot entry"))?,
            ),
            TAG_SHARED => NodeOwned::Shared {
                rank: take_varint(stream, &mut pos, "shared subtree rank")?,
                len: take_varint(stream, &mut pos, "shared subtree length")?,
            },
            TAG_LEAF => {
                let entries = take_varint(stream, &mut pos, "leaf entry count")?;
                let len = take_varint(stream, &mut pos, "leaf record length")?;
                let crc = take_u32(stream, &mut pos, "leaf record crc")?;
                let end = off.checked_add(len).filter(|&end| end <= file_len);
                let (end, len) = end
                    .zip(usize::try_from(len).ok())
                    .ok_or(StoreError::Truncated("leaf record"))?;
                let rec = Record {
                    off,
                    len,
                    crc,
                    entries,
                    index: OnceLock::new(),
                };
                off = end;
                match image {
                    Some(image) => {
                        let bytes = &image[rec.off as usize..end as usize];
                        NodeOwned::Flat(decode_record::<T>(bytes, &rec)?)
                    }
                    None => {
                        let too_big = |_| StoreError::Corrupt("leaf reference out of range".into());
                        let page = u32::try_from(records.len()).map_err(too_big)?;
                        let len = u32::try_from(entries).map_err(too_big)?;
                        records.push(rec);
                        NodeOwned::Lazy { page, len }
                    }
                }
            }
            other => return Err(StoreError::Corrupt(format!("unknown node tag {other}"))),
        });
    }
    if off != file_len {
        return Err(StoreError::Corrupt(
            "bytes past the last leaf record".into(),
        ));
    }
    Ok((nodes, records))
}

/// Builds the tree a parsed page describes, checks it against the
/// metadata and counts the page as read (`read` bytes of it). `base`
/// must be given exactly when the page names one.
fn build_tree<T: DiskTree>(
    meta: &Meta<'_>,
    nodes: Vec<NodeOf<T>>,
    base: Option<&T>,
    src: Option<Arc<dyn BlockSource<BlockOf<T>>>>,
    read: usize,
) -> Result<(T, PageHead), StoreError> {
    if meta.head.base.is_some() != base.is_some() {
        return Err(StoreError::Corrupt(
            "an incremental page needs its base, a full snapshot takes none".into(),
        ));
    }
    if base.is_some_and(|base| base.disk_block_size() != meta.b) {
        return Err(StoreError::Corrupt(
            "page block size differs from its base's".into(),
        ));
    }
    let mut nodes = nodes.into_iter();
    let mut next = || {
        nodes
            .next()
            .ok_or(StoreError::Truncated("structure stream"))
    };
    let tree = T::build(meta.b, base, src, &mut next).map_err(|e| match e {
        BuildError::Source(e) => e,
        BuildError::Invalid(what) => StoreError::Corrupt(what.into()),
    })?;
    if nodes.next().is_some() {
        return Err(StoreError::Corrupt(
            "nodes after the end of the tree".into(),
        ));
    }
    if tree.disk_len() as u64 != meta.count {
        return Err(StoreError::Corrupt(format!(
            "entry count mismatch: metadata {}, tree {}",
            meta.count,
            tree.disk_len()
        )));
    }
    let pc = crate::metrics::page_counters();
    pc.pages_read.inc();
    pc.page_bytes_read.add(read as u64);
    Ok((tree, meta.head))
}

/// Decodes a whole page image eagerly, against `base` if it is a diff.
fn decode_page<T: DiskTree>(bytes: &[u8], base: Option<&T>) -> Result<(T, PageHead), StoreError> {
    let meta = parse_meta::<T>(bytes)?;
    let (nodes, _) = parse_structure::<T>(&meta, bytes.len() as u64, Some(bytes))?;
    build_tree(&meta, nodes, base, None, bytes.len())
}

/// Decodes a full-snapshot page image produced by [`encode_snapshot`],
/// returning the tree and the version it captured.
///
/// # Errors
///
/// Typed [`StoreError`]s: [`StoreError::BadMagic`] for foreign files,
/// [`StoreError::ChecksumMismatch`] for bit-flipped metadata or leaf
/// records (verified before they are parsed),
/// [`StoreError::CodecMismatch`] / [`StoreError::SchemaMismatch`] when
/// `T`'s codec or entry types differ from the ones the page was written
/// with, and [`StoreError::Truncated`] / [`StoreError::Corrupt`] for
/// images that are cut short or structurally impossible.
pub fn decode_snapshot<T: DiskTree>(bytes: &[u8]) -> Result<(T, u64), StoreError> {
    let (tree, head) = decode_page(bytes, None)?;
    Ok((tree, head.version))
}

/// Positioned exact read; positional I/O keeps the handle shareable
/// across concurrent record loads without a seek lock.
#[cfg(unix)]
fn pread(file: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, off)
}

#[cfg(not(unix))]
fn pread(file: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(off))?;
    f.read_exact(buf)
}

/// The [`BlockSource`] behind a lazily opened page file: reads leaf
/// records through a [`BufferPool`]. Lazy leaves hold it behind an
/// `Arc`, so the source (and its file handle) lives exactly as long as
/// any tree still references the file.
struct PageSource<T: DiskTree> {
    file: File,
    path: PathBuf,
    /// This file's half of its [`crate::pool::PageKey`]s.
    file_id: u32,
    pool: Arc<BufferPool<BlockOf<T>>>,
    records: Vec<Record>,
}

impl<T: DiskTree> PageSource<T> {
    /// Reads record `page`, verifying and parsing it on its first load
    /// only.
    fn fetch(&self, page: u32) -> Result<(Arc<BlockOf<T>>, usize), StoreError> {
        let rec = &self.records[page as usize];
        let mut bytes = vec![0u8; rec.len];
        pread(&self.file, &mut bytes, rec.off)?;
        let block = decode_record::<T>(&bytes, rec)?;
        crate::metrics::page_counters()
            .page_bytes_read
            .add(rec.len as u64);
        let heap = T::Codec::heap_bytes(&block) + std::mem::size_of::<BlockOf<T>>();
        Ok((Arc::new(block), heap))
    }
}

impl<T: DiskTree> PageSource<T> {
    /// `BlockSource` loads are infallible by contract: queries have no
    /// error channel. A record that was in bounds at open and fails now
    /// is an environment failure, not a caller error — surface the typed
    /// error's message.
    fn expect_record(
        &self,
        page: u32,
        block: Result<Arc<BlockOf<T>>, StoreError>,
    ) -> Arc<BlockOf<T>> {
        block.unwrap_or_else(|e| {
            panic!(
                "page file {}: leaf record {page} unreadable: {e}",
                self.path.display()
            )
        })
    }
}

impl<T: DiskTree> BlockSource<BlockOf<T>> for PageSource<T> {
    fn load(&self, page: u32) -> Arc<BlockOf<T>> {
        let block = self.pool.get((self.file_id, page), || self.fetch(page));
        self.expect_record(page, block)
    }

    fn load_once(&self, page: u32) -> Arc<BlockOf<T>> {
        let block = self
            .pool
            .get_once((self.file_id, page), || self.fetch(page));
        self.expect_record(page, block)
    }
}

/// Reads the page file at `path` under the read policy `pool` selects,
/// against `base` if it is a diff.
///
/// With `pool: None` the read is *eager*: the file is read once and
/// every record verified and adopted as a resident leaf. With a pool it
/// is *lazy*: `O(structure)` I/O now (the metadata section only), leaf
/// records streamed through the pool on first access, resident cache
/// bytes bounded by the pool budget. Returns the tree, the page's head
/// and the file's length in bytes.
///
/// # Errors
///
/// I/O errors plus every [`decode_snapshot`] error; under the lazy
/// policy a damaged leaf record surfaces at its first load instead.
pub(crate) fn read_page_file<T: DiskTree>(
    path: &Path,
    base: Option<&T>,
    pool: Option<&Arc<BufferPool<BlockOf<T>>>>,
) -> Result<(T, PageHead, u64), StoreError> {
    let Some(pool) = pool else {
        let bytes = std::fs::read(path)?;
        let (tree, head) = decode_page(&bytes, base)?;
        return Ok((tree, head, bytes.len() as u64));
    };
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    // Whatever the head claims, read no further than the file goes: the
    // parsers say what is missing.
    let prefix = |want: usize| -> std::io::Result<Vec<u8>> {
        let mut bytes = vec![0u8; file_len.min(want as u64) as usize];
        pread(&file, &mut bytes, 0)?;
        Ok(bytes)
    };
    let section = prefix(records_start(&prefix(HEAD_LEN)?)?)?;
    let meta = parse_meta::<T>(&section)?;
    let (nodes, records) = parse_structure::<T>(&meta, file_len, None)?;
    let source = PageSource::<T> {
        file,
        path: path.to_path_buf(),
        file_id: pool.new_file_id(),
        pool: Arc::clone(pool),
        records,
    };
    let (tree, head) = build_tree(&meta, nodes, base, Some(Arc::new(source)), section.len())?;
    Ok((tree, head, file_len))
}

// ---------------------------------------------------------------------
// Files and chains
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically and durably: temp file, `fsync`,
/// rename, then `fsync` of the containing directory — so after this
/// returns, a machine crash leaves either the old file or the new one,
/// never a torn or vanished file. Used for page files, the partition
/// map, rewritten logs and the pin table.
///
/// Returns the handle the bytes were written through, open for reading
/// and appending at `path` (a rewritten log keeps it for its commits).
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<File, StoreError> {
    let tmp = path.with_extension("tmp");
    // std refuses `append` with `truncate`, so truncate by `set_len`.
    let mut file = open_append(&tmp)?;
    file.set_len(0)?;
    std::io::Write::write_all(&mut file, bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself (directory entry update).
        fsync_dir(dir)?;
    }
    Ok(file)
}

/// Opens `path` for reading and appending, creating it if needed: the
/// log's handle, whether a store opened the log or a checkpoint rewrote
/// it through [`write_file_atomic`].
pub(crate) fn open_append(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
}

/// `fsync`s a directory, persisting entry creations, renames, and
/// removals inside it. Every mutation of the store directory's name
/// space (atomic page renames, incremental cleanup, log creation) must
/// be followed by one of these before the change is acknowledged, or a
/// crash can resurrect removed files / vanish created ones.
///
/// # Errors
///
/// Any underlying I/O error.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The file name an incremental page captured at `version` is stored
/// under (zero-padded so lexical order is version order).
pub fn incr_file_name(version: u64) -> String {
    format!("incr-{version:020}.pac")
}

/// Parses a file name produced by [`incr_file_name`].
fn parse_incr_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("incr-")?.strip_suffix(".pac")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Lists the incremental pages in `dir`, sorted by captured version.
///
/// # Errors
///
/// Any underlying I/O error while reading the directory.
pub(crate) fn list_incr_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(v) = entry.file_name().to_str().and_then(parse_incr_file_name) {
            out.push((v, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(v, _)| v);
    Ok(out)
}

/// Deletes every incremental page in `dir` — called after a full
/// snapshot supersedes the chain. Ignores missing files (idempotent).
/// The directory is `fsync`ed after the removals, so a crash cannot
/// resurrect a superseded chain the caller already acknowledged as
/// cleaned up (the load path *also* skips stale incrementals, but the
/// durable removal keeps the two defenses independent).
///
/// # Errors
///
/// Any underlying I/O error other than the files already being gone.
pub(crate) fn remove_incr_files(dir: &Path) -> Result<(), StoreError> {
    let mut removed = false;
    for (_, path) in list_incr_files(dir)? {
        match std::fs::remove_file(&path) {
            Ok(()) => removed = true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    if removed {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// The page-file names of earlier builds' layouts found in `dir`, if
/// any: what `open` refuses as [`StoreError::LegacyLayout`] when it
/// sits where this build would otherwise start an empty store. (An old
/// page under a name this build still uses fails its magic check.)
pub(crate) fn legacy_page_file(dir: &Path) -> Option<&'static str> {
    dir.join(LEGACY_PAGED_FILE)
        .exists()
        .then_some(LEGACY_PAGED_FILE)
}

/// A shard directory's page chain as [`load_chain`] read it.
pub(crate) struct Chain<T> {
    /// The full page with every link applied.
    pub tree: T,
    /// The version the chain reaches.
    pub version: u64,
    /// Incremental links applied.
    pub links: usize,
    /// Bytes of the full page's file.
    pub full_bytes: u64,
    /// Total bytes of the applied links' files.
    pub link_bytes: u64,
}

/// Loads a shard directory's page chain: the full snapshot, then every
/// newer incremental page chained onto it in version order, every file
/// read under the policy `pool` selects (lazy links page through the
/// same pool as their base). Returns `None` when `dir` has no full
/// snapshot (and, as a consistency check, no incrementals either);
/// otherwise the chained tree, the version it reaches, and the number
/// and bytes of the files applied.
///
/// Incrementals at or below the full snapshot's version are *stale* —
/// superseded by a later full save whose cleanup did not complete — and
/// are skipped (and not counted). An incremental whose recorded base
/// version is not the version the chain has reached means a link was
/// deleted, one whose recorded version is not the one in its file name
/// that it was renamed or misplaced: typed [`StoreError::Corrupt`],
/// never a silently shortened or re-labelled history.
///
/// # Errors
///
/// [`StoreError::LegacyLayout`] for a directory holding an earlier
/// build's paged snapshot; I/O errors; every [`read_page_file`] error;
/// [`StoreError::Corrupt`] for a broken chain.
pub(crate) fn load_chain<T: DiskTree>(
    dir: &Path,
    pool: Option<&Arc<BufferPool<BlockOf<T>>>>,
) -> Result<Option<Chain<T>>, StoreError> {
    if let Some(found) = legacy_page_file(dir) {
        return Err(StoreError::LegacyLayout(format!(
            "{} holds {found}, the paged snapshot of an earlier build, which this build does \
             not read (a shard's pages are {SNAPSHOT_FILE} plus incr-<version>.pac)",
            dir.display()
        )));
    }
    let links = list_incr_files(dir)?;
    let full = dir.join(SNAPSHOT_FILE);
    if !full.exists() {
        if !links.is_empty() {
            return Err(StoreError::Corrupt(
                "incremental pages present without a base snapshot".into(),
            ));
        }
        return Ok(None);
    }
    let (tree, head, full_bytes) = read_page_file::<T>(&full, None, pool)?;
    let mut chain = Chain {
        tree,
        version: head.version,
        links: 0,
        full_bytes,
        link_bytes: 0,
    };
    for (named, path) in links {
        if named <= chain.version {
            continue;
        }
        let (next, head, bytes) = read_page_file(&path, Some(&chain.tree), pool)?;
        if head.base != Some(chain.version) {
            return Err(StoreError::Corrupt(format!(
                "incremental page {} diffs against version {:?}, but the chain reaches \
                 {}: a link is missing",
                path.display(),
                head.base,
                chain.version
            )));
        }
        if head.version != named {
            return Err(StoreError::Corrupt(format!(
                "incremental page {} captures version {}, not the one it is named for",
                path.display(),
                head.version
            )));
        }
        chain.tree = next;
        chain.version = named;
        chain.links += 1;
        chain.link_bytes += bytes;
    }
    Ok(Some(chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecs::{DeltaCodec, RawCodec};
    use cpam::{NoAug, PacMap, PacSet};
    use std::sync::atomic::{AtomicU64, Ordering};

    type DeltaMap = PacMap<u64, u64, NoAug, DeltaCodec>;
    type RawMap = PacMap<u64, u64, NoAug, RawCodec>;

    /// The two read policies.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Policy {
        Eager,
        Lazy,
    }

    /// Reads the page image `bytes` under `policy`: straight from
    /// memory when eager, through a scratch file and a 2-page pool when
    /// lazy (the file outlives the call through the tree's source).
    fn read<T: DiskTree>(
        bytes: &[u8],
        base: Option<&T>,
        policy: Policy,
    ) -> Result<(T, PageHead), StoreError> {
        if policy == Policy::Eager {
            return decode_page(bytes, base);
        }
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pacpage-unit-{}-{}.pac",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        let result = read_page_file(&path, base, Some(&BufferPool::new(2)))
            .map(|(tree, head, _)| (tree, head));
        std::fs::remove_file(&path).unwrap();
        result
    }

    fn sample<C: BlockIo<(u64, u64)>>(b: usize, n: u64) -> PacMap<u64, u64, NoAug, C> {
        PacMap::from_sorted_pairs(b, &(0..n).map(|i| (2 * i, i)).collect::<Vec<_>>())
    }

    /// The bytes a snapshot of a fixed small map and a fixed small set
    /// encode to, by CRC-32 and length, as captured on the commit before
    /// `PacMap` and `PacSet` became aliases of one `PacOrd` (and the two
    /// `DiskTree` impls one): schema fingerprints, stream and records
    /// are unchanged, so existing directories keep opening.
    #[test]
    fn snapshot_bytes_match_the_two_front_end_build() {
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (3 * i, i * i)).collect();
        let map: DeltaMap = PacMap::from_sorted_pairs(4, &pairs);
        let page = encode_snapshot(&map, 7);
        assert_eq!((crc32(&page), page.len()), (0xcebb_1935, 494));

        let keys: Vec<u64> = (0..100).map(|i| 5 * i + 1).collect();
        let set: PacSet<u64> = PacSet::from_sorted_keys(4, &keys);
        let page = encode_snapshot(&set, 9);
        assert_eq!((crc32(&page), page.len()), (0x3763_84f9, 362));
    }

    #[test]
    fn full_page_roundtrips_under_both_policies() {
        for n in [0u64, 1, 7, 100, 20_000] {
            let m: DeltaMap = sample(32, n);
            let page = encode_snapshot(&m, 7);
            let (back, version): (DeltaMap, u64) = decode_snapshot(&page).expect("decode");
            assert_eq!(version, 7);
            assert!(back.iter().eq(m.iter()), "n = {n}");
            // Blocks were adopted verbatim: identical space accounting.
            assert_eq!(back.space_stats(), m.space_stats());
            back.check_invariants().expect("invariants");

            let (lazy, head) = read::<DeltaMap>(&page, None, Policy::Lazy).expect("lazy read");
            assert_eq!((head.base, head.version), (None, 7));
            assert_eq!(lazy.space_stats().lazy_nodes, lazy.space_stats().flat_nodes);
            assert!(lazy.iter().eq(m.iter()), "n = {n}");
            assert_eq!(lazy.range_entries(&100, &900), m.range_entries(&100, &900));
            lazy.check_invariants().expect("invariants");
        }
    }

    #[test]
    fn lazy_read_touches_no_record_and_bounds_residency() {
        let dir = std::env::temp_dir().join(format!("pacpage-unit-lazy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let m: RawMap = sample(8, 20_000);
        write_file_atomic(&path, &encode_snapshot(&m, 7)).unwrap();

        let pool = BufferPool::new(8);
        let (lazy, _, _) = read_page_file::<RawMap>(&path, None, Some(&pool)).unwrap();
        assert_eq!(lazy.len(), m.len());
        assert_eq!(pool.stats().misses, 0, "open touched leaf records");
        // A point query pages in exactly one leaf.
        assert_eq!(lazy.find(&2000), Some(1000));
        assert_eq!(pool.stats().misses, 1);
        // A full scan streams every record but residency stays capped.
        assert!(lazy.iter().eq(m.iter()));
        let s = pool.stats();
        assert!(s.resident_pages <= 8, "resident {} pages", s.resident_pages);
        assert!(s.evictions > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_page_roundtrips_and_is_small() {
        let base: RawMap = sample(32, 20_000);
        let mut m = base.clone();
        for k in [1u64, 20_001, 39_999] {
            m = m.insert(k, 0);
        }
        let full = encode_snapshot(&m, 8);
        let page = encode_page(&m, Some((&base, 7)), 8);
        assert!(
            page.len() * 10 < full.len(),
            "sparse diff page ({}) should be far smaller than the full page ({})",
            page.len(),
            full.len()
        );
        for policy in [Policy::Eager, Policy::Lazy] {
            let (back, head) = read(&page, Some(&base), policy).expect("decode");
            assert_eq!((head.base, head.version), (Some(7), 8), "{policy:?}");
            assert!(back.iter().eq(m.iter()), "{policy:?}");
            back.check_invariants().expect("invariants");
        }
    }

    /// `Ok` if `result` is one of the typed errors damage may surface
    /// as; a lazily opened tree is `Err` (damage must not open cleanly
    /// unless a first load then catches it).
    fn typed<T>(result: Result<T, StoreError>) -> Result<(), T> {
        match result {
            Err(
                StoreError::Truncated(_)
                | StoreError::Corrupt(_)
                | StoreError::BadMagic
                | StoreError::ChecksumMismatch { .. },
            ) => Ok(()),
            Err(other) => panic!("damage surfaced as {other:?}"),
            Ok(tree) => Err(tree),
        }
    }

    /// The one corruption sweep: over {full, incremental} × {eager,
    /// lazy}, every truncation length and every single-bit flip of a
    /// small page is a typed error at open — or, for a flip inside a
    /// leaf record read lazily, caught by the record's CRC at its first
    /// load, where `BlockSource::load` turns it into a panic carrying
    /// the typed error's message — never a mis-decode.
    #[test]
    fn every_truncation_and_bit_flip_is_caught() {
        let base: DeltaMap = sample(2, 12);
        let next = base.insert(7, 7).remove(&20);
        let pages = [
            (encode_snapshot(&next, 2), None),
            (encode_page(&next, Some((&base, 1)), 2), Some(&base)),
        ];
        for (page, base) in &pages {
            for policy in [Policy::Eager, Policy::Lazy] {
                let (back, _) = read(page, *base, policy).expect("undamaged");
                assert!(back.iter().eq(next.iter()));
                for cut in 0..page.len() {
                    let opened = typed(read::<DeltaMap>(&page[..cut], *base, policy));
                    assert!(opened.is_ok(), "{policy:?}: a page cut at {cut} opened");
                }
                for bit in 0..page.len() * 8 {
                    let mut flipped = page.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    let Err((tree, _)) = typed(read::<DeltaMap>(&flipped, *base, policy)) else {
                        continue;
                    };
                    assert_eq!(
                        policy,
                        Policy::Lazy,
                        "bit {bit}: a damaged page decoded eagerly"
                    );
                    let scan = std::panic::AssertUnwindSafe(|| tree.iter().count());
                    let scan = std::panic::catch_unwind(scan);
                    let message = *scan
                        .expect_err("damaged record read")
                        .downcast::<String>()
                        .unwrap();
                    assert!(
                        message.contains("unreadable: checksum mismatch"),
                        "bit {bit}: {message}"
                    );
                }
            }
        }
    }

    #[test]
    fn pages_read_as_the_wrong_thing_are_typed() {
        let base: DeltaMap = sample(8, 100);
        let next = base.insert(500, 0);
        let full = encode_snapshot(&next, 2);
        let diff = encode_page(&next, Some((&base, 1)), 2);
        let other_b: DeltaMap = sample(16, 100);
        for policy in [Policy::Eager, Policy::Lazy] {
            assert!(matches!(
                read::<RawMap>(&full, None, policy),
                Err(StoreError::CodecMismatch {
                    found: 1,
                    expected: 0,
                    ..
                })
            ));
            assert!(matches!(
                read::<PacMap<u64, u32, NoAug, DeltaCodec>>(&full, None, policy),
                Err(StoreError::SchemaMismatch { .. })
            ));
            assert!(matches!(
                read::<DeltaMap>(b"definitely not a page file", None, policy),
                Err(StoreError::BadMagic)
            ));
            // A diff needs its base — the right one — and a full
            // snapshot takes none.
            for (page, base) in [(&diff, None), (&diff, Some(&other_b)), (&full, Some(&base))] {
                assert!(matches!(
                    read(page, base, policy),
                    Err(StoreError::Corrupt(_))
                ));
            }
        }
    }

    /// Assembles a page image by hand around `structure` and `records`
    /// with a valid metadata CRC: what a hostile writer could produce.
    fn assemble(fields: [u64; 4], structure: &[u8], records: &[u8]) -> Vec<u8> {
        let mut meta = vec![<RawCodec as BlockIo<(u64, u64)>>::CODEC_ID];
        meta.extend_from_slice(&schema_id::<(u64, u64)>().to_le_bytes());
        for field in fields {
            bytecode::write_varint(field, &mut meta);
        }
        meta.extend_from_slice(structure);
        let mut page = PAGE_MAGIC.to_vec();
        page.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        page.extend_from_slice(&meta);
        let crc = crc32(&page);
        page.extend_from_slice(&crc.to_le_bytes());
        page.extend_from_slice(records);
        page
    }

    fn leaf_tag(entries: u64, len: u64, crc: u32) -> Vec<u8> {
        let mut tag = vec![TAG_LEAF];
        bytecode::write_varint(entries, &mut tag);
        bytecode::write_varint(len, &mut tag);
        tag.extend_from_slice(&crc.to_le_bytes());
        tag
    }

    /// Every length, count and index a page carries, set to values that
    /// overflow or point outside the file *under a valid CRC*: typed
    /// `Truncated`/`Corrupt` under both policies, never a panic or an
    /// allocation sized by the lie.
    #[test]
    fn hostile_geometry_under_a_valid_crc_is_typed() {
        let one_leaf: RawMap = sample(4, 3);
        let mut record = Vec::new();
        one_leaf.visit_nodes(None, &mut |n| {
            if let NodeRef::Flat(block) = n {
                RawCodec::write_block(block, &mut record);
            }
        });
        let (len, crc) = (record.len() as u64, crc32(&record));
        let honest = leaf_tag(3, len, crc);
        // The hand assembler and the writer agree on the honest page.
        assert_eq!(
            assemble([4, 0, 9, 3], &honest, &record),
            encode_snapshot(&one_leaf, 9)
        );

        let shared = |rank: u64, len: u64| {
            let mut tag = vec![TAG_SHARED];
            bytecode::write_varint(rank, &mut tag);
            bytecode::write_varint(len, &mut tag);
            tag
        };
        let two_leaves = [leaf_tag(3, len, crc), leaf_tag(3, len, crc)].concat();
        // A base with regular nodes; its root is the subtree (0, 40).
        let wide: RawMap = sample(4, 40);
        let mut wide_pivot = None;
        wide.visit_nodes(None, &mut |n| {
            if let (None, NodeRef::Regular(e)) = (wide_pivot, n) {
                wide_pivot = Some(wide.rank(&e.0) as u64);
            }
        });
        let wide_pivot = wide_pivot.expect("a regular root");
        let whole = assemble([4, 9, 10, 40], &shared(0, 40), &[]);
        for policy in [Policy::Eager, Policy::Lazy] {
            let (back, _) = read(&whole, Some(&wide), policy).expect("the whole base");
            assert!(back.iter().eq(wide.iter()));
        }
        let mut long_meta = assemble([4, 0, 9, 3], &honest, &record);
        long_meta[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut meta_past_eof = long_meta.clone();
        meta_past_eof[8..16].copy_from_slice(&(long_meta.len() as u64).to_le_bytes());
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            ("metadata length overflows", long_meta),
            ("metadata length past the file", meta_past_eof),
            ("zero block size", assemble([0, 0, 9, 3], &honest, &record)),
            (
                "block size overflows 2b",
                assemble([u64::MAX, 0, 9, 3], &honest, &record),
            ),
            (
                "entry count lies",
                assemble([4, 0, 9, u64::MAX], &honest, &record),
            ),
            (
                "base version on a full page",
                assemble([4, u64::MAX, 9, 3], &honest, &record),
            ),
            (
                "record length overflows",
                assemble([4, 0, 9, 3], &leaf_tag(3, u64::MAX, crc), &record),
            ),
            (
                "record past the file",
                assemble([4, 0, 9, 3], &leaf_tag(3, len + 1, crc), &record),
            ),
            (
                "records do not tile the file",
                assemble([4, 0, 9, 3], &honest, &[&record[..], b"x"].concat()),
            ),
            (
                "leaf entry count lies",
                assemble([4, 0, 9, 3], &leaf_tag(u64::MAX, len, crc), &record),
            ),
            (
                "leaf larger than 2b",
                assemble([1, 0, 9, 3], &honest, &record),
            ),
            (
                "a record too many",
                assemble(
                    [4, 0, 9, 3],
                    &two_leaves,
                    &[&record[..], &record[..]].concat(),
                ),
            ),
            (
                "shared index with no base",
                assemble([4, 0, 9, 3], &shared(u64::MAX, 3), &[]),
            ),
            ("no structure at all", assemble([4, 0, 9, 0], &[], &[])),
            (
                "pivot entry cut short",
                assemble([4, 0, 9, 1], &[TAG_REGULAR, 0x80], &[]),
            ),
            ("unknown tag", assemble([4, 0, 9, 3], &[9], &[])),
        ];
        for policy in [Policy::Eager, Policy::Lazy] {
            for (what, page) in &hostile {
                let err = read::<RawMap>(page, None, policy).err();
                assert!(
                    matches!(err, Some(StoreError::Truncated(_) | StoreError::Corrupt(_))),
                    "{policy:?}, {what}: {err:?}"
                );
            }
            // Against a base: an index past it, and one past `usize`.
            for index in [3, u64::MAX] {
                let page = assemble([4, 9, 10, 3], &shared(index, 3), &[]);
                let err = read(&page, Some(&one_leaf), policy).err();
                assert!(
                    matches!(err, Some(StoreError::Corrupt(_))),
                    "{policy:?}: {err:?}"
                );
            }
            // Coordinates that name no subtree of a 40-entry base whose
            // root pivot has rank `pivot`, and an earlier build's tag `3`
            // (a pre-order index) that would name one.
            let (wide, pivot) = (&wide, wide_pivot);
            for (what, structure) in [
                ("an empty subtree", shared(0, 0)),
                ("an end past u64", shared(u64::MAX, u64::MAX)),
                ("a range past the base", shared(39, 2)),
                ("a range across a pivot", shared(pivot - 1, 2)),
                ("a rank with no subtree that long", shared(0, 39)),
                ("the old tag 3", vec![3, 0]),
            ] {
                let page = assemble([4, 9, 10, 40], &structure, &[]);
                let err = read(&page, Some(wide), policy).err();
                assert!(
                    matches!(err, Some(StoreError::Corrupt(_))),
                    "{policy:?}, {what}: {err:?}"
                );
            }
        }
    }

    /// Lowercase hex of `bytes`.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Keys, gaps and values that take every varint length from 1 to 10
    /// bytes.
    fn every_varint_length() -> Vec<(u64, u64)> {
        let mut keys = vec![0u64, u64::MAX];
        for s in (7..64).step_by(7) {
            keys.extend([(1u64 << s) - 1, 1 << s]);
        }
        keys.sort_unstable();
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, (k >> 1) ^ i as u64))
            .collect()
    }

    /// `n` sorted keys with gaps of every magnitude (xorshift64*) and
    /// values of every length.
    fn seeded_pairs(n: usize) -> Vec<(u64, u64)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut key = 0u64;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                key += 1 + (r >> (40 + r % 24));
                (key, r >> (r % 64))
            })
            .collect()
    }

    /// The bytes of a full raw page, a full delta page and an incremental
    /// link, pinned: a change to any of these literals is a format
    /// change, and needs a new magic. Larger pages, with delta leaves
    /// past a restart, are pinned by CRC-32 and length.
    #[test]
    fn pages_keep_their_bytes() {
        let pairs = every_varint_length();
        let raw: RawMap = PacMap::from_sorted_pairs(4, &pairs);
        assert_eq!(
            hex(&encode_snapshot(&raw, 7)),
            concat!(
                "50414350414745314900000000000000009cbc2e2e04000714018080808080018a808080",
                "4001ffff7ffaff3f020512a5ac51f00204248f74c57f01ffffffffffffff7ff0ffffffff",
                "ffff3f0204389de8865202044b5ebe6a001046ae2c051000007f3e800142ff7ffc3f8080",
                "018440042280808001868040ffffff7ff8ffff3f808080800188808040ffffffff7ff6ff",
                "ffff3f0436ffffffffff7ff4ffffffff3f808080808080018c8080808040ffffffffffff",
                "7ff2ffffffffff3f80808080808080018e80808080804004498080808080808080019080",
                "808080808040ffffffffffffffff7feeffffffffffffff3f808080808080808080019280",
                "80808080808040ffffffffffffffffff01ecffffffffffffff7f",
            )
        );
        let delta: DeltaMap = PacMap::from_sorted_pairs(4, &pairs);
        assert_eq!(
            hex(&encode_snapshot(&delta, 7)),
            concat!(
                "50414350414745314900000000000000019cbc2e2e04000714018080808080018a808080",
                "4001ffff7ffaff3f0205113febd46d0204222dd0a76001ffffffffffffff7ff0ffffffff",
                "ffff3f02042c3d1237000204436d8ae561de09fd40050f0000fe013e0242fefd01fc3f02",
                "8440042080808001868040fefffffd01f8ffff3f0288808040fefffffffd01f6ffffff3f",
                "042affffffffff7ff4ffffffff3f028c8080808040fefffffffffffd01f2ffffffffff3f",
                "028e80808080804004418080808080808080019080808080808040fefffffffffffffffd",
                "01eeffffffffffffff3f02928080808080808040feffffffffffffffff01ecffffffffff",
                "ffff7f",
            )
        );
        let next = delta
            .insert(5, 5)
            .remove(&(1 << 35))
            .insert(u64::MAX - 1, 9);
        assert_eq!(
            hex(&encode_page(&next, Some((&delta, 7)), 8)),
            concat!(
                "50414350414745314300000000000000019cbc2e2e0408081501ffffffff7ff6ffffff3f",
                "01808001844002051049c0c02702041a7d7cd6d901ffffffffffffff7ff0ffffffffffff",
                "3f040b04020545acbd6bf33857d39e050e00000a05f4013e0242fefd01fc3f0418ffff7f",
                "faff3f02868040fefffffd01f8ffff3f0288808040054380808080808080800190808080",
                "80808040fefffffffffffffffd01eeffffffffffffff3f02928080808080808040fcffff",
                "ffffffffffff010902ecffffffffffffff7f",
            )
        );

        let pairs = seeded_pairs(3_000);
        let raw: RawMap = PacMap::from_sorted_pairs(128, &pairs);
        let page = encode_snapshot(&raw, 3);
        assert_eq!((crc32(&page), page.len()), (0xa98a_054d, 29519));
        let delta: DeltaMap = PacMap::from_sorted_pairs(128, &pairs);
        let page = encode_snapshot(&delta, 3);
        assert_eq!((crc32(&page), page.len()), (0x4aee_0aaa, 21851));
    }

    #[test]
    fn incr_file_names_roundtrip_in_version_order() {
        assert_eq!(parse_incr_file_name(&incr_file_name(42)), Some(42));
        assert_eq!(parse_incr_file_name("incr-x.pac"), None);
        assert_eq!(parse_incr_file_name("snapshot.pac"), None);
        assert!(incr_file_name(9) < incr_file_name(10));
        assert!(incr_file_name(99) < incr_file_name(100));
    }
}
