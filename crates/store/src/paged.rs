//! The paged snapshot format (`PACPGF01`) and its demand-paging reader.
//!
//! The classic snapshot page ([`crate::pagefmt`]) interleaves leaf
//! blocks with the node stream, so opening a store decodes every block
//! — `O(data)` before the first query. The paged format splits the two:
//!
//! * **header** — magic, codec/schema, the tagged pre-order *structure*
//!   stream in which leaves are `(page, len)` references, own CRC;
//! * **data pages** — `page_count × page_size` bytes; page `i` holds
//!   leaf `i`'s framed block payload, zero-padded to the page size
//!   (a power of two sized to the largest payload, so any page is one
//!   aligned `pread`);
//! * **footer** — per-page payload lengths and CRCs plus the page
//!   geometry, its own CRC, then a fixed 12-byte tail
//!   (`body crc · body len · b"PGT1"`) so a reader can bootstrap from
//!   the end of the file.
//!
//! ```text
//! magic        8 bytes   b"PACPGF01"
//! codec id     1 byte
//! schema       4 bytes   LE
//! block size   varint
//! version      varint    store version this snapshot captures
//! count        varint    total entries
//! struct len   varint    byte length of the structure stream
//! structure    …         tags 0 (empty), 1 (regular + entry),
//!                        4 (paged leaf: page varint, len varint)
//! header crc   4 bytes   LE, over everything above
//! data pages   page_count × page_size
//! footer body  …         page size varint, page count varint, then per
//!                        page: payload len varint + payload crc 4 LE
//! body crc     4 bytes   LE, over the footer body
//! body len     4 bytes   LE
//! tail magic   4 bytes   b"PGT1"
//! ```
//!
//! Opening reads the tail, the footer, and the header — `O(structure)`
//! I/O, independent of the data size. Leaves materialize through a
//! [`PagedSource`] (a [`BufferPool`]-backed [`BlockSource`]) only when
//! a query path crosses them; each page's CRC is verified on its first
//! load. An *eager* open (no pool) reads every page up front and yields
//! the same fully-resident tree the classic format would.
//!
//! Only unaugmented maps are paged (a lazy leaf cannot supply an
//! aggregate without being read), which is exactly what the store keeps.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use codecs::{bytecode, BlockIo, ByteEncode};
use cpam::structure::{NodeOwned, PagedNodeOwned};
use cpam::{BlockSource, Element, NoAug, PacMap, ScalarKey};

use crate::checksum::{crc32, schema_id};
use crate::error::StoreError;
use crate::pagefmt::{flatten_build_error, write_file_atomic, TAG_EMPTY, TAG_REGULAR};
use crate::pool::BufferPool;

/// Identifies a paged snapshot file, version 01.
pub const PAGED_MAGIC: [u8; 8] = *b"PACPGF01";

/// Identifies the fixed tail record the reader bootstraps from.
const TAIL_MAGIC: [u8; 4] = *b"PGT1";

/// Structure-stream tag for a paged leaf. Distinct from the classic
/// stream's `TAG_FLAT`/`TAG_SHARED` so a mixed-up decode fails loudly.
const TAG_PAGED: u8 = 4;

/// Smallest page size; payloads below this still occupy one page.
const MIN_PAGE_SIZE: usize = 64;

/// Serializes `map` (captured at `version`) into a complete paged
/// snapshot file image.
pub fn encode_paged<K, V, C>(map: &PacMap<K, V, NoAug, C>, version: u64) -> Vec<u8>
where
    K: ScalarKey + ByteEncode,
    V: Element + ByteEncode,
    C: BlockIo<(K, V)>,
{
    // Pass 1: structure stream + one framed payload per leaf, in
    // pre-order (leaf i lands on page i).
    let mut structure = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    map.visit_nodes(&mut |n| match n {
        cpam::structure::NodeRef::Empty => structure.push(TAG_EMPTY),
        cpam::structure::NodeRef::Regular(e) => {
            structure.push(TAG_REGULAR);
            e.write(&mut structure);
        }
        cpam::structure::NodeRef::Flat(block) => {
            structure.push(TAG_PAGED);
            bytecode::write_varint(payloads.len() as u64, &mut structure);
            bytecode::write_varint(C::len(block) as u64, &mut structure);
            let mut payload = Vec::new();
            C::write_block(block, &mut payload);
            payloads.push(payload);
        }
    });

    let max_payload = payloads.iter().map(Vec::len).max().unwrap_or(0);
    let page_size = max_payload.max(MIN_PAGE_SIZE).next_power_of_two();

    // Header.
    let mut out = Vec::with_capacity(structure.len() + payloads.len() * page_size + 128);
    out.extend_from_slice(&PAGED_MAGIC);
    out.push(C::CODEC_ID);
    out.extend_from_slice(&schema_id::<(K, V)>().to_le_bytes());
    bytecode::write_varint(map.block_size() as u64, &mut out);
    bytecode::write_varint(version, &mut out);
    bytecode::write_varint(map.len() as u64, &mut out);
    bytecode::write_varint(structure.len() as u64, &mut out);
    out.extend_from_slice(&structure);
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());

    // Data pages, zero-padded.
    for payload in &payloads {
        out.extend_from_slice(payload);
        out.resize(out.len() + (page_size - payload.len()), 0);
    }

    // Footer: geometry + per-page lengths/CRCs, then the fixed tail.
    let mut body = Vec::with_capacity(payloads.len() * 8 + 16);
    bytecode::write_varint(page_size as u64, &mut body);
    bytecode::write_varint(payloads.len() as u64, &mut body);
    for payload in &payloads {
        bytecode::write_varint(payload.len() as u64, &mut body);
        body.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    let body_crc = crc32(&body);
    let body_len = body.len() as u32;
    out.extend_from_slice(&body);
    out.extend_from_slice(&body_crc.to_le_bytes());
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&TAIL_MAGIC);
    out
}

/// Writes `map` to `path` as a paged snapshot, atomically
/// (temp file + fsync + rename + parent dir fsync).
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure.
pub fn write_paged_file<K, V, C>(
    path: &Path,
    map: &PacMap<K, V, NoAug, C>,
    version: u64,
) -> Result<(), StoreError>
where
    K: ScalarKey + ByteEncode,
    V: Element + ByteEncode,
    C: BlockIo<(K, V)>,
{
    write_file_atomic(path, &encode_paged(map, version))
}

/// Per-page metadata parsed from the footer.
#[derive(Clone, Copy)]
struct PageMeta {
    payload_len: u32,
    crc: u32,
}

/// Everything needed to read pages out of one paged file: parsed
/// geometry plus an open handle for positioned reads.
struct PagedFile {
    file: File,
    path: PathBuf,
    data_off: u64,
    page_size: u64,
    pages: Vec<PageMeta>,
}

/// Positioned exact read; positional I/O keeps the handle shareable
/// across concurrent page loads without a seek lock.
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

impl PagedFile {
    /// Reads and verifies page `page`'s payload bytes.
    fn read_payload(&self, page: u32, verify_crc: bool) -> Result<Vec<u8>, StoreError> {
        let meta = self.pages[page as usize];
        let mut buf = vec![0u8; meta.payload_len as usize];
        pread(&self.file, &mut buf, self.data_off + u64::from(page) * self.page_size)?;
        if verify_crc {
            let computed = crc32(&buf);
            if computed != meta.crc {
                return Err(StoreError::ChecksumMismatch { stored: meta.crc, computed });
            }
        }
        Ok(buf)
    }
}

/// Bootstraps a [`PagedFile`] from the tail + footer + header of
/// `path`, and parses the header into `(b, version, count, structure)`.
fn open_raw(
    path: &Path,
    codec_id: u8,
    codec_name: &'static str,
    schema: u32,
) -> Result<(PagedFile, usize, u64, usize, Vec<u8>), StoreError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < 12 {
        return Err(StoreError::Truncated("paged tail"));
    }

    let mut tail = [0u8; 8];
    pread(&file, &mut tail, file_len - 8)?;
    if tail[4..] != TAIL_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let body_len = u64::from(u32::from_le_bytes(tail[..4].try_into().unwrap()));
    if file_len < 12 + body_len {
        return Err(StoreError::Truncated("paged footer"));
    }
    let body_start = file_len - 12 - body_len;
    let mut body = vec![0u8; body_len as usize + 4];
    pread(&file, &mut body, body_start)?;
    let stored = u32::from_le_bytes(body[body_len as usize..].try_into().unwrap());
    body.truncate(body_len as usize);
    let computed = crc32(&body);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }

    let mut pos = 0;
    let page_size = bytecode::try_read_varint(&body, &mut pos)
        .ok_or(StoreError::Truncated("page size"))?;
    let page_count = bytecode::try_read_varint(&body, &mut pos)
        .ok_or(StoreError::Truncated("page count"))?;
    if page_size == 0 || !page_size.is_power_of_two() || page_count > u64::from(u32::MAX) {
        return Err(StoreError::Corrupt(format!(
            "implausible page geometry: {page_count} pages of {page_size} bytes"
        )));
    }
    let mut pages = Vec::with_capacity(page_count as usize);
    for _ in 0..page_count {
        let payload_len = bytecode::try_read_varint(&body, &mut pos)
            .ok_or(StoreError::Truncated("payload length"))?;
        if payload_len > page_size {
            return Err(StoreError::Corrupt(format!(
                "payload of {payload_len} bytes exceeds page size {page_size}"
            )));
        }
        let crc_bytes = body
            .get(pos..pos + 4)
            .ok_or(StoreError::Truncated("payload crc"))?;
        pos += 4;
        pages.push(PageMeta {
            payload_len: payload_len as u32,
            crc: u32::from_le_bytes(crc_bytes.try_into().unwrap()),
        });
    }
    if pos != body.len() {
        return Err(StoreError::Corrupt("trailing bytes after footer body".into()));
    }

    let data_len = page_count * page_size;
    let data_off = body_start
        .checked_sub(data_len)
        .ok_or(StoreError::Truncated("data pages"))?;

    // Header (everything before the data region), own CRC last.
    let mut header = vec![0u8; data_off as usize];
    pread(&file, &mut header, 0)?;
    if header.len() < 4 {
        return Err(StoreError::Truncated("paged header"));
    }
    let crc_start = header.len() - 4;
    let stored = u32::from_le_bytes(header[crc_start..].try_into().unwrap());
    let computed = crc32(&header[..crc_start]);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    if header.len() < 13 || header[..8] != PAGED_MAGIC {
        return Err(StoreError::BadMagic);
    }
    if header[8] != codec_id {
        return Err(StoreError::CodecMismatch {
            found: header[8],
            expected: codec_id,
            expected_name: codec_name,
        });
    }
    let found_schema = u32::from_le_bytes(header[9..13].try_into().unwrap());
    if found_schema != schema {
        return Err(StoreError::SchemaMismatch { found: found_schema, expected: schema });
    }
    let mut pos = 13;
    let b = bytecode::try_read_varint(&header, &mut pos)
        .ok_or(StoreError::Truncated("block size"))?;
    let version =
        bytecode::try_read_varint(&header, &mut pos).ok_or(StoreError::Truncated("version"))?;
    let count = bytecode::try_read_varint(&header, &mut pos)
        .ok_or(StoreError::Truncated("entry count"))?;
    let struct_len = bytecode::try_read_varint(&header, &mut pos)
        .ok_or(StoreError::Truncated("structure length"))?;
    let structure = header
        .get(pos..pos + struct_len as usize)
        .ok_or(StoreError::Truncated("structure stream"))?
        .to_vec();
    if pos + struct_len as usize != crc_start {
        return Err(StoreError::Corrupt("trailing bytes after structure stream".into()));
    }

    let paged = PagedFile {
        file,
        path: path.to_path_buf(),
        data_off,
        page_size,
        pages,
    };
    Ok((paged, b as usize, version, count as usize, structure))
}

/// Parses one node of the paged structure stream.
fn read_paged_node<E: ByteEncode>(
    buf: &[u8],
    pos: &mut usize,
    page_count: usize,
) -> Result<PagedNodeOwned<E>, StoreError> {
    let tag = *buf.get(*pos).ok_or(StoreError::Truncated("node tag"))?;
    *pos += 1;
    match tag {
        TAG_EMPTY => Ok(PagedNodeOwned::Empty),
        TAG_REGULAR => Ok(PagedNodeOwned::Regular(E::read(buf, pos))),
        TAG_PAGED => {
            let page =
                bytecode::try_read_varint(buf, pos).ok_or(StoreError::Truncated("leaf page"))?;
            let len =
                bytecode::try_read_varint(buf, pos).ok_or(StoreError::Truncated("leaf length"))?;
            if page >= page_count as u64 {
                return Err(StoreError::Corrupt(format!(
                    "leaf references page {page} of {page_count}"
                )));
            }
            Ok(PagedNodeOwned::Leaf { page: page as u32, len: len as u32 })
        }
        other => Err(StoreError::Corrupt(format!("unknown paged node tag {other}"))),
    }
}

/// A [`BlockSource`] that reads pages of one paged file through a
/// [`BufferPool`]. Lazy leaves hold this behind an `Arc`, so the source
/// (and its file handle) lives exactly as long as any tree still
/// referencing the file.
pub struct PagedSource<E, C>
where
    E: Element + ByteEncode,
    C: BlockIo<E>,
{
    file: PagedFile,
    pool: Arc<BufferPool<C::Block>>,
    /// Per-page "CRC verified" latch: pages are checked on first load
    /// only; later re-loads (after eviction) trust the kernel page
    /// cache / disk to return what was already verified.
    verified: Vec<AtomicBool>,
    _entry: std::marker::PhantomData<fn() -> E>,
}

impl<E, C> PagedSource<E, C>
where
    E: Element + ByteEncode,
    C: BlockIo<E>,
{
    /// The pool this source pages through (for stats).
    pub fn pool(&self) -> &Arc<BufferPool<C::Block>> {
        &self.pool
    }

    /// Reads, verifies (first load only) and decodes page `page`.
    fn fetch(&self, page: u32) -> Result<(Arc<C::Block>, usize), StoreError> {
        let check = !self.verified[page as usize].load(Ordering::Acquire);
        let payload = self.file.read_payload(page, check)?;
        if check {
            self.verified[page as usize].store(true, Ordering::Release);
        }
        let mut pos = 0;
        let block = C::read_block(&payload, &mut pos)?;
        if pos != payload.len() {
            return Err(StoreError::Corrupt("trailing bytes after page payload".into()));
        }
        let bytes = C::heap_bytes(&block) + std::mem::size_of::<C::Block>();
        Ok((Arc::new(block), bytes))
    }
}

impl<E, C> BlockSource<C::Block> for PagedSource<E, C>
where
    E: Element + ByteEncode,
    C: BlockIo<E>,
{
    fn load(&self, page: u32) -> Arc<C::Block> {
        match self.pool.get(page, || self.fetch(page)) {
            Ok(guard) => guard.share(),
            // `BlockSource::load` is infallible by contract: queries
            // have no error channel. A page that was present at open
            // and fails now is an environment failure, not a caller
            // error — surface the typed error's message.
            Err(e) => panic!(
                "paged store {}: page {page} unreadable: {e}",
                self.file.path.display()
            ),
        }
    }
}

/// A paged snapshot opened from disk.
pub struct PagedSnapshot<K, V, C>
where
    K: ScalarKey + ByteEncode,
    V: Element + ByteEncode,
    C: BlockIo<(K, V)>,
{
    /// The tree. Lazy (pool-backed leaves) when opened with a pool,
    /// fully resident otherwise.
    pub map: PacMap<K, V, NoAug, C>,
    /// Store version the snapshot captures.
    pub version: u64,
}

impl<K, V, C> std::fmt::Debug for PagedSnapshot<K, V, C>
where
    K: ScalarKey + ByteEncode,
    V: Element + ByteEncode,
    C: BlockIo<(K, V)>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedSnapshot")
            .field("version", &self.version)
            .field("len", &self.map.len())
            .finish()
    }
}

/// Opens the paged snapshot at `path`.
///
/// With `pool: Some`, the open is *lazy*: `O(structure)` I/O now, leaf
/// pages stream through the pool on first access, resident cache bytes
/// bounded by the pool budget. With `pool: None`, every page is read,
/// verified, and decoded eagerly — the resulting tree is bit-identical
/// to one loaded from the classic snapshot format.
///
/// # Errors
///
/// Typed [`StoreError`]s on I/O failure, bad magic/codec/schema, CRC
/// mismatch, or a structurally invalid stream.
pub fn open_paged_file<K, V, C>(
    path: &Path,
    pool: Option<&Arc<BufferPool<C::Block>>>,
) -> Result<PagedSnapshot<K, V, C>, StoreError>
where
    K: ScalarKey + ByteEncode,
    V: Element + ByteEncode,
    C: BlockIo<(K, V)>,
{
    let (paged, b, version, count, structure) = open_raw(
        path,
        <C as BlockIo<(K, V)>>::CODEC_ID,
        <C as BlockIo<(K, V)>>::CODEC_NAME,
        schema_id::<(K, V)>(),
    )?;
    let page_count = paged.pages.len();
    let mut pos = 0;

    let map = match pool {
        Some(pool) => {
            let source: Arc<PagedSource<(K, V), C>> = Arc::new(PagedSource {
                verified: (0..page_count).map(|_| AtomicBool::new(false)).collect(),
                file: paged,
                pool: Arc::clone(pool),
                _entry: std::marker::PhantomData,
            });
            PacMap::from_paged_stream::<StoreError>(
                b,
                source as Arc<dyn BlockSource<C::Block>>,
                &mut || read_paged_node::<(K, V)>(&structure, &mut pos, page_count),
            )
            .map_err(flatten_build_error)?
        }
        None => PacMap::from_node_stream::<StoreError>(b, &mut || {
            Ok(match read_paged_node::<(K, V)>(&structure, &mut pos, page_count)? {
                PagedNodeOwned::Empty => NodeOwned::Empty,
                PagedNodeOwned::Regular(e) => NodeOwned::Regular(e),
                PagedNodeOwned::Leaf { page, .. } => {
                    let payload = paged.read_payload(page, true)?;
                    let mut bpos = 0;
                    let block = C::read_block(&payload, &mut bpos)?;
                    if bpos != payload.len() {
                        return Err(StoreError::Corrupt(
                            "trailing bytes after page payload".into(),
                        ));
                    }
                    NodeOwned::Flat(block)
                }
            })
        })
        .map_err(flatten_build_error)?,
    };
    if pos != structure.len() {
        return Err(StoreError::Corrupt("trailing bytes after node stream".into()));
    }
    if map.len() != count {
        return Err(StoreError::Corrupt(format!(
            "header counts {count} entries, tree holds {}",
            map.len()
        )));
    }
    Ok(PagedSnapshot { map, version })
}

/// A loaded snapshot chain: the tree, its version, and its recorded
/// block size — or `None` when the directory has no snapshot at all.
pub(crate) type LoadedChain<K, V, C> = Option<(PacMap<K, V, NoAug, C>, u64, usize)>;

/// Loads a store directory's snapshot chain, preferring the paged
/// format: if `paged_file` exists it is the base (opened lazily through
/// `pool` when given, eagerly otherwise), with incremental pages
/// chained on top exactly as [`crate::pagefmt::load_chain`] would.
/// Falls back to the classic `legacy_file` chain when no paged file is
/// present.
///
/// When *both* files exist — a save of one format crashed between
/// writing its file and removing the other's — the newer version wins:
/// that is the save that was acknowledged.
///
/// # Errors
///
/// Everything [`open_paged_file`] and [`crate::pagefmt::load_chain`]
/// can return.
pub(crate) fn load_chain_auto<K, V, C>(
    dir: &Path,
    paged_file: &str,
    legacy_file: &str,
    pool: Option<&Arc<BufferPool<C::Block>>>,
) -> Result<LoadedChain<K, V, C>, StoreError>
where
    K: ScalarKey + ByteEncode,
    V: Element + ByteEncode,
    C: BlockIo<(K, V)>,
{
    let paged_path = dir.join(paged_file);
    let legacy_path = dir.join(legacy_file);
    let use_paged = match (paged_path.exists(), legacy_path.exists()) {
        (false, _) => false,
        (true, false) => true,
        (true, true) => {
            read_paged_version::<K, V, C>(&paged_path)?
                >= crate::pagefmt::read_snapshot_version(&legacy_path)?
        }
    };
    if !use_paged {
        return crate::pagefmt::load_chain::<PacMap<K, V, NoAug, C>>(dir, legacy_file);
    }
    let snap = open_paged_file::<K, V, C>(&paged_path, pool)?;
    Ok(Some(crate::pagefmt::chain_incrementals(dir, snap.map, snap.version)?))
}

/// Writes a full snapshot of `map` into `dir` in the configured format
/// — paged (`paged_file`) when `paged` is set, classic (`legacy_file`)
/// otherwise — then removes the superseded other-format file and the
/// incremental chain the full page now covers. Returns the page's byte
/// size. Called once per shard by a full checkpoint.
///
/// A crash between the write and the removals leaves both formats (or
/// stale incrementals) on disk; [`load_chain_auto`] arbitrates by
/// version, and stale incrementals are skipped, so recovery always
/// lands on the state acknowledged here.
///
/// # Errors
///
/// I/O errors.
pub(crate) fn write_full_snapshot<K, V, C>(
    paged: bool,
    dir: &Path,
    paged_file: &str,
    legacy_file: &str,
    map: &PacMap<K, V, NoAug, C>,
    version: u64,
) -> Result<usize, StoreError>
where
    K: ScalarKey + ByteEncode,
    V: Element + ByteEncode,
    C: BlockIo<(K, V)>,
{
    let bytes = if paged {
        let page = encode_paged(map, version);
        write_file_atomic(&dir.join(paged_file), &page)?;
        remove_file_durable(&dir.join(legacy_file))?;
        page.len()
    } else {
        let page = crate::pagefmt::encode_snapshot(map, version);
        write_file_atomic(&dir.join(legacy_file), &page)?;
        remove_file_durable(&dir.join(paged_file))?;
        page.len()
    };
    crate::pagefmt::remove_incr_files(dir)?;
    Ok(bytes)
}

/// Removes `path` and fsyncs its parent directory, so the removal is
/// as durable as the atomic write it pairs with (idempotent; a missing
/// file is fine).
fn remove_file_durable(path: &Path) -> Result<(), StoreError> {
    match std::fs::remove_file(path) {
        Ok(()) => {
            if let Some(parent) = path.parent() {
                crate::pagefmt::fsync_dir(parent)?;
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Reads only the version field of the paged snapshot at `path`.
///
/// # Errors
///
/// Same conditions as [`open_paged_file`], minus structure validation.
pub fn read_paged_version<K, V, C>(path: &Path) -> Result<u64, StoreError>
where
    K: ScalarKey + ByteEncode,
    V: Element + ByteEncode,
    C: BlockIo<(K, V)>,
{
    let (_, _, version, _, _) = open_raw(
        path,
        <C as BlockIo<(K, V)>>::CODEC_ID,
        <C as BlockIo<(K, V)>>::CODEC_NAME,
        schema_id::<(K, V)>(),
    )?;
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecs::RawCodec;
    use tempdir::TempDir;

    type Map = PacMap<u64, u64, NoAug, RawCodec>;

    fn sample(n: u64) -> Map {
        Map::from_sorted_pairs(8, &(0..n).map(|i| (i * 2, i)).collect::<Vec<_>>())
    }

    /// A throwaway directory under the target dir (no external tempdir
    /// crate; mirrors the helper used by the store's other tests).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempDir(PathBuf);

        impl TempDir {
            pub fn new(tag: &str) -> std::io::Result<TempDir> {
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let path = std::env::temp_dir().join(format!(
                    "pacpaged-{tag}-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&path)?;
                Ok(TempDir(path))
            }

            pub fn path(&self) -> &std::path::Path {
                &self.0
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn roundtrip_eager_matches_original() {
        let dir = TempDir::new("eager").unwrap();
        let path = dir.path().join("snap.pgf");
        for n in [0u64, 1, 7, 100, 5000] {
            let map = sample(n);
            write_paged_file(&path, &map, 42).unwrap();
            let snap = open_paged_file::<u64, u64, RawCodec>(&path, None).unwrap();
            assert_eq!(snap.version, 42);
            assert!(snap.map.iter().eq(map.iter()), "n = {n}");
            snap.map.check_invariants().unwrap();
        }
    }

    #[test]
    fn lazy_open_reads_no_pages_and_bounds_residency() {
        let dir = TempDir::new("lazy").unwrap();
        let path = dir.path().join("snap.pgf");
        let map = sample(20_000);
        write_paged_file(&path, &map, 7).unwrap();

        let pool = BufferPool::new(8);
        let snap = open_paged_file::<u64, u64, RawCodec>(&path, Some(&pool)).unwrap();
        assert_eq!(snap.version, 7);
        assert_eq!(snap.map.len(), map.len());
        // Open touched no data pages at all.
        assert_eq!(pool.stats().misses, 0);

        // A point query pages in exactly one leaf.
        assert_eq!(snap.map.find(&2000), Some(1000));
        assert_eq!(pool.stats().misses, 1);

        // A full scan streams every page but residency stays capped.
        assert!(snap.map.iter().eq(map.iter()));
        let s = pool.stats();
        assert!(s.resident_pages <= 8, "resident {} pages", s.resident_pages);
        assert!(s.evictions > 0);
    }

    #[test]
    fn lazy_and_eager_agree() {
        let dir = TempDir::new("agree").unwrap();
        let path = dir.path().join("snap.pgf");
        let map = sample(3000);
        write_paged_file(&path, &map, 1).unwrap();
        let pool = BufferPool::new(4);
        let lazy = open_paged_file::<u64, u64, RawCodec>(&path, Some(&pool)).unwrap();
        let eager = open_paged_file::<u64, u64, RawCodec>(&path, None).unwrap();
        assert!(lazy.map.iter().eq(eager.map.iter()));
        assert_eq!(lazy.map.range_entries(&100, &900), eager.map.range_entries(&100, &900));
        lazy.map.check_invariants().unwrap();
    }

    #[test]
    fn corrupt_page_fails_closed() {
        let dir = TempDir::new("corrupt").unwrap();
        let path = dir.path().join("snap.pgf");
        let map = sample(2000);
        write_paged_file(&path, &map, 1).unwrap();

        // Flip one byte in the middle of the data region.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        // The eager open verifies every page and must reject it; a
        // header/footer hit is also a typed error, never a mis-decode.
        let err = open_paged_file::<u64, u64, RawCodec>(&path, None).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_)
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn truncated_tail_is_typed() {
        let dir = TempDir::new("trunc").unwrap();
        let path = dir.path().join("snap.pgf");
        write_paged_file(&path, &sample(100), 1).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..5]).unwrap();
        assert!(matches!(
            open_paged_file::<u64, u64, RawCodec>(&path, None),
            Err(StoreError::Truncated(_))
        ));
    }

    #[test]
    fn version_probe_reads_header_only() {
        let dir = TempDir::new("probe").unwrap();
        let path = dir.path().join("snap.pgf");
        write_paged_file(&path, &sample(500), 99).unwrap();
        assert_eq!(read_paged_version::<u64, u64, RawCodec>(&path).unwrap(), 99);
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let dir = TempDir::new("schema").unwrap();
        let path = dir.path().join("snap.pgf");
        write_paged_file(&path, &sample(50), 1).unwrap();
        assert!(matches!(
            open_paged_file::<u64, u32, RawCodec>(&path, None),
            Err(StoreError::SchemaMismatch { .. })
        ));
    }
}
