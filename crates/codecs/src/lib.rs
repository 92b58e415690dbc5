//! Block encoding schemes for PaC-tree leaves.
//!
//! A PaC-tree stores its leaf entries in blocks of `B..2B` entries; this
//! crate defines the [`Codec`] trait a tree is parameterized over, plus
//! four codecs:
//!
//! * [`RawCodec`] — blocking only, entries stored as a plain array
//!   (the paper's "empty" encoding scheme `C = ∅`);
//! * [`DeltaCodec`] — byte-code difference encoding: the first entry of a
//!   block is stored whole, each following entry relative to its
//!   predecessor (the paper's default compression, `C_DE`);
//! * [`KeyDeltaCodec`] — the same difference encoding for the keys of
//!   `(key, value)` entries, with the values kept as a plain array (the
//!   graph vertex trees' encoding, for values that cannot be byte-coded);
//! * [`GammaCodec`] — difference encoding with Elias gamma codes, the
//!   bit-level alternative the paper mentions as a user-definable scheme.
//!
//! Users can add their own scheme by implementing [`Codec`]; the tree
//! code never looks inside a block except through this trait.
//!
//! Every encoding has one decoder, and it never panics:
//! [`bytecode::try_read_varint`], [`ByteEncode::try_read`],
//! [`Delta::try_read_first`]/[`Delta::try_read_delta`] and
//! [`gamma::BitReader::try_read_gamma0`] return `None` on bytes that are
//! not a valid encoding. Untrusted bytes become a block only through
//! [`BlockIo::read_block`], which parses every entry with those readers,
//! so a block's cursors and loops call the same readers and `expect`
//! them to succeed: every compressed block comes from `encode`, `splice`
//! or that checked parse.
//!
//! ```
//! use codecs::{Codec, DeltaCodec, RawCodec};
//!
//! let entries: Vec<u64> = (0..256).map(|i| 1_000_000 + 3 * i).collect();
//! let raw = <RawCodec as Codec<u64>>::encode(&entries);
//! let delta = <DeltaCodec as Codec<u64>>::encode(&entries);
//! // Difference encoding stores ~1 byte per entry instead of 8.
//! assert!(<DeltaCodec as Codec<u64>>::heap_bytes(&delta) * 4
//!     < <RawCodec as Codec<u64>>::heap_bytes(&raw));
//! let mut out = Vec::new();
//! <DeltaCodec as Codec<u64>>::decode(&delta, &mut out);
//! assert_eq!(out, entries);
//! ```

pub mod bytecode;
mod chain;
pub mod gamma;

use std::cmp::Ordering;
use std::sync::OnceLock;

pub use chain::{DeltaCursor, EncodedBlock, RESTART_INTERVAL};

use gamma::{BitReader, BitWriter};

/// A zero-allocation streaming cursor over one encoded block.
///
/// A cursor sits *on* an entry (or past the end); [`peek`] borrows the
/// current entry and [`advance`] moves to the next one, decoding
/// incrementally — no heap allocation, no materialized `Vec`. Cursors
/// are the access layer all tree hot paths (point lookups, range scans,
/// iteration, merges) are built on; [`Codec::decode`] exists for the
/// bulk paths that genuinely need every entry in memory at once.
///
/// [`peek`]: BlockCursor::peek
/// [`advance`]: BlockCursor::advance
pub trait BlockCursor<E> {
    /// The entry the cursor sits on, or `None` once exhausted.
    fn peek(&self) -> Option<&E>;

    /// Moves past the current entry (no-op once exhausted).
    fn advance(&mut self);
}

/// Advances `cur`, sitting on entry `i`, past every entry `f` ranks
/// `Less`, returning the index it stops at: the scan of every
/// [`Codec::seek_by`] (the trait default starts at 0; the byte codecs
/// start at the restart their sample search picked).
fn skip_less<E, Cur: BlockCursor<E>>(
    mut cur: Cur,
    mut i: usize,
    f: &mut impl FnMut(&E) -> Ordering,
) -> (usize, Cur) {
    while cur.peek().is_some_and(|e| f(e) == Ordering::Less) {
        cur.advance();
        i += 1;
    }
    (i, cur)
}

/// An encoding scheme for a block of entries.
///
/// `encode`/`decode` must be exact inverses. Blocks are stored inside
/// reference-counted tree nodes, so they must be cheap-ish to clone
/// (cloning happens on path copying) and sendable across worker threads.
///
/// Besides bulk encode/decode, every codec exposes a zero-allocation
/// access layer: a streaming [`Codec::cursor`], point access
/// ([`Codec::get`]) and sorted search ([`Codec::seek_by`], and
/// [`Codec::search_by`] on top of it). The
/// provided defaults are sequential over the cursor; codecs with random
/// access ([`RawCodec`]) or seek structure (the byte codecs' restart
/// samples, see [`EncodedBlock::sample_offsets`]) override them with
/// sublinear paths.
pub trait Codec<E>: 'static {
    /// The owned, encoded representation of one block.
    type Block: Clone + Send + Sync + 'static;

    /// The streaming cursor over a borrowed block.
    type Cursor<'a>: BlockCursor<E>
    where
        E: 'a;

    /// Encodes a block of entries (in collection order).
    fn encode(entries: &[E]) -> Self::Block;

    /// Appends all entries of `block` to `out`, in order.
    ///
    /// The default reserves room for them and pushes each one
    /// [`Codec::for_each`] visits.
    fn decode(block: &Self::Block, out: &mut Vec<E>)
    where
        E: Clone,
    {
        out.reserve(Self::len(block));
        Self::for_each(block, &mut |e: &E| out.push(e.clone()));
    }

    /// Number of entries in the block.
    fn len(block: &Self::Block) -> usize;

    /// True if the block holds no entries.
    fn is_empty(block: &Self::Block) -> bool {
        Self::len(block) == 0
    }

    /// Heap bytes used by the block (for space accounting experiments).
    fn heap_bytes(block: &Self::Block) -> usize;

    /// Opens a cursor on the block's first entry.
    fn cursor(block: &Self::Block) -> Self::Cursor<'_>;

    /// Opens a cursor sitting on entry `i` (exhausted when `i >= len`).
    ///
    /// The default advances a fresh cursor `i` times; codecs with seek
    /// structure override this to jump near `i` first.
    fn cursor_at(block: &Self::Block, i: usize) -> Self::Cursor<'_> {
        let mut cur = Self::cursor(block);
        for _ in 0..i {
            cur.advance();
        }
        cur
    }

    /// The entry at index `i`, cloned out of the block without decoding
    /// the rest.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    fn get(block: &Self::Block, i: usize) -> E
    where
        E: Clone,
    {
        Self::cursor_at(block, i)
            .peek()
            .expect("Codec::get index out of bounds")
            .clone()
    }

    /// Opens a cursor on the first entry that `f` does not rank `Less`
    /// (exhausted when there is none), returning that entry's index with
    /// it: where a search lands, ready to read on from. The entries must
    /// be sorted ascending with respect to `f` (`f(e)` is the ordering of
    /// `e` relative to the target: `Less` means `e` is before it), with
    /// at most one ranked `Equal`.
    ///
    /// The default scans a fresh cursor. [`RawCodec`] binary searches;
    /// the byte codecs binary search their restart samples and then
    /// decode one run, once: the cursor that scanned it is the one
    /// returned.
    fn seek_by(
        block: &Self::Block,
        mut f: impl FnMut(&E) -> Ordering,
    ) -> (usize, Self::Cursor<'_>) {
        skip_less(Self::cursor(block), 0, &mut f)
    }

    /// Searches a block sorted with respect to `f`, as
    /// [`Codec::seek_by`] does.
    ///
    /// Returns `Ok((i, entry))` for a match at index `i`, or `Err(i)`
    /// with the insertion index: the seek, and one look at the entry it
    /// lands on.
    fn search_by(
        block: &Self::Block,
        mut f: impl FnMut(&E) -> Ordering,
    ) -> Result<(usize, E), usize>
    where
        E: Clone,
    {
        let (i, cur) = Self::seek_by(block, &mut f);
        match cur.peek() {
            Some(e) if f(e) == Ordering::Equal => Ok((i, e.clone())),
            _ => Err(i),
        }
    }

    /// Visits each entry in order without materializing a vector.
    ///
    /// The default streams the cursor, so it is allocation-free for
    /// every codec. Generic (not `dyn`) so per-entry calls inline —
    /// this is the hot path of tree reductions.
    fn for_each<F: FnMut(&E)>(block: &Self::Block, f: &mut F) {
        let mut cur = Self::cursor(block);
        while let Some(e) = cur.peek() {
            f(e);
            cur.advance();
        }
    }

    /// Applies a sorted batch of edits to a block whose entries are
    /// sorted under `cmp`, returning the edited block.
    ///
    /// The codec never learns keys: `cmp(e, t)` orders entry `e`
    /// against edit `t` (`Less` means `e` comes before it, as in
    /// [`Codec::seek_by`]), and `edits` must be strictly ascending
    /// under it. For each edit, `apply(old, t)` decides the outcome:
    /// `old` is the entry `t` matches, if any, and the returned entry
    /// (or `None`, for nothing) takes its place. One callback thus
    /// covers an insert (`None` → `Some`), an overwrite that combines
    /// old and new (`Some` → `Some`), a remove (`Some` → `None`) and a
    /// remove that misses (`None` → `None`).
    ///
    /// **The result is byte-identical to [`Codec::encode`] of the
    /// edited entries** — same bytes, count, samples, `heap_bytes` and
    /// `Eq` — so a splice is unobservable in everything a block is
    /// written to or compared by. The default is exactly that: decode,
    /// merge, encode, `O(len + edits)` encoded entries. [`RawCodec`] and
    /// [`DeltaCodec`] override it to skip what did not change.
    fn splice<T>(
        block: &Self::Block,
        edits: &[T],
        mut cmp: impl FnMut(&E, &T) -> Ordering,
        mut apply: impl FnMut(Option<&E>, &T) -> Option<E>,
    ) -> Self::Block
    where
        E: Clone,
    {
        let mut out = Vec::with_capacity(Self::len(block) + edits.len());
        let mut rest = edits;
        Self::for_each(block, &mut |x: &E| {
            while let Some((t, tail)) = rest.split_first() {
                match cmp(x, t) {
                    Ordering::Less => break,
                    Ordering::Equal => {
                        out.extend(apply(Some(x), t));
                        rest = tail;
                        return;
                    }
                    Ordering::Greater => out.extend(apply(None, t)),
                }
                rest = tail;
            }
            out.push(x.clone());
        });
        out.extend(rest.iter().filter_map(|t| apply(None, t)));
        Self::encode(&out)
    }
}

/// Blocking without compression: entries stored as a boxed slice.
///
/// This is the paper's default `C = ∅` scheme: it already yields most of
/// the space savings over P-trees (no per-entry node overhead) and the
/// best speed, since no decode step is needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RawCodec;

/// Cursor over an uncompressed block: a shrinking slice view.
#[derive(Debug)]
pub struct RawCursor<'a, E> {
    rest: &'a [E],
}

impl<E> BlockCursor<E> for RawCursor<'_, E> {
    #[inline]
    fn peek(&self) -> Option<&E> {
        self.rest.first()
    }

    #[inline]
    fn advance(&mut self) {
        if !self.rest.is_empty() {
            self.rest = &self.rest[1..];
        }
    }
}

impl<E: Clone + Send + Sync + 'static> Codec<E> for RawCodec {
    type Block = Box<[E]>;

    type Cursor<'a>
        = RawCursor<'a, E>
    where
        E: 'a;

    fn encode(entries: &[E]) -> Self::Block {
        entries.to_vec().into_boxed_slice()
    }

    fn decode(block: &Self::Block, out: &mut Vec<E>) {
        out.extend_from_slice(block);
    }

    fn len(block: &Self::Block) -> usize {
        block.len()
    }

    fn heap_bytes(block: &Self::Block) -> usize {
        std::mem::size_of_val::<[E]>(block)
    }

    fn cursor(block: &Self::Block) -> Self::Cursor<'_> {
        RawCursor { rest: block }
    }

    fn cursor_at(block: &Self::Block, i: usize) -> Self::Cursor<'_> {
        RawCursor {
            rest: &block[i.min(block.len())..],
        }
    }

    fn get(block: &Self::Block, i: usize) -> E {
        block[i].clone()
    }

    fn seek_by(
        block: &Self::Block,
        mut f: impl FnMut(&E) -> Ordering,
    ) -> (usize, Self::Cursor<'_>) {
        let i = block.partition_point(|e| f(e) == Ordering::Less);
        (i, RawCursor { rest: &block[i..] })
    }

    fn for_each<F: FnMut(&E)>(block: &Self::Block, f: &mut F) {
        for e in block.iter() {
            f(e);
        }
    }

    fn splice<T>(
        block: &Self::Block,
        edits: &[T],
        mut cmp: impl FnMut(&E, &T) -> Ordering,
        mut apply: impl FnMut(Option<&E>, &T) -> Option<E>,
    ) -> Self::Block {
        let mut out = Vec::with_capacity(block.len() + edits.len());
        let mut rest: &[E] = block;
        for t in edits {
            let at = rest.partition_point(|x| cmp(x, t) == Ordering::Less);
            out.extend_from_slice(&rest[..at]);
            let hit = rest.get(at).is_some_and(|x| cmp(x, t) == Ordering::Equal);
            out.extend(apply(rest.get(at).filter(|_| hit), t));
            rest = &rest[at + usize::from(hit)..];
        }
        out.extend_from_slice(rest);
        out.into_boxed_slice()
    }
}

/// Entry types supporting difference encoding relative to a predecessor.
///
/// Implemented for unsigned integer keys (zigzag varint deltas, correct
/// for *any* ordering via wrapping arithmetic, and 1 byte per entry for
/// small gaps) and for `(key, value)` pairs where the value is
/// byte-encoded with [`ByteEncode`].
///
/// Each of the two encodings has one reader, and it never panics: on
/// bytes that are not a valid encoding (truncated or out of range) it
/// returns `None`, leaving `*pos` unspecified. [`BlockIo::read_block`]
/// parses every entry of a block through these readers before it keeps
/// the block, so the cursors' hot path can `expect` on them.
pub trait Delta: Sized {
    /// Writes the first entry of a block (stored whole).
    fn write_first(&self, out: &mut Vec<u8>);
    /// Writes this entry relative to its predecessor `prev`.
    fn write_delta(&self, prev: &Self, out: &mut Vec<u8>);
    /// Reads an entry written by [`Delta::write_first`].
    fn try_read_first(buf: &[u8], pos: &mut usize) -> Option<Self>;
    /// Reads an entry written by [`Delta::write_delta`] after `prev`.
    fn try_read_delta(buf: &[u8], pos: &mut usize, prev: &Self) -> Option<Self>;
}

/// Fixed or variable-width byte encoding for the value part of an entry,
/// and the grammar of every record around the leaves.
///
/// [`ByteEncode::try_read`] is the one reader, for trusted and untrusted
/// bytes alike: a CRC only proves the payload is what the *writer*
/// wrote, not that the writer was honest (network peers, foreign files),
/// so it refuses malformed input instead of panicking. A value inside a
/// delta block is read by it too, and an already parsed block's cursors
/// `expect` on it (see [`Delta`]).
pub trait ByteEncode: Sized {
    /// Appends the encoded value.
    fn write(&self, out: &mut Vec<u8>);
    /// Reads a value written by [`ByteEncode::write`], or `None` when the
    /// bytes at `*pos` are not a valid encoding (truncated, overlong, or
    /// otherwise malformed), leaving `*pos` unspecified. Never panics.
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

/// Writes `items` as a `Vec<T>` is written: a varint count, then the
/// items.
pub fn write_list<T: ByteEncode>(items: &[T], out: &mut Vec<u8>) {
    bytecode::write_varint(items.len() as u64, out);
    for item in items {
        item.write(out);
    }
}

/// Reads the `count` items of a `Vec<T>`, written back to back after
/// its count.
///
/// Every listed item takes at least one byte, so a count larger than
/// the bytes left is malformed: it is refused before anything is
/// allocated. The up-front reservation is at most as many `T`s as fit
/// in the bytes left, so it is never larger than the input; a list of
/// items wider in memory than on the wire grows as they parse.
fn try_read_items<T: ByteEncode>(count: u64, buf: &[u8], pos: &mut usize) -> Option<Vec<T>> {
    let left = buf.len().saturating_sub(*pos);
    if count > left as u64 {
        return None;
    }
    let mut items =
        Vec::with_capacity((count as usize).min(left / std::mem::size_of::<T>().max(1)));
    for _ in 0..count {
        items.push(T::try_read(buf, pos)?);
    }
    Some(items)
}

/// A varint count, then the items. A count larger than the bytes left
/// is malformed, so nothing is allocated beyond the input.
impl<T: ByteEncode> ByteEncode for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        write_list(self, out);
    }
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let count = bytecode::try_read_varint(buf, pos)?;
        try_read_items(count, buf, pos)
    }
}

/// A flag byte, `0` for `None` or `1` followed by the value; any other
/// flag is malformed.
impl<T: ByteEncode> ByteEncode for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write(out);
            }
        }
    }
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let flag = *buf.get(*pos)?;
        *pos += 1;
        match flag {
            0 => Some(None),
            1 => T::try_read(buf, pos).map(Some),
            _ => None,
        }
    }
}

macro_rules! impl_byte_encode_uint {
    ($($t:ty),*) => {$(
        impl ByteEncode for $t {
            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                bytecode::write_varint(*self as u64, out);
            }
            fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
                let v = bytecode::try_read_varint(buf, pos)?;
                <$t>::try_from(v).ok()
            }
        }
    )*};
}
impl_byte_encode_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_byte_encode_int {
    ($($t:ty),*) => {$(
        impl ByteEncode for $t {
            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                bytecode::write_signed(*self as i64, out);
            }
            fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
                let v = bytecode::unzigzag(bytecode::try_read_varint(buf, pos)?);
                <$t>::try_from(v).ok()
            }
        }
    )*};
}
impl_byte_encode_int!(i8, i16, i32, i64, isize);

impl<A: ByteEncode, B: ByteEncode> ByteEncode for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let a = A::try_read(buf, pos)?;
        let b = B::try_read(buf, pos)?;
        Some((a, b))
    }
}

impl ByteEncode for () {
    fn write(&self, _out: &mut Vec<u8>) {}
    fn try_read(_buf: &[u8], _pos: &mut usize) -> Option<Self> {
        Some(())
    }
}

impl ByteEncode for String {
    fn write(&self, out: &mut Vec<u8>) {
        bytecode::write_varint(self.len() as u64, out);
        out.extend_from_slice(self.as_bytes());
    }
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        // The length is validated in the u64 domain before narrowing:
        // a hostile 2^33 length must not truncate to something small
        // on a 32-bit usize and slice the wrong bytes.
        let len = usize::try_from(bytecode::try_read_varint(buf, pos)?).ok()?;
        let end = pos.checked_add(len).filter(|&end| end <= buf.len())?;
        let s = String::from_utf8(buf[*pos..end].to_vec()).ok()?;
        *pos = end;
        Some(s)
    }
}

impl ByteEncode for f32 {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let bytes = buf.get(*pos..pos.checked_add(4)?)?;
        *pos += 4;
        Some(f32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }
}

impl ByteEncode for f64 {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn try_read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let bytes = buf.get(*pos..pos.checked_add(8)?)?;
        *pos += 8;
        Some(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

macro_rules! impl_delta_uint {
    ($($t:ty),*) => {$(
        impl Delta for $t {
            #[inline]
            fn write_first(&self, out: &mut Vec<u8>) {
                bytecode::write_varint(*self as u64, out);
            }
            #[inline]
            fn write_delta(&self, prev: &Self, out: &mut Vec<u8>) {
                // Wrapping difference + zigzag: exact for any pair, and a
                // small non-negative gap (sorted data) costs one byte.
                let diff = self.wrapping_sub(*prev) as i64;
                bytecode::write_signed(diff, out);
            }
            fn try_read_first(buf: &[u8], pos: &mut usize) -> Option<Self> {
                <$t>::try_from(bytecode::try_read_varint(buf, pos)?).ok()
            }
            fn try_read_delta(buf: &[u8], pos: &mut usize, prev: &Self) -> Option<Self> {
                let diff = bytecode::unzigzag(bytecode::try_read_varint(buf, pos)?);
                Some(prev.wrapping_add(diff as $t))
            }
        }
    )*};
}
impl_delta_uint!(u32, u64, usize);

impl<K: Delta, V: ByteEncode> Delta for (K, V) {
    fn write_first(&self, out: &mut Vec<u8>) {
        self.0.write_first(out);
        self.1.write(out);
    }
    fn write_delta(&self, prev: &Self, out: &mut Vec<u8>) {
        self.0.write_delta(&prev.0, out);
        self.1.write(out);
    }
    fn try_read_first(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let k = K::try_read_first(buf, pos)?;
        let v = V::try_read(buf, pos)?;
        Some((k, v))
    }
    fn try_read_delta(buf: &[u8], pos: &mut usize, prev: &Self) -> Option<Self> {
        let k = K::try_read_delta(buf, pos, &prev.0)?;
        let v = V::try_read(buf, pos)?;
        Some((k, v))
    }
}

/// Byte-code difference encoding (the paper's default `C_DE`).
///
/// The first entry of a block is stored whole; every other entry is
/// stored as the byte-coded difference from its predecessor — except
/// that the block's *restart* entries are again stored whole, with their
/// byte offsets kept in its sample table
/// ([`EncodedBlock::sample_offsets`]).
/// Full decoding is sequential within one block, matching the span
/// analysis of Section 6.2 of the paper; point accesses binary search
/// the samples and decode at most one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DeltaCodec;

impl<E: Delta + Clone + Send + Sync + 'static> Codec<E> for DeltaCodec {
    type Block = EncodedBlock;

    type Cursor<'a>
        = DeltaCursor<'a, E>
    where
        E: 'a;

    fn encode(entries: &[E]) -> Self::Block {
        chain::encode(entries.iter())
    }

    fn len(block: &Self::Block) -> usize {
        block.count()
    }

    fn heap_bytes(block: &Self::Block) -> usize {
        block.heap_bytes()
    }

    fn cursor(block: &Self::Block) -> Self::Cursor<'_> {
        DeltaCursor::at(block, 0)
    }

    fn cursor_at(block: &Self::Block, i: usize) -> Self::Cursor<'_> {
        DeltaCursor::at(block, i)
    }

    fn seek_by(
        block: &Self::Block,
        mut f: impl FnMut(&E) -> Ordering,
    ) -> (usize, Self::Cursor<'_>) {
        chain::seek(block, |_, e| e, |i| DeltaCursor::at(block, i), &mut f)
    }

    fn for_each<F: FnMut(&E)>(block: &Self::Block, f: &mut F) {
        chain::for_each(block, f);
    }

    fn splice<T>(
        block: &Self::Block,
        edits: &[T],
        cmp: impl FnMut(&E, &T) -> Ordering,
        apply: impl FnMut(Option<&E>, &T) -> Option<E>,
    ) -> Self::Block {
        chain::splice(block, edits, cmp, apply)
    }
}

/// Difference encoding for the keys of `(K, V)` entries with the values
/// stored as a plain array.
///
/// This is the encoder CPAM uses for graph *vertex trees*: the vertex
/// ids compress to ~1 byte each while the values — handles to edge
/// trees — cannot be byte-coded and stay as-is. It demonstrates the
/// paper's user-defined-compression hook (Section 8) for values that are
/// not `ByteEncode`. The keys are exactly [`DeltaCodec`]'s block of the
/// keys alone: the same bytes, restarts and samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct KeyDeltaCodec;

/// Streaming cursor over a [`KeyDeltaCodec`] block: a [`DeltaCursor`]
/// over the keys, each paired with its value from the plain array.
#[derive(Debug)]
pub struct KeyDeltaCursor<'a, K, V> {
    keys: DeltaCursor<'a, K>,
    values: &'a [V],
    cur: Option<(K, V)>,
}

impl<'a, K: Delta + Clone, V: Clone> KeyDeltaCursor<'a, K, V> {
    fn new(keys: DeltaCursor<'a, K>, values: &'a [V]) -> Self {
        let cur = keys
            .peek()
            .map(|k| (k.clone(), values[keys.index()].clone()));
        KeyDeltaCursor { keys, values, cur }
    }
}

impl<K: Delta + Clone, V: Clone> BlockCursor<(K, V)> for KeyDeltaCursor<'_, K, V> {
    #[inline]
    fn peek(&self) -> Option<&(K, V)> {
        self.cur.as_ref()
    }

    #[inline]
    fn advance(&mut self) {
        self.keys.advance();
        // Overwrite the pair in place, as the key cursor decodes its key.
        match (self.keys.peek(), &mut self.cur) {
            (Some(k), Some((key, value))) => {
                key.clone_from(k);
                value.clone_from(&self.values[self.keys.index()]);
            }
            _ => self.cur = None,
        }
    }
}

impl<K, V> Codec<(K, V)> for KeyDeltaCodec
where
    K: Delta + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Block = (EncodedBlock, Box<[V]>);

    type Cursor<'a>
        = KeyDeltaCursor<'a, K, V>
    where
        K: 'a,
        V: 'a;

    fn encode(entries: &[(K, V)]) -> Self::Block {
        (
            chain::encode(entries.iter().map(|(k, _)| k)),
            entries.iter().map(|(_, v)| v.clone()).collect(),
        )
    }

    fn len(block: &Self::Block) -> usize {
        block.1.len()
    }

    fn heap_bytes(block: &Self::Block) -> usize {
        block.0.heap_bytes() + std::mem::size_of_val::<[V]>(&block.1)
    }

    fn cursor(block: &Self::Block) -> Self::Cursor<'_> {
        Self::cursor_at(block, 0)
    }

    fn cursor_at(block: &Self::Block, i: usize) -> Self::Cursor<'_> {
        KeyDeltaCursor::new(DeltaCursor::at(&block.0, i), &block.1)
    }

    fn seek_by(
        block: &Self::Block,
        mut f: impl FnMut(&(K, V)) -> Ordering,
    ) -> (usize, Self::Cursor<'_>) {
        // `f`'s contract takes whole entries, so each restart probe
        // clones its value. That is one clone per probed restart — at
        // most a couple for in-tree blocks — and
        // the one in-repo KeyDelta user stores `Arc`-like values (graph
        // edge-tree handles), so the clone is a refcount bump, not a deep
        // copy.
        chain::seek(
            &block.0,
            |i, k| (k, block.1[i].clone()),
            |i| Self::cursor_at(block, i),
            &mut f,
        )
    }

    fn for_each<F: FnMut(&(K, V))>(block: &Self::Block, f: &mut F) {
        let mut values = block.1.iter();
        chain::for_each(&block.0, &mut |k: &K| {
            let v = values.next().expect("one value per key");
            f(&(k.clone(), v.clone()));
        });
    }
}

/// Keys encodable with Elias gamma difference coding.
pub trait GammaKey: Sized + Copy {
    /// Converts to the u64 domain gamma codes operate on.
    fn to_u64(self) -> u64;
    /// Converts back from the u64 domain.
    fn from_u64(v: u64) -> Self;
}

impl GammaKey for u32 {
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
    fn from_u64(v: u64) -> Self {
        v as u32
    }
}
impl GammaKey for u64 {
    fn to_u64(self) -> u64 {
        self
    }
    fn from_u64(v: u64) -> Self {
        v
    }
}

/// Difference encoding with Elias gamma codes: better space than byte
/// codes for tiny gaps, slower to decode (bit-granular).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct GammaCodec;

/// The next code of a [`GammaCodec`] block, which holds `count` whole
/// codes: it comes from `encode` or a checked parse ([`parse_gamma`]).
#[inline]
fn next_gamma(r: &mut BitReader<'_>) -> u64 {
    r.try_read_gamma0()
        .expect("every gamma block comes from encode or a checked parse")
}

/// Streaming cursor over a [`GammaCodec`] block: bit-granular gamma
/// decoding, one entry per [`advance`](BlockCursor::advance).
#[derive(Debug)]
pub struct GammaCursor<'a, E> {
    reader: BitReader<'a>,
    idx: usize,
    count: usize,
    prev: u64,
    cur: Option<E>,
}

impl<E: GammaKey> BlockCursor<E> for GammaCursor<'_, E> {
    #[inline]
    fn peek(&self) -> Option<&E> {
        self.cur.as_ref()
    }

    #[inline]
    fn advance(&mut self) {
        if self.cur.take().is_none() {
            return;
        }
        self.idx += 1;
        if self.idx >= self.count {
            return;
        }
        let diff = bytecode::unzigzag(next_gamma(&mut self.reader));
        self.prev = self.prev.wrapping_add(diff as u64);
        self.cur = Some(E::from_u64(self.prev));
    }
}

impl<E: GammaKey + Clone + Send + Sync + 'static> Codec<E> for GammaCodec {
    type Block = EncodedBlock;

    type Cursor<'a>
        = GammaCursor<'a, E>
    where
        E: 'a;

    fn encode(entries: &[E]) -> Self::Block {
        let mut w = BitWriter::new();
        if let Some((first, rest)) = entries.split_first() {
            // Every value is stored as gamma(v + 1), so zero is
            // representable.
            w.write_gamma0(first.to_u64());
            let mut prev = first.to_u64();
            for e in rest {
                let v = e.to_u64();
                // Zigzag the wrapping diff.
                w.write_gamma0(bytecode::zigzag(v.wrapping_sub(prev) as i64));
                prev = v;
            }
        }
        // Gamma streams are bit-granular: no byte-offset restarts.
        EncodedBlock::from_parts(w.into_bytes(), entries.len() as u32)
    }

    fn len(block: &Self::Block) -> usize {
        block.count()
    }

    fn heap_bytes(block: &Self::Block) -> usize {
        block.heap_bytes()
    }

    fn cursor(block: &Self::Block) -> Self::Cursor<'_> {
        let mut c = GammaCursor {
            reader: BitReader::new(block.bytes()),
            idx: 0,
            count: block.count(),
            prev: 0,
            cur: None,
        };
        if c.count > 0 {
            c.prev = next_gamma(&mut c.reader);
            c.cur = Some(E::from_u64(c.prev));
        }
        c
    }

    fn for_each<F: FnMut(&E)>(block: &Self::Block, f: &mut F) {
        if block.count() == 0 {
            return;
        }
        let mut r = BitReader::new(block.bytes());
        let mut prev = next_gamma(&mut r);
        f(&E::from_u64(prev));
        for _ in 1..block.count() {
            let diff = bytecode::unzigzag(next_gamma(&mut r));
            prev = prev.wrapping_add(diff as u64);
            f(&E::from_u64(prev));
        }
    }
}

/// Error from [`BlockIo::read_block`]'s framing checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockIoError {
    /// The byte stream ended inside a block frame.
    Truncated,
    /// A frame field was structurally impossible (e.g. a length running
    /// past the buffer, or an entry count over the block limit).
    Malformed(&'static str),
}

impl std::fmt::Display for BlockIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockIoError::Truncated => f.write_str("block frame truncated"),
            BlockIoError::Malformed(what) => write!(f, "malformed block frame: {what}"),
        }
    }
}

impl std::error::Error for BlockIoError {}

/// What a successful parse of one block frame learned: its entry count,
/// its payload length and, for a [`DeltaCodec`] block, its restart
/// table. [`BlockIo::read_block_indexed`] builds one on the first read
/// of a frame and, given it again, rebuilds the same block from the same
/// bytes without walking its entries. Only a parse builds one, so a
/// block rebuilt from an index carries the table its own bytes gave.
#[derive(Debug)]
pub struct BlockIndex {
    count: usize,
    len: usize,
    samples: Box<[u32]>,
}

impl BlockIndex {
    /// Checks that a frame of `count` entries in `len` payload bytes is
    /// the one this index was parsed from, as far as its shape tells.
    fn check(&self, count: usize, len: usize) -> Result<(), BlockIoError> {
        if (count, len) != (self.count, self.len) {
            return Err(BlockIoError::Malformed(
                "block frame disagrees with its index",
            ));
        }
        Ok(())
    }
}

/// Byte-stream serialization of encoded blocks, for storage.
///
/// A codec implementing `BlockIo` can write its blocks into a flat byte
/// stream and read them back. For compressed codecs ([`DeltaCodec`],
/// [`GammaCodec`]) the block payload is copied *verbatim* — the entries
/// are never re-encoded, so a deserialized block is byte-identical to
/// the one written (and so is its [`Codec::heap_bytes`] accounting).
///
/// Every frame is self-delimiting: `varint entry-count`, `varint
/// payload-length`, then `payload-length` bytes. `read_block` validates
/// the framing (truncation, impossible lengths) and, for every codec,
/// that the payload parses to exactly `count` entries and ends with the
/// last one, returning a typed error otherwise; it does **not** defend against
/// corruption that still parses — callers are expected to verify an
/// outer checksum first, which is what the `store` crate's page format
/// does.
pub trait BlockIo<E>: Codec<E> {
    /// Identifies the codec in on-disk headers. Stable across versions:
    /// raw = 0, byte-code delta = 1, gamma = 2.
    const CODEC_ID: u8;
    /// Human-readable codec name for error messages.
    const CODEC_NAME: &'static str;

    /// Appends one framed block to `out`.
    fn write_block(block: &Self::Block, out: &mut Vec<u8>);

    /// Reads one framed block from `buf` at `*pos`, advancing `*pos`.
    ///
    /// # Errors
    ///
    /// [`BlockIoError`] on truncated or structurally impossible framing.
    fn read_block(buf: &[u8], pos: &mut usize) -> Result<Self::Block, BlockIoError>;

    /// Reads one framed block as [`read_block`](Self::read_block) does,
    /// parsing its entries only the first time. With `index` empty, the
    /// frame is parsed and what the parse learned is kept in `index`.
    /// With `index` set, the frame is trusted to hold the bytes that
    /// parse saw: only its entry count and payload length are checked
    /// against the index before the payload is copied into the block.
    /// The caller must hand the same bytes to every call with one index
    /// (the `store` crate checks a record's CRC before its first read).
    ///
    /// The default parses on every call; [`DeltaCodec`] and
    /// [`GammaCodec`] override it. [`RawCodec`]'s parse is its decode,
    /// so there is nothing to skip.
    ///
    /// # Errors
    ///
    /// Every [`read_block`](Self::read_block) error, and
    /// [`BlockIoError::Malformed`] when the frame's count or payload
    /// length differs from a set `index`'s.
    fn read_block_indexed(
        buf: &[u8],
        pos: &mut usize,
        index: &OnceLock<BlockIndex>,
    ) -> Result<Self::Block, BlockIoError> {
        let (count, payload) = read_frame(buf, &mut pos.clone())?;
        if let Some(kept) = index.get() {
            kept.check(count, payload.len())?;
        }
        let block = Self::read_block(buf, pos)?;
        let _ = index.set(BlockIndex {
            count,
            len: payload.len(),
            samples: Box::default(),
        });
        Ok(block)
    }
}

/// Reads the `(count, payload)` frame header shared by all `BlockIo`
/// impls and bounds-checks the payload.
fn read_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Result<(usize, &'a [u8]), BlockIoError> {
    let count = bytecode::try_read_varint(buf, pos).ok_or(BlockIoError::Truncated)? as usize;
    let len = bytecode::try_read_varint(buf, pos).ok_or(BlockIoError::Truncated)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or(BlockIoError::Malformed("payload length overflows"))?;
    if end > buf.len() {
        return Err(BlockIoError::Truncated);
    }
    let payload = &buf[*pos..end];
    *pos = end;
    Ok((count, payload))
}

impl<E: ByteEncode + Clone + Send + Sync + 'static> BlockIo<E> for RawCodec {
    const CODEC_ID: u8 = 0;
    const CODEC_NAME: &'static str = "raw";

    /// The entries are written straight into `out`, behind a payload
    /// length sized for `size_of::<E>()` bytes per entry.
    fn write_block(block: &Self::Block, out: &mut Vec<u8>) {
        bytecode::write_varint(block.len() as u64, out);
        let expect = block.len() * std::mem::size_of::<E>();
        bytecode::write_prefixed(out, expect, |out| {
            for e in block.iter() {
                e.write(out);
            }
        });
    }

    /// The frame's count sizes the block's one allocation once it is
    /// known to fit the payload (every entry takes at least one byte),
    /// so a hostile frame reserves at most `size_of::<E>()` bytes per
    /// payload byte.
    fn read_block(buf: &[u8], pos: &mut usize) -> Result<Self::Block, BlockIoError> {
        let (count, payload) = read_frame(buf, pos)?;
        let misparse = BlockIoError::Malformed("raw block entries exceed or misparse the payload");
        if count > payload.len() {
            return Err(misparse);
        }
        let mut entries = Vec::with_capacity(count);
        let mut at = 0;
        for _ in 0..count {
            entries.push(E::try_read(payload, &mut at).ok_or(misparse)?);
        }
        if at != payload.len() {
            return Err(BlockIoError::Malformed("raw block payload length mismatch"));
        }
        Ok(entries.into_boxed_slice())
    }
}

/// Shared `BlockIo` body for codecs whose block is an [`EncodedBlock`]:
/// the compressed bytes are copied verbatim, never re-encoded.
fn write_encoded_block(block: &EncodedBlock, out: &mut Vec<u8>) {
    bytecode::write_varint(block.count() as u64, out);
    bytecode::write_varint(block.bytes().len() as u64, out);
    out.extend_from_slice(block.bytes());
}

/// Reads the frame of an [`EncodedBlock`]: its entry count, which must
/// fit the block's `u32`, and its payload.
fn read_encoded_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Result<(u32, &'a [u8]), BlockIoError> {
    let (count, payload) = read_frame(buf, pos)?;
    let count =
        u32::try_from(count).map_err(|_| BlockIoError::Malformed("entry count exceeds u32"))?;
    Ok((count, payload))
}

/// Shared [`BlockIo::read_block_indexed`] body for codecs whose block is
/// an [`EncodedBlock`]: `parse` runs on the first read only, and a later
/// read copies the payload and attaches the kept restart table.
fn read_encoded_indexed(
    buf: &[u8],
    pos: &mut usize,
    index: &OnceLock<BlockIndex>,
    parse: impl FnOnce(&[u8], u32) -> Result<EncodedBlock, BlockIoError>,
) -> Result<EncodedBlock, BlockIoError> {
    let (count, payload) = read_encoded_frame(buf, pos)?;
    if let Some(kept) = index.get() {
        kept.check(count as usize, payload.len())?;
        return Ok(EncodedBlock::with_samples(
            payload.into(),
            count,
            kept.samples.clone(),
        ));
    }
    let block = parse(payload, count)?;
    let _ = index.set(BlockIndex {
        count: count as usize,
        len: payload.len(),
        samples: block.sample_offsets().into(),
    });
    Ok(block)
}

impl<E: Delta + Clone + Send + Sync + 'static> BlockIo<E> for DeltaCodec {
    const CODEC_ID: u8 = 1;
    const CODEC_NAME: &'static str = "delta";

    fn write_block(block: &Self::Block, out: &mut Vec<u8>) {
        write_encoded_block(block, out);
    }

    fn read_block(buf: &[u8], pos: &mut usize) -> Result<Self::Block, BlockIoError> {
        let (count, payload) = read_encoded_frame(buf, pos)?;
        chain::parse::<E>(payload, count)
    }

    fn read_block_indexed(
        buf: &[u8],
        pos: &mut usize,
        index: &OnceLock<BlockIndex>,
    ) -> Result<Self::Block, BlockIoError> {
        read_encoded_indexed(buf, pos, index, chain::parse::<E>)
    }
}

impl<E: GammaKey + Clone + Send + Sync + 'static> BlockIo<E> for GammaCodec {
    const CODEC_ID: u8 = 2;
    const CODEC_NAME: &'static str = "gamma";

    fn write_block(block: &Self::Block, out: &mut Vec<u8>) {
        write_encoded_block(block, out);
    }

    fn read_block(buf: &[u8], pos: &mut usize) -> Result<Self::Block, BlockIoError> {
        let (count, payload) = read_encoded_frame(buf, pos)?;
        parse_gamma(payload, count)
    }

    fn read_block_indexed(
        buf: &[u8],
        pos: &mut usize,
        index: &OnceLock<BlockIndex>,
    ) -> Result<Self::Block, BlockIoError> {
        read_encoded_indexed(buf, pos, index, parse_gamma)
    }
}

/// Checks that `payload` holds exactly `count` gamma codes and keeps it
/// as a block.
fn parse_gamma(payload: &[u8], count: u32) -> Result<EncodedBlock, BlockIoError> {
    let mut r = BitReader::new(payload);
    for _ in 0..count {
        r.try_read_gamma0().ok_or(BlockIoError::Malformed(
            "gamma block code truncated or malformed",
        ))?;
    }
    if r.bytes_read() != payload.len() {
        return Err(BlockIoError::Malformed(
            "gamma block payload length mismatch",
        ));
    }
    Ok(EncodedBlock::from_parts(payload.into(), count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_read_roundtrips_every_impl() {
        fn roundtrip<T: ByteEncode + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.write(&mut buf);
            let mut pos = 0;
            assert_eq!(T::try_read(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(i8::MIN);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip((7u64, -3i32));
        roundtrip(());
        roundtrip(String::from("påç-trees"));
        roundtrip(1.5f32);
        roundtrip(-2.25f64);
        roundtrip(vec![(1u64, String::from("a")), (300, String::new())]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(u64::MAX));
        roundtrip(None::<u64>);
    }

    #[test]
    fn try_read_rejects_what_read_would_panic_on() {
        // Truncated varint.
        let mut pos = 0;
        assert_eq!(u64::try_read(&[0x80], &mut pos), None);
        // Value outside the narrow type's domain (read would silently
        // truncate `300 as u8`).
        let mut buf = Vec::new();
        bytecode::write_varint(300, &mut buf);
        let mut pos = 0;
        assert_eq!(u8::try_read(&buf, &mut pos), None);
        // String whose length runs past the buffer, including a length
        // crafted to wrap a 32-bit usize (1 << 33).
        for len in [10u64, 1 << 33] {
            let mut buf = Vec::new();
            bytecode::write_varint(len, &mut buf);
            buf.extend_from_slice(b"abc");
            let mut pos = 0;
            assert_eq!(String::try_read(&buf, &mut pos), None, "len {len}");
        }
        // Invalid UTF-8.
        let mut buf = Vec::new();
        bytecode::write_varint(2, &mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut pos = 0;
        assert_eq!(String::try_read(&buf, &mut pos), None);
        // Truncated fixed-width floats.
        let mut pos = 0;
        assert_eq!(f32::try_read(&[0, 0, 0], &mut pos), None);
        let mut pos = 0;
        assert_eq!(f64::try_read(&[0; 7], &mut pos), None);
        // Truncated second element of a pair.
        let mut buf = Vec::new();
        7u64.write(&mut buf);
        let mut pos = 0;
        assert_eq!(<(u64, f64)>::try_read(&buf, &mut pos), None);
        // A list count equal to the bytes left whose items then run out,
        // and a count one past them.
        for (count, items) in [(2u64, [1u8, 0x80]), (3, [1, 2])] {
            let mut buf = Vec::new();
            bytecode::write_varint(count, &mut buf);
            buf.extend_from_slice(&items);
            let mut pos = 0;
            assert_eq!(Vec::<u64>::try_read(&buf, &mut pos), None, "count {count}");
        }
        // An option flag other than 0 or 1.
        assert_eq!(Option::<u64>::try_read(&[2, 7], &mut 0), None);
    }

    #[test]
    fn raw_codec_roundtrip() {
        let entries: Vec<(u64, u64)> = (0..100).map(|i| (i, i * 2)).collect();
        let block = <RawCodec as Codec<(u64, u64)>>::encode(&entries);
        assert_eq!(<RawCodec as Codec<(u64, u64)>>::len(&block), 100);
        let mut out = Vec::new();
        <RawCodec as Codec<(u64, u64)>>::decode(&block, &mut out);
        assert_eq!(out, entries);
    }

    #[test]
    fn delta_codec_roundtrip_sorted_keys() {
        let entries: Vec<u64> = (0..500).map(|i| 10_000 + i * 7).collect();
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        let mut out = Vec::new();
        <DeltaCodec as Codec<u64>>::decode(&block, &mut out);
        assert_eq!(out, entries);
        // Gaps of 7 need one byte each; the 7 restarts add a few stream
        // bytes (absolute keys) plus 4 sample bytes apiece.
        assert_eq!(block.sample_offsets().len(), 499 / RESTART_INTERVAL);
        assert!(<DeltaCodec as Codec<u64>>::heap_bytes(&block) < 500 + 8 + 7 * 8);
    }

    #[test]
    fn delta_codec_roundtrip_unsorted_and_extremes() {
        let entries: Vec<u64> = vec![u64::MAX, 0, 42, u64::MAX / 2, 1, 1, 0];
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        let mut out = Vec::new();
        <DeltaCodec as Codec<u64>>::decode(&block, &mut out);
        assert_eq!(out, entries);
    }

    #[test]
    fn delta_codec_pairs_with_values() {
        let entries: Vec<(u64, u32)> = (0..300).map(|i| (i * 3, (i % 17) as u32)).collect();
        let block = <DeltaCodec as Codec<(u64, u32)>>::encode(&entries);
        let mut out = Vec::new();
        <DeltaCodec as Codec<(u64, u32)>>::decode(&block, &mut out);
        assert_eq!(out, entries);
    }

    #[test]
    fn delta_for_each_matches_decode() {
        let entries: Vec<u64> = (0..100).map(|i| i * i).collect();
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        let mut seen = Vec::new();
        <DeltaCodec as Codec<u64>>::for_each(&block, &mut |e| seen.push(*e));
        assert_eq!(seen, entries);
    }

    #[test]
    fn gamma_codec_roundtrip() {
        let entries: Vec<u64> = (0..400).map(|i| 5_000 + i * 2).collect();
        // A first key of `u64::MAX` and a gap of 2⁶³ are both stored as
        // gamma(2⁶⁴), the top of the code's domain.
        for entries in [entries, vec![u64::MAX], vec![0, 1 << 63]] {
            let block = <GammaCodec as Codec<u64>>::encode(&entries);
            let mut out = Vec::new();
            <GammaCodec as Codec<u64>>::decode(&block, &mut out);
            assert_eq!(out, entries);
            let mut cur = <GammaCodec as Codec<u64>>::cursor(&block);
            let mut seen = Vec::new();
            while let Some(e) = cur.peek() {
                seen.push(*e);
                cur.advance();
            }
            assert_eq!(seen, entries);
            let mut visited = Vec::new();
            <GammaCodec as Codec<u64>>::for_each(&block, &mut |e| visited.push(*e));
            assert_eq!(visited, entries);
            let mut frame = Vec::new();
            <GammaCodec as BlockIo<u64>>::write_block(&block, &mut frame);
            let mut pos = 0;
            let back = <GammaCodec as BlockIo<u64>>::read_block(&frame, &mut pos).unwrap();
            assert_eq!((back, pos), (block, frame.len()));
        }
    }

    #[test]
    fn gamma_beats_bytes_on_unit_gaps() {
        // Dense runs: gaps of 1 cost ~3 bits in gamma vs 1 byte in DE.
        let entries: Vec<u64> = (0..4096).collect();
        let g = <GammaCodec as Codec<u64>>::encode(&entries);
        let d = <DeltaCodec as Codec<u64>>::encode(&entries);
        assert!(
            <GammaCodec as Codec<u64>>::heap_bytes(&g) < <DeltaCodec as Codec<u64>>::heap_bytes(&d),
            "gamma {} vs delta {}",
            <GammaCodec as Codec<u64>>::heap_bytes(&g),
            <DeltaCodec as Codec<u64>>::heap_bytes(&d)
        );
    }

    #[test]
    fn empty_blocks() {
        let e: Vec<u64> = vec![];
        let r = <RawCodec as Codec<u64>>::encode(&e);
        let d = <DeltaCodec as Codec<u64>>::encode(&e);
        let g = <GammaCodec as Codec<u64>>::encode(&e);
        assert!(<RawCodec as Codec<u64>>::is_empty(&r));
        assert!(<DeltaCodec as Codec<u64>>::is_empty(&d));
        assert!(<GammaCodec as Codec<u64>>::is_empty(&g));
        let mut out: Vec<u64> = Vec::new();
        <DeltaCodec as Codec<u64>>::decode(&d, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn block_io_roundtrips_delta_verbatim() {
        let entries: Vec<u64> = (0..300).map(|i| 7_000 + 11 * i).collect();
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        let mut out = Vec::new();
        <DeltaCodec as BlockIo<u64>>::write_block(&block, &mut out);
        let mut pos = 0;
        let back = <DeltaCodec as BlockIo<u64>>::read_block(&out, &mut pos).unwrap();
        assert_eq!(pos, out.len());
        // Verbatim copy: same compressed bytes, same space accounting.
        assert_eq!(back.bytes(), block.bytes());
        assert_eq!(back.count(), block.count());
        assert_eq!(
            <DeltaCodec as Codec<u64>>::heap_bytes(&back),
            <DeltaCodec as Codec<u64>>::heap_bytes(&block)
        );
    }

    #[test]
    fn block_io_roundtrips_raw_pairs() {
        let entries: Vec<(u64, u32)> = (0..97).map(|i| (i * 5, (i % 13) as u32)).collect();
        let block = <RawCodec as Codec<(u64, u32)>>::encode(&entries);
        let mut out = Vec::new();
        <RawCodec as BlockIo<(u64, u32)>>::write_block(&block, &mut out);
        let mut pos = 0;
        let back = <RawCodec as BlockIo<(u64, u32)>>::read_block(&out, &mut pos).unwrap();
        assert_eq!(&back[..], &entries[..]);
    }

    #[test]
    fn block_io_rejects_truncation() {
        let entries: Vec<u64> = (0..64).collect();
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        let mut out = Vec::new();
        <DeltaCodec as BlockIo<u64>>::write_block(&block, &mut out);
        for cut in 0..out.len() {
            let mut pos = 0;
            assert!(
                <DeltaCodec as BlockIo<u64>>::read_block(&out[..cut], &mut pos).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn block_io_rejects_impossible_raw_count() {
        // A frame claiming more entries than payload bytes must be a
        // typed error, not a panic inside entry decoding.
        let mut frame = Vec::new();
        bytecode::write_varint(1000, &mut frame); // count
        bytecode::write_varint(4, &mut frame); // payload length
        frame.extend_from_slice(&[1, 2, 3, 4]);
        let mut pos = 0;
        assert!(matches!(
            <RawCodec as BlockIo<u64>>::read_block(&frame, &mut pos),
            Err(BlockIoError::Malformed(_))
        ));
    }

    /// Block sizes around the restart grid: empty, one entry, a table
    /// that is empty, that ends exactly at a restart, and that ends one
    /// entry after one.
    const INDEX_SIZES: [u64; 10] = [0, 1, 63, 64, 65, 128, 129, 192, 193, 256];

    /// The frame `BlockIo` writes for `entries`.
    fn framed<E, C: BlockIo<E>>(entries: &[E]) -> Vec<u8> {
        let mut out = Vec::new();
        C::write_block(&C::encode(entries), &mut out);
        out
    }

    /// Reads `frame` through an empty index (the parse) and twice more
    /// through the index that read filled: every read equals
    /// `read_block` of the same bytes and consumes the whole frame.
    fn rereads_match<E, C>(frame: &[u8])
    where
        C: BlockIo<E>,
        C::Block: PartialEq + std::fmt::Debug,
    {
        let parsed = C::read_block(frame, &mut 0).unwrap();
        let index = OnceLock::new();
        for read in 0..3 {
            let mut pos = 0;
            let back = C::read_block_indexed(frame, &mut pos, &index).unwrap();
            assert_eq!(back, parsed, "read {read}");
            assert_eq!(pos, frame.len(), "read {read}");
            assert!(index.get().is_some());
        }
    }

    #[test]
    fn block_io_indexed_rereads_equal_a_parse() {
        for n in INDEX_SIZES {
            let pairs: Vec<(u64, u64)> = (0..n).map(|i| (5 + 9 * i, i * i)).collect();
            let keys: Vec<u64> = pairs.iter().map(|e| e.0).collect();
            rereads_match::<(u64, u64), RawCodec>(&framed::<_, RawCodec>(&pairs));
            rereads_match::<(u64, u64), DeltaCodec>(&framed::<_, DeltaCodec>(&pairs));
            rereads_match::<u64, DeltaCodec>(&framed::<_, DeltaCodec>(&keys));
            rereads_match::<u64, GammaCodec>(&framed::<_, GammaCodec>(&keys));
        }
    }

    /// Every frame of `frames` read with an index parsed from another
    /// one, and every strict cut of the frame the index came from, is a
    /// typed error.
    fn mismatched_indexes_are_refused<E, C: BlockIo<E>>(frames: &[Vec<u8>]) {
        for (i, own) in frames.iter().enumerate() {
            let index = OnceLock::new();
            C::read_block_indexed(own, &mut 0, &index).unwrap();
            for (j, other) in frames.iter().enumerate().filter(|&(j, _)| j != i) {
                assert!(
                    matches!(
                        C::read_block_indexed(other, &mut 0, &index),
                        Err(BlockIoError::Malformed(_))
                    ),
                    "frame {j} read with frame {i}'s index"
                );
            }
            for cut in 0..own.len() {
                assert!(
                    matches!(
                        C::read_block_indexed(&own[..cut], &mut 0, &index),
                        Err(BlockIoError::Malformed(_) | BlockIoError::Truncated)
                    ),
                    "frame {i} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn block_io_mismatched_index_is_a_typed_error() {
        // Sizes whose frames differ in count or payload length, plus a
        // frame of the same count but wider gaps (another payload length).
        let blocks: Vec<Vec<(u64, u64)>> = [(65, 1), (129, 1), (129, 1_000), (193, 1)]
            .iter()
            .map(|&(n, gap)| (0..n).map(|i| (gap * i, i)).collect())
            .collect();
        let frames =
            |f: fn(&[(u64, u64)]) -> Vec<u8>| blocks.iter().map(|b| f(b)).collect::<Vec<_>>();
        mismatched_indexes_are_refused::<(u64, u64), RawCodec>(&frames(framed::<_, RawCodec>));
        mismatched_indexes_are_refused::<(u64, u64), DeltaCodec>(&frames(framed::<_, DeltaCodec>));
        let keys: Vec<Vec<u8>> = blocks
            .iter()
            .map(|b| framed::<_, GammaCodec>(&b.iter().map(|e| e.0).collect::<Vec<u64>>()))
            .collect();
        mismatched_indexes_are_refused::<u64, GammaCodec>(&keys);
    }

    /// `count`, then `payload`, framed as `BlockIo` writes it.
    fn frame(count: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        bytecode::write_varint(count, &mut out);
        bytecode::write_varint(payload.len() as u64, &mut out);
        out.extend_from_slice(payload);
        out
    }

    fn refused<E, C: BlockIo<E>>(frame: &[u8]) -> bool {
        let mut pos = 0;
        matches!(
            C::read_block(frame, &mut pos),
            Err(BlockIoError::Malformed(_) | BlockIoError::Truncated)
        )
    }

    #[test]
    fn block_io_refuses_hostile_entry_bytes_without_panicking() {
        // A count over the payload, a final varint cut short, and a
        // fixed-width value cut short: each frame is well formed, the
        // entries inside are not.
        assert!(refused::<u64, DeltaCodec>(&frame(200, &[0x01])));
        assert!(refused::<(u64, u64), DeltaCodec>(&frame(
            2,
            &[0x05, 0x07, 0x80]
        )));
        assert!(refused::<(u64, f64), DeltaCodec>(&frame(
            1,
            &[0x05, 1, 2, 3]
        )));
        assert!(refused::<(u64, u64), RawCodec>(&frame(
            2,
            &[0x05, 0x07, 0x80]
        )));
        assert!(refused::<(u64, f64), RawCodec>(&frame(1, &[0x05, 1, 2, 3])));
        // Gamma counts over the codes in the payload, and a code whose
        // zero run is longer than any u64 code's.
        assert!(refused::<u64, GammaCodec>(&frame(5, &[])));
        assert!(refused::<u64, GammaCodec>(&frame(9, &[0xFF])));
        assert!(refused::<u64, GammaCodec>(&frame(1, &[0; 9])));

        // Every strict truncation of a valid 200-entry block: of the
        // frame (the header then promises bytes that are not there) and
        // of the payload under the original count.
        let entries: Vec<(u64, f64)> = (0..200).map(|i| (1_000 + 3 * i, i as f64 / 7.0)).collect();
        let delta = <DeltaCodec as Codec<(u64, f64)>>::encode(&entries);
        let raw = <RawCodec as Codec<(u64, f64)>>::encode(&entries);
        let mut delta_frame = Vec::new();
        <DeltaCodec as BlockIo<(u64, f64)>>::write_block(&delta, &mut delta_frame);
        let mut raw_frame = Vec::new();
        <RawCodec as BlockIo<(u64, f64)>>::write_block(&raw, &mut raw_frame);
        for cut in 0..delta_frame.len() {
            assert!(
                refused::<(u64, f64), DeltaCodec>(&delta_frame[..cut]),
                "frame cut {cut}"
            );
        }
        for cut in 0..raw_frame.len() {
            assert!(
                refused::<(u64, f64), RawCodec>(&raw_frame[..cut]),
                "frame cut {cut}"
            );
        }
        for cut in 0..delta.bytes().len() {
            let f = frame(200, &delta.bytes()[..cut]);
            assert!(refused::<(u64, f64), DeltaCodec>(&f), "payload cut {cut}");
        }
        let mut raw_payload = Vec::new();
        for e in raw.iter() {
            e.write(&mut raw_payload);
        }
        for cut in 0..raw_payload.len() {
            let f = frame(200, &raw_payload[..cut]);
            assert!(refused::<(u64, f64), RawCodec>(&f), "payload cut {cut}");
        }
        let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let gamma = <GammaCodec as Codec<u64>>::encode(&keys);
        let mut gamma_frame = Vec::new();
        <GammaCodec as BlockIo<u64>>::write_block(&gamma, &mut gamma_frame);
        assert!(!refused::<u64, GammaCodec>(&gamma_frame));
        for cut in 0..gamma_frame.len() {
            assert!(
                refused::<u64, GammaCodec>(&gamma_frame[..cut]),
                "frame cut {cut}"
            );
        }
        for cut in 0..gamma.bytes().len() {
            let f = frame(200, &gamma.bytes()[..cut]);
            assert!(refused::<u64, GammaCodec>(&f), "payload cut {cut}");
        }
        let mut padded = gamma.bytes().to_vec();
        padded.push(0);
        assert!(refused::<u64, GammaCodec>(&frame(200, &padded)));
    }

    #[test]
    fn try_read_delta_matches_read_delta() {
        let entries: Vec<(u32, u64)> = vec![(7, 1), (3, u64::MAX), (u32::MAX, 0), (0, 5)];
        let mut buf = Vec::new();
        entries[0].write_first(&mut buf);
        for w in entries.windows(2) {
            w[1].write_delta(&w[0], &mut buf);
        }
        let mut pos = 0;
        let mut prev = <(u32, u64)>::try_read_first(&buf, &mut pos).unwrap();
        assert_eq!(prev, entries[0]);
        for e in &entries[1..] {
            prev = <(u32, u64)>::try_read_delta(&buf, &mut pos, &prev).unwrap();
            assert_eq!(prev, *e);
        }
        assert_eq!(pos, buf.len());
        // An absolute key outside the narrow type is refused, not cut.
        let mut wide = Vec::new();
        bytecode::write_varint(u64::from(u32::MAX) + 1, &mut wide);
        assert_eq!(u32::try_read_first(&wide, &mut 0), None);
    }

    #[test]
    fn byte_encode_string_and_tuple_roundtrip() {
        let mut buf = Vec::new();
        ("hello".to_string(), 42u64).write(&mut buf);
        let mut pos = 0;
        let back = <(String, u64) as ByteEncode>::try_read(&buf, &mut pos).unwrap();
        assert_eq!(back, ("hello".to_string(), 42));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn delta_space_matches_theorem_shape() {
        // Theorem 4.2: block space = s(E) + O(1) extra for the first
        // entry. For gap-1 u64 keys, s(E) ~ 1 byte per entry. The pure
        // bound holds for blocks within one restart run ...
        let entries: Vec<u64> = (1_000_000..1_000_000 + RESTART_INTERVAL as u64).collect();
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        let per_entry =
            <DeltaCodec as Codec<u64>>::heap_bytes(&block) as f64 / entries.len() as f64;
        assert!(per_entry < 1.05, "per-entry bytes {per_entry}");

        // ... and larger blocks pay a bounded extra per restart (one
        // absolute key + a 4-byte sample offset per RESTART_INTERVAL
        // entries), keeping the amortized cost ~1 byte.
        let entries: Vec<u64> = (1_000_000..1_002_000).collect();
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        let per_entry =
            <DeltaCodec as Codec<u64>>::heap_bytes(&block) as f64 / entries.len() as f64;
        assert!(per_entry < 1.15, "per-entry bytes {per_entry}");
    }

    #[test]
    fn delta_cursor_and_for_each_match_decode_across_restarts() {
        for n in [0usize, 1, 63, 64, 65, 128, 200, 256, 1000] {
            let entries: Vec<u64> = (0..n as u64).map(|i| i * i).collect();
            let block = <DeltaCodec as Codec<u64>>::encode(&entries);
            let mut out = Vec::new();
            <DeltaCodec as Codec<u64>>::decode(&block, &mut out);
            assert_eq!(out, entries, "decode at n = {n}");
            let mut cur = <DeltaCodec as Codec<u64>>::cursor(&block);
            let mut seen = Vec::new();
            while let Some(e) = cur.peek() {
                seen.push(*e);
                cur.advance();
            }
            assert_eq!(seen, entries, "cursor at n = {n}");
        }
    }

    #[test]
    fn delta_get_and_cursor_at_match_index() {
        let entries: Vec<u64> = (0..300).map(|i| 5 * i + 1).collect();
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(<DeltaCodec as Codec<u64>>::get(&block, i), *e);
            let cur = <DeltaCodec as Codec<u64>>::cursor_at(&block, i);
            assert_eq!(cur.peek(), Some(e));
        }
        let cur = <DeltaCodec as Codec<u64>>::cursor_at(&block, entries.len());
        assert!(cur.peek().is_none());
    }

    #[test]
    fn search_by_matches_slice_binary_search() {
        let entries: Vec<u64> = (0..500).map(|i| 3 * i).collect();
        let raw = <RawCodec as Codec<u64>>::encode(&entries);
        let delta = <DeltaCodec as Codec<u64>>::encode(&entries);
        for probe in 0..1_550u64 {
            let want = entries.binary_search(&probe).map(|i| (i, entries[i]));
            assert_eq!(
                <RawCodec as Codec<u64>>::search_by(&raw, |e| e.cmp(&probe)),
                want,
                "raw probe {probe}"
            );
            assert_eq!(
                <DeltaCodec as Codec<u64>>::search_by(&delta, |e| e.cmp(&probe)),
                want,
                "delta probe {probe}"
            );
        }
    }

    thread_local! {
        /// Entries decoded by [`Tally`] on this thread.
        static DECODED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A `u64` that counts its decodes.
    #[derive(Debug, Clone, PartialEq)]
    struct Tally(u64);

    impl Delta for Tally {
        fn write_first(&self, out: &mut Vec<u8>) {
            self.0.write_first(out);
        }
        fn write_delta(&self, prev: &Self, out: &mut Vec<u8>) {
            self.0.write_delta(&prev.0, out);
        }
        fn try_read_first(buf: &[u8], pos: &mut usize) -> Option<Self> {
            DECODED.with(|d| d.set(d.get() + 1));
            u64::try_read_first(buf, pos).map(Tally)
        }
        fn try_read_delta(buf: &[u8], pos: &mut usize, prev: &Self) -> Option<Self> {
            DECODED.with(|d| d.set(d.get() + 1));
            u64::try_read_delta(buf, pos, &prev.0).map(Tally)
        }
    }

    #[test]
    fn a_seek_decodes_its_run_once() {
        // Restarts at 64, 128 and 192: the probe decodes at most two.
        let entries: Vec<Tally> = (0..256).map(|i| Tally(3 * i)).collect();
        let block = <DeltaCodec as Codec<Tally>>::encode(&entries);
        for target in [
            0u64,
            1,
            3 * 63,
            3 * 64 - 1,
            3 * 64,
            3 * 100,
            3 * 100 + 1,
            3 * 255,
            1_000,
        ] {
            DECODED.with(|d| d.set(0));
            let (i, cur) = <DeltaCodec as Codec<Tally>>::seek_by(&block, |e| e.0.cmp(&target));
            let decoded = DECODED.with(|d| d.get());
            assert_eq!(
                i,
                entries.partition_point(|e| e.0 < target),
                "target {target}"
            );
            assert_eq!(cur.peek(), entries.get(i), "target {target}");
            // The probe, then the run that holds the target, from its
            // restart (the target itself on a hit) up to entry `i`.
            let hit = cur.peek().is_some_and(|e| e.0 == target);
            let start = match i {
                0 => 0,
                _ if hit && i % RESTART_INTERVAL == 0 => i,
                _ => (i - 1) / RESTART_INTERVAL * RESTART_INTERVAL,
            };
            let run = i - start + usize::from(i < entries.len());
            assert!(
                decoded <= run + 2,
                "target {target}: {decoded} decodes for a run of {run}"
            );
        }
    }

    #[test]
    fn key_delta_cursor_get_and_search() {
        let entries: Vec<(u64, u32)> = (0..200).map(|i| (4 * i, (i % 19) as u32)).collect();
        let block = <KeyDeltaCodec as Codec<(u64, u32)>>::encode(&entries);
        let mut cur = <KeyDeltaCodec as Codec<(u64, u32)>>::cursor(&block);
        let mut seen = Vec::new();
        while let Some(e) = cur.peek() {
            seen.push(*e);
            cur.advance();
        }
        assert_eq!(seen, entries);
        for i in [0usize, 1, 63, 64, 65, 150, 199] {
            assert_eq!(
                <KeyDeltaCodec as Codec<(u64, u32)>>::get(&block, i),
                entries[i]
            );
        }
        for probe in 0..810u64 {
            let want = entries
                .binary_search_by(|e| e.0.cmp(&probe))
                .map(|i| (i, entries[i]));
            assert_eq!(
                <KeyDeltaCodec as Codec<(u64, u32)>>::search_by(&block, |e| e.0.cmp(&probe)),
                want,
                "probe {probe}"
            );
        }
    }

    #[test]
    fn gamma_cursor_matches_decode() {
        let entries: Vec<u64> = (0..300).map(|i| 2 * i).collect();
        let block = <GammaCodec as Codec<u64>>::encode(&entries);
        let mut cur = <GammaCodec as Codec<u64>>::cursor(&block);
        let mut seen = Vec::new();
        while let Some(e) = cur.peek() {
            seen.push(*e);
            cur.advance();
        }
        assert_eq!(seen, entries);
        // Defaults (sequential over the cursor) on a codec without
        // random access or samples.
        assert_eq!(<GammaCodec as Codec<u64>>::get(&block, 123), entries[123]);
        assert_eq!(
            <GammaCodec as Codec<u64>>::search_by(&block, |e| e.cmp(&444)),
            Ok((222, 444))
        );
        assert_eq!(
            <GammaCodec as Codec<u64>>::search_by(&block, |e| e.cmp(&443)),
            Err(222)
        );
    }

    #[test]
    fn block_io_rebuilds_delta_samples() {
        let entries: Vec<u64> = (0..333).map(|i| 9 * i).collect();
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        assert!(!block.sample_offsets().is_empty());
        let mut out = Vec::new();
        <DeltaCodec as BlockIo<u64>>::write_block(&block, &mut out);
        let mut pos = 0;
        let back = <DeltaCodec as BlockIo<u64>>::read_block(&out, &mut pos).unwrap();
        assert_eq!(back.sample_offsets(), block.sample_offsets());
        assert_eq!(back, block);
    }
}
