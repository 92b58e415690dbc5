//! The restart-coded delta stream: [`DeltaCodec`]'s blocks and
//! [`KeyDeltaCodec`]'s keys.
//!
//! Entry `i` of a stream is written whole ([`Delta::write_first`]) when
//! `i` is a multiple of [`RESTART_INTERVAL`], and relative to entry
//! `i - 1` ([`Delta::write_delta`]) otherwise. [`EncodedBlock`]'s sample
//! table holds the byte offset of every restart after the first. This
//! module is the only code that knows that rule: the writer, the reader
//! (which is the cursor), the sorted seek, the `for_each` loop, the
//! fallible parse behind `BlockIo`, and the splice are all here.
//!
//! [`DeltaCodec`]: crate::DeltaCodec
//! [`KeyDeltaCodec`]: crate::KeyDeltaCodec

use std::cmp::Ordering;
use std::ops::Range;

use crate::{skip_less, BlockCursor, BlockIoError, Delta};

/// Restart/sample interval for seekable compressed blocks.
///
/// [`DeltaCodec`](crate::DeltaCodec) and
/// [`KeyDeltaCodec`](crate::KeyDeltaCodec) write every
/// `RESTART_INTERVAL`-th entry *absolute* (with [`Delta::write_first`])
/// instead of relative to its predecessor, and record the byte offset of
/// each such restart in [`EncodedBlock`]'s sample table. Point accesses
/// ([`Codec::get`], [`Codec::seek_by`], [`Codec::cursor_at`]) binary
/// search the samples and then delta-decode at most one run, so seeking
/// skips most of the block instead of decoding it from the front.
///
/// The interval trades seek work (`O(RESTART_INTERVAL)` after the sample
/// search) against space: each restart costs a few extra stream bytes
/// (an absolute key instead of a one-byte delta) plus 4 bytes of sample
/// offset. At 64, blocks of at most 64 entries — everything up to
/// `B = 32` — are byte-identical to the pure delta chain and pay nothing.
///
/// [`Codec::get`]: crate::Codec::get
/// [`Codec::seek_by`]: crate::Codec::seek_by
/// [`Codec::cursor_at`]: crate::Codec::cursor_at
pub const RESTART_INTERVAL: usize = 64;

/// True when entry `i` of a stream is written whole.
#[inline]
fn is_restart(i: usize) -> bool {
    i.is_multiple_of(RESTART_INTERVAL)
}

/// The first restart after entry `i`.
fn next_restart(i: usize) -> usize {
    (i / RESTART_INTERVAL + 1) * RESTART_INTERVAL
}

/// A compressed block: packed bytes plus the entry count, and (for the
/// restart-coded byte codecs) the sample table of restart offsets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EncodedBlock {
    bytes: Box<[u8]>,
    count: u32,
    /// `samples[j]` is the byte offset of entry `(j + 1) *
    /// RESTART_INTERVAL`, which the codec wrote *absolute* so decoding
    /// can resume there without the preceding chain. Complete for every
    /// delta stream; empty for blocks of at most [`RESTART_INTERVAL`]
    /// entries and for codecs without restarts
    /// ([`GammaCodec`](crate::GammaCodec)).
    samples: Box<[u32]>,
}

impl EncodedBlock {
    /// The packed encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of entries encoded.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Byte offsets of the restart entries (see [`RESTART_INTERVAL`]).
    pub fn sample_offsets(&self) -> &[u32] {
        &self.samples
    }

    /// A block with no restarts: `count` entries packed in `bytes` and
    /// an empty sample table. Only [`GammaCodec`](crate::GammaCodec)'s
    /// bit-granular blocks are built this way; a delta stream always
    /// comes out of this module's writer or parse, with its table, or
    /// is rebuilt with the table that parse kept
    /// ([`with_samples`](Self::with_samples)).
    pub(crate) fn from_parts(bytes: Box<[u8]>, count: u32) -> Self {
        EncodedBlock {
            bytes,
            count,
            samples: Box::default(),
        }
    }

    /// `bytes` with the restart table `samples` an earlier parse of the
    /// same bytes derived ([`BlockIndex`](crate::BlockIndex)).
    pub(crate) fn with_samples(bytes: Box<[u8]>, count: u32, samples: Box<[u32]>) -> Self {
        EncodedBlock {
            bytes,
            count,
            samples,
        }
    }

    /// Heap bytes of the stream and its sample table.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.len() + std::mem::size_of_val::<[u32]>(&self.samples)
    }

    /// Byte offset of entry `i`, which is a restart or the end.
    fn offset(&self, i: usize) -> usize {
        if i >= self.count() {
            self.bytes.len()
        } else if i == 0 {
            0
        } else {
            self.samples[i / RESTART_INTERVAL - 1] as usize
        }
    }
}

/// Builds a stream entry by entry: each entry is either written afresh
/// ([`push`](Writer::push)) or copied as the bytes an existing stream,
/// `src`, already holds for it ([`copy`](Writer::copy)). Consecutive
/// copies are made in one piece: the stream is `bytes` followed by
/// `src[pending]`.
struct Writer<'a> {
    src: &'a [u8],
    src_samples: &'a [u32],
    bytes: Vec<u8>,
    samples: Vec<u32>,
    count: usize,
    pending: Range<usize>,
}

impl<'a> Writer<'a> {
    fn new(src: &'a [u8], src_samples: &'a [u32], bytes: usize, entries: usize) -> Self {
        Writer {
            src,
            src_samples,
            bytes: Vec::with_capacity(bytes),
            samples: Vec::with_capacity(entries / RESTART_INTERVAL),
            count: 0,
            pending: 0..0,
        }
    }

    /// Length of the stream so far.
    fn len(&self) -> usize {
        self.bytes.len() + self.pending.len()
    }

    /// Makes the pending copy, so that `bytes` is the stream.
    fn flush(&mut self) {
        self.bytes
            .extend_from_slice(&self.src[self.pending.clone()]);
        self.pending.start = self.pending.end;
    }

    /// Writes `e` as the next entry: whole at a restart, otherwise
    /// relative to `prev`, the entry before it.
    #[inline]
    fn push<E: Delta>(&mut self, e: &E, prev: Option<&E>) {
        if !self.pending.is_empty() {
            self.flush();
        }
        if is_restart(self.count) {
            if self.count > 0 {
                self.samples.push(self.bytes.len() as u32);
            }
            e.write_first(&mut self.bytes);
        } else {
            e.write_delta(prev.expect("delta without predecessor"), &mut self.bytes);
        }
        self.count += 1;
    }

    /// Appends entries `i..i + n` of `src`, held in its bytes `at`, as
    /// the next `n` entries, verbatim. Each restart of either stream
    /// among them must be a restart of both, so the bytes are what
    /// [`push`](Writer::push) would write; their samples move by the
    /// distance between the two streams' positions.
    fn copy(&mut self, i: usize, n: usize, at: Range<usize>) {
        if at.start != self.pending.end {
            self.flush();
            self.pending = at.start..at.start;
        }
        let shift = self.len() as i64 - at.start as i64;
        let j = self.count;
        let first = j.div_ceil(RESTART_INTERVAL).max(1) * RESTART_INTERVAL;
        for k in (first..j + n).step_by(RESTART_INTERVAL) {
            let old = i + k - j;
            debug_assert!(is_restart(old), "copied restart {k} was old entry {old}");
            // Entry `i` starts at `at.start`, which is no sample when it
            // is the old stream's first entry.
            let off = if k == j {
                at.start as i64
            } else {
                i64::from(self.src_samples[old / RESTART_INTERVAL - 1])
            };
            self.samples.push((off + shift) as u32);
        }
        self.pending.end = at.end;
        self.count += n;
    }

    fn finish(mut self) -> EncodedBlock {
        self.flush();
        EncodedBlock {
            bytes: self.bytes.into_boxed_slice(),
            count: self.count as u32,
            samples: self.samples.into_boxed_slice(),
        }
    }
}

/// Encodes `entries` as one stream, sample table included.
pub(crate) fn encode<'e, E: Delta + 'e>(
    entries: impl ExactSizeIterator<Item = &'e E>,
) -> EncodedBlock {
    let n = entries.len();
    let mut w = Writer::new(&[], &[], n * 2 + 8, n);
    let mut prev = None;
    for e in entries {
        w.push(e, prev);
        prev = Some(e);
    }
    w.finish()
}

/// Reads entry `i` at `*pos`, or `None` if its bytes are not one;
/// `prev` is entry `i - 1`, which a restart does not need. The one place
/// a stream is decoded: the parse calls it, every other reader through
/// [`read`].
#[inline]
fn try_read<E: Delta>(buf: &[u8], pos: &mut usize, i: usize, prev: Option<&E>) -> Option<E> {
    if is_restart(i) {
        E::try_read_first(buf, pos)
    } else {
        E::try_read_delta(buf, pos, prev.expect("delta without predecessor"))
    }
}

/// [`try_read`] of a stream already known to parse.
#[inline]
fn read<E: Delta>(buf: &[u8], pos: &mut usize, i: usize, prev: Option<&E>) -> E {
    try_read(buf, pos, i, prev)
        .expect("every EncodedBlock comes from encode, splice or a checked parse")
}

/// The reader of a stream, and [`DeltaCodec`](crate::DeltaCodec)'s
/// cursor: it sits on one entry, holding only that entry, and decodes
/// the next on each [`advance`](BlockCursor::advance).
#[derive(Debug)]
pub struct DeltaCursor<'a, E> {
    buf: &'a [u8],
    /// Byte offset just past the current entry.
    pos: usize,
    idx: usize,
    count: usize,
    cur: Option<E>,
}

impl<'a, E: Delta> DeltaCursor<'a, E> {
    /// A cursor on entry `i` of `block` (exhausted when `i >= count`):
    /// it starts at the last restart not after `i` and decodes forward.
    pub(crate) fn at(block: &'a EncodedBlock, i: usize) -> Self {
        let count = block.count();
        let run = if i < count {
            i - i % RESTART_INTERVAL
        } else {
            count
        };
        let mut pos = block.offset(run);
        let cur = (run < count).then(|| read(&block.bytes, &mut pos, run, None));
        let mut c = DeltaCursor {
            buf: &block.bytes,
            pos,
            idx: run,
            count,
            cur,
        };
        for _ in run..i.min(count) {
            c.advance();
        }
        c
    }

    /// Index of the current entry (`count` once exhausted).
    pub(crate) fn index(&self) -> usize {
        self.idx
    }

    /// Moves past the current entry, returning it.
    fn step(&mut self) -> Option<E> {
        let prev = self.cur.take()?;
        self.idx += 1;
        if self.idx < self.count {
            self.cur = Some(read(self.buf, &mut self.pos, self.idx, Some(&prev)));
        }
        Some(prev)
    }
}

impl<E: Delta> BlockCursor<E> for DeltaCursor<'_, E> {
    #[inline]
    fn peek(&self) -> Option<&E> {
        self.cur.as_ref()
    }

    #[inline]
    fn advance(&mut self) {
        // Decode over the current entry in place: the Option stays
        // `Some` for the whole pass, so the hot loop never moves `E`
        // through a discriminant rewrite.
        let Some(prev) = self.cur.as_mut() else {
            return;
        };
        self.idx += 1;
        if self.idx >= self.count {
            self.cur = None;
            return;
        }
        *prev = read(self.buf, &mut self.pos, self.idx, Some(prev));
    }
}

/// Visits every entry of `block` in order.
pub(crate) fn for_each<E: Delta, F: FnMut(&E)>(block: &EncodedBlock, f: &mut F) {
    if block.count == 0 {
        return;
    }
    let buf = &block.bytes;
    let mut pos = 0;
    let mut prev = read(buf, &mut pos, 0, None);
    f(&prev);
    for i in 1..block.count() {
        let e = read(buf, &mut pos, i, Some(&prev));
        f(&e);
        prev = e;
    }
}

/// The restart probe of a sorted search: binary searches the restarts
/// after the first for the last one before `f`'s target. `entry(i, e)`
/// turns stream entry `e` at index `i` into what `f` compares. Returns
/// the restart that is the target, else the first entry of the run that
/// holds it (or would).
fn probe<E: Delta, T>(
    block: &EncodedBlock,
    entry: &mut impl FnMut(usize, E) -> T,
    f: &mut impl FnMut(&T) -> Ordering,
) -> usize {
    let (mut lo, mut hi) = (0usize, block.samples.len());
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let i = mid * RESTART_INTERVAL;
        let mut pos = block.samples[mid - 1] as usize;
        match f(&entry(i, read(&block.bytes, &mut pos, i, None))) {
            Ordering::Less => lo = mid,
            Ordering::Equal => return i,
            Ordering::Greater => hi = mid - 1,
        }
    }
    lo * RESTART_INTERVAL
}

/// [`Codec::seek_by`](crate::Codec::seek_by) over a stream sorted under
/// `f`: the restart probe, then the cursor `cursor(i)` opens on entry
/// `i` scans the run, each entry decoded once. `entry` is as in the
/// probe.
pub(crate) fn seek<E: Delta, T, C: BlockCursor<T>>(
    block: &EncodedBlock,
    mut entry: impl FnMut(usize, E) -> T,
    cursor: impl FnOnce(usize) -> C,
    f: &mut impl FnMut(&T) -> Ordering,
) -> (usize, C) {
    let i = probe(block, &mut entry, f);
    skip_less(cursor(i), i, f)
}

/// Parses `count` entries from `payload` into a block, re-deriving the
/// sample table, which is not serialized. Entries that do not parse, and
/// bytes left over after the last one, are a typed error.
pub(crate) fn parse<E: Delta>(payload: &[u8], count: u32) -> Result<EncodedBlock, BlockIoError> {
    const BAD_ENTRY: BlockIoError =
        BlockIoError::Malformed("delta block entry truncated or malformed");
    let n = count as usize;
    // Capped by the payload length: a hostile count must fail the parse
    // below, not size an allocation first.
    let mut samples = Vec::with_capacity(n.min(payload.len()) / RESTART_INTERVAL);
    let mut pos = 0;
    let mut prev: Option<E> = None;
    for i in 0..n {
        if i > 0 && is_restart(i) {
            samples.push(pos as u32);
        }
        prev = Some(try_read(payload, &mut pos, i, prev.as_ref()).ok_or(BAD_ENTRY)?);
    }
    if pos != payload.len() {
        return Err(BlockIoError::Malformed(
            "delta block payload length mismatch",
        ));
    }
    Ok(EncodedBlock {
        bytes: payload.into(),
        count,
        samples: samples.into_boxed_slice(),
    })
}

/// One splice in progress: a reader over the old stream, on old entry
/// `i = old.index()` (whose bytes start at `start`), and the new stream
/// written so far, `j = out.count` entries long. An old entry is copied
/// as bytes whenever they are what `encode` would write at its new
/// index, and re-encoded otherwise.
struct DeltaSplice<'a, E> {
    block: &'a EncodedBlock,
    old: DeltaCursor<'a, E>,
    start: usize,
    out: Writer<'a>,
    /// The last entry written; `None` only right after a [`skip_to`]
    /// lands on a restart, where no predecessor is needed.
    ///
    /// [`skip_to`]: DeltaSplice::skip_to
    last: Option<E>,
    /// Whether `last` is the old entry right before the reader's, i.e.
    /// that entry's old delta is still relative to the right predecessor.
    sync: bool,
}

impl<'a, E: Delta> DeltaSplice<'a, E> {
    fn new(block: &'a EncodedBlock, edits: usize) -> Self {
        DeltaSplice {
            block,
            old: DeltaCursor::at(block, 0),
            start: 0,
            out: Writer::new(
                &block.bytes,
                &block.samples,
                block.bytes.len() + 16 * edits + 16,
                block.count() + edits,
            ),
            last: None,
            sync: false,
        }
    }

    /// Moves the reader past its entry, returning it.
    fn advance(&mut self) -> E {
        self.start = self.old.pos;
        self.old.step().expect("splice reader exhausted")
    }

    /// True when every old entry from the reader's on would be copied as
    /// bytes at an unchanged index: the old and new streams are aligned.
    fn aligned(&self) -> bool {
        self.old.idx == self.out.count && (self.sync || is_restart(self.old.idx))
    }

    /// While [`aligned`](Self::aligned): copies old entries `i..to` (`to`
    /// a restart or the end) in one piece and reads on from `to`.
    fn skip_to(&mut self, to: usize) {
        let i = self.old.idx;
        let end = self.block.offset(to);
        self.out.copy(i, to - i, self.start..end);
        self.old = DeltaCursor::at(self.block, to);
        self.start = end;
        self.last = None;
        self.sync = false;
    }

    /// Writes `e` (not an old entry's bytes) as entry `j`.
    fn put(&mut self, e: E) {
        self.out.push(&e, self.last.as_ref());
        self.last = Some(e);
        self.sync = false;
    }

    /// Writes the reader's entry as entry `j` — its old bytes when both
    /// indices are restarts, or neither is and its predecessor is
    /// unchanged — and moves past it.
    fn keep(&mut self) {
        let (i, from) = (self.old.idx, self.start);
        let restart = is_restart(self.out.count);
        let copy = restart == is_restart(i) && (restart || self.sync);
        if !copy {
            let x = self.old.peek().expect("splice reader exhausted");
            self.out.push(x, self.last.as_ref());
        }
        self.last = Some(self.advance());
        if copy {
            self.out.copy(i, 1, from..self.start);
        }
        self.sync = true;
    }

    /// After [`keep`](Self::keep), copies on through the old entries
    /// whose bytes stand — none is a restart of either stream, each one's
    /// predecessor is the old one — while `go` accepts them, decoding
    /// each only to find where the next one starts. This is the bulk of
    /// every splice.
    fn copy_run(&mut self, mut go: impl FnMut(&E) -> bool) {
        let (i, j) = (self.old.idx, self.out.count);
        if is_restart(i) || is_restart(j) {
            return;
        }
        let stop = next_restart(i).min(i + next_restart(j) - j);
        let from = self.start;
        while self.old.idx < stop && self.old.peek().is_some_and(&mut go) {
            self.last = Some(self.advance());
        }
        self.out.copy(i, self.old.idx - i, from..self.start);
    }

    /// Moves past the reader's entry without writing it (it was removed
    /// or replaced).
    fn drop_cur(&mut self) {
        self.advance();
        self.sync = false;
    }
}

/// [`Codec::splice`](crate::Codec::splice) of a stream.
///
/// Copies the bytes before the run of the first edit (and the samples
/// below it) verbatim, writes the edited entries and the first old entry
/// after each — its predecessor changed — and then copies each old
/// entry's bytes unless its old or new index is a restart. Restarts sit
/// at fixed *indices*, so an edit that changes the entry count shifts
/// every later entry against them: the rest of the block is still
/// decoded (each entry's length is only known by reading it), and each
/// later restart costs two re-encoded entries — the one that stops being
/// absolute and the one that becomes so. Where the shift is back to zero
/// (an overwrite, or after a batch whose inserts and removes cancel) the
/// remainder is one `memcpy` with its samples rebased. An overwrite thus
/// re-encodes two entries, an insert or remove at index `p` at most
/// `2 + 2·⌈(len − p)/RESTART_INTERVAL⌉`.
pub(crate) fn splice<E: Delta, T>(
    block: &EncodedBlock,
    edits: &[T],
    mut cmp: impl FnMut(&E, &T) -> Ordering,
    mut apply: impl FnMut(Option<&E>, &T) -> Option<E>,
) -> EncodedBlock {
    let mut s = DeltaSplice::new(block, edits.len());
    // `(k, i)`: edit `k` lies in the run that starts at entry `i`.
    let mut run = (usize::MAX, 0);
    let mut k = 0;
    loop {
        if s.aligned() {
            let to = match edits.get(k) {
                None => block.count(),
                Some(t) => {
                    if run.0 != k {
                        run = (k, probe(block, &mut |_, e: E| e, &mut |e| cmp(e, t)));
                    }
                    run.1
                }
            };
            if to > s.old.idx {
                s.skip_to(to);
                continue;
            }
        }
        let Some(x) = s.old.peek() else { break };
        let Some(t) = edits.get(k) else {
            s.keep();
            // Past the last edit: shifted, copy up to the next restart;
            // aligned, the top of the loop copies the rest whole.
            if !s.aligned() {
                s.copy_run(|_| true);
            }
            continue;
        };
        match cmp(x, t) {
            Ordering::Less => {
                s.keep();
                s.copy_run(|x| cmp(x, t) == Ordering::Less);
            }
            Ordering::Equal => {
                let new = apply(Some(x), t);
                s.drop_cur();
                if let Some(e) = new {
                    s.put(e);
                }
                k += 1;
            }
            Ordering::Greater => {
                if let Some(e) = apply(None, t) {
                    s.put(e);
                }
                k += 1;
            }
        }
    }
    for t in &edits[k..] {
        if let Some(e) = apply(None, t) {
            s.put(e);
        }
    }
    s.out.finish()
}
