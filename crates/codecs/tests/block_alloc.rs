//! Proves with a counting global allocator what a block costs the heap:
//! a raw block is read with one allocation (its entry list, reserved
//! once at its count and never grown or shrunk) and written into a
//! buffer with room for it with none, and a delta block is encoded with
//! one allocation per buffer it holds and no reallocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use codecs::{BlockIo, Codec, DeltaCodec, RawCodec};

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted: the test harness
    /// allocates on its own threads while a test runs.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
    /// Allocations and reallocations this thread made while measured
    /// since the last reset. Per thread, as the tests run at the same
    /// time.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    if MEASURED.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result, and the allocations and reallocations it makes on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    MEASURED.with(|m| m.set(true));
    let out = f();
    MEASURED.with(|m| m.set(false));
    (out, (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get)))
}

/// `n` entries with 40-bit keys and small values: about 12 bytes per
/// entry on the wire against 16 in memory.
fn entries(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| ((1 << 39) + i * 7_919, i * 31)).collect()
}

#[test]
fn a_raw_block_is_read_with_one_allocation() {
    // The bytes left underestimate the count, so they cannot size the
    // entry list.
    let entries = entries(128);
    let block = <RawCodec as Codec<(u64, u64)>>::encode(&entries);
    let mut frame = Vec::new();
    <RawCodec as BlockIo<(u64, u64)>>::write_block(&block, &mut frame);
    assert!(frame.len() < 128 * 16, "{} frame bytes", frame.len());
    let (read, counts) = counted(|| <RawCodec as BlockIo<(u64, u64)>>::read_block(&frame, &mut 0));
    assert_eq!(read.as_deref(), Ok(&entries[..]));
    assert_eq!(counts, (1, 0), "allocations, reallocations");
}

#[test]
fn a_raw_block_is_written_into_a_buffer_with_room_without_allocating() {
    // Payloads whose length takes one, two and three varint bytes, the
    // first two against a slot sized for another length.
    for n in [4u64, 128, 2_000] {
        let block = <RawCodec as Codec<(u64, u64)>>::encode(&entries(n));
        let mut frame = Vec::new();
        <RawCodec as BlockIo<(u64, u64)>>::write_block(&block, &mut frame);
        let mut out = Vec::with_capacity(frame.len());
        let ((), counts) =
            counted(|| <RawCodec as BlockIo<(u64, u64)>>::write_block(&block, &mut out));
        assert_eq!(out, frame, "n = {n}");
        assert_eq!(counts, (0, 0), "n = {n}: allocations, reallocations");
    }
}

#[test]
fn a_delta_block_is_encoded_with_one_allocation_per_buffer() {
    // 192 entries hold two restarts after the first, 64 none: the stream
    // and the sample table, or the stream alone. The first encode on a
    // thread grows the buffer the stream is built in, which later ones
    // reuse.
    for (n, samples, buffers) in [(192u64, 2, 2), (64, 0, 1)] {
        let entries = entries(n);
        let first = <DeltaCodec as Codec<(u64, u64)>>::encode(&entries);
        let (block, counts) = counted(|| <DeltaCodec as Codec<(u64, u64)>>::encode(&entries));
        assert_eq!(block, first, "n = {n}");
        assert_eq!(block.sample_offsets().len(), samples, "n = {n}");
        assert_eq!(counts, (buffers, 0), "n = {n}: allocations, reallocations");
    }
}
