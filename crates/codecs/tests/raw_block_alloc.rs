//! Proves with a counting global allocator that a raw block is read
//! with one allocation: its entry list is reserved once, at its count,
//! and never grown or shrunk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use codecs::{BlockIo, Codec, RawCodec};

struct CountingAlloc;

/// Allocations and reallocations a measuring thread made since the
/// last reset.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted: the test harness
    /// allocates on its own threads while a test runs.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn note(counter: &AtomicUsize) {
    if MEASURED.with(Cell::get) {
        counter.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn a_raw_block_is_read_with_one_allocation() {
    // 40-bit keys and small values: about 12 bytes per entry on the wire
    // against 16 in memory, so the bytes left underestimate the count.
    let entries: Vec<(u64, u64)> = (0..128u64)
        .map(|i| ((1 << 39) + i * 7_919, i * 31))
        .collect();
    let block = <RawCodec as Codec<(u64, u64)>>::encode(&entries);
    let mut frame = Vec::new();
    <RawCodec as BlockIo<(u64, u64)>>::write_block(&block, &mut frame);
    assert!(frame.len() < 128 * 16, "{} frame bytes", frame.len());
    ALLOCS.store(0, Ordering::Relaxed);
    REALLOCS.store(0, Ordering::Relaxed);
    MEASURED.with(|m| m.set(true));
    let read = <RawCodec as BlockIo<(u64, u64)>>::read_block(&frame, &mut 0);
    MEASURED.with(|m| m.set(false));
    let (allocs, reallocs) = (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
    );
    assert_eq!(read.as_deref(), Ok(&entries[..]));
    assert_eq!((allocs, reallocs), (1, 0), "allocations, reallocations");
}
