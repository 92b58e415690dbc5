//! Proves with a counting global allocator that the list reader never
//! reserves more heap than its input has bytes, whatever count a list
//! claims: a hostile count sizes no allocation by itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use codecs::{bytecode, ByteEncode};

struct LargestAlloc;

thread_local! {
    /// Whether this thread's allocations are measured: the test harness
    /// allocates on its own threads while a test runs.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
    /// The largest allocation (or reallocation's new size) this thread
    /// made while measured since the last reset. Per thread, as the
    /// tests run at the same time.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if MEASURED.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

/// The largest allocation `f` makes on this thread.
fn largest_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    MEASURED.with(|m| m.set(true));
    let out = f();
    MEASURED.with(|m| m.set(false));
    (out, LARGEST.with(Cell::get))
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

#[test]
fn a_list_count_never_reserves_more_than_the_input() {
    // A `String` is 24 bytes in memory and at least one on the wire, so
    // a count equal to the bytes left is the most a list can claim.
    for n in [1usize, 23, 24, 25, 1_000, 1 << 20] {
        let mut buf = Vec::new();
        bytecode::write_varint(n as u64, &mut buf);
        buf.resize(buf.len() + n, 0xFF);
        let (got, largest) = largest_in(|| Vec::<String>::try_read(&buf, &mut 0));
        assert_eq!(got, None, "n = {n}");
        assert!(largest <= n, "n = {n}: one allocation of {largest} bytes");
    }
}

#[test]
fn a_parsed_item_does_not_let_the_count_reserve_more_than_the_input() {
    // A valid first item (an empty string, one byte), then bytes no
    // string parses from: the count is still a claim, not a size.
    for n in [24usize, 25, 1_000, 1 << 20] {
        let mut buf = Vec::new();
        bytecode::write_varint(n as u64, &mut buf);
        buf.push(0);
        buf.resize(buf.len() + n - 1, 0xFF);
        let (got, largest) = largest_in(|| Vec::<String>::try_read(&buf, &mut 0));
        assert_eq!(got, None, "n = {n}");
        assert!(largest <= n, "n = {n}: one allocation of {largest} bytes");
    }
}
