//! Reusable per-thread decode buffers for the base cases that genuinely
//! need a materialized entry slice (leaf merges, set operations'
//! batches, `join`'s `node()` fold, `split`, `expose`).
//!
//! These paths decode whole (small) subtrees before re-encoding them; a
//! fresh `Vec` per node made every flat-node touch a heap allocation.
//! [`with_scratch`] hands out a thread-local buffer instead: the first
//! use on a thread allocates, every later use on that thread reuses the
//! grown capacity, so steady-state base cases are allocation-free.
//!
//! Buffers are pooled per entry type (the pool is keyed by `TypeId`) and
//! per thread; nested uses of the same type — e.g. a job a worker runs
//! while it waits on a fork with a buffer on loan — pop distinct
//! buffers off a small stack, so reentrancy is safe. Buffers are cleared
//! before reuse and before being returned, so no entry outlives its
//! `with_scratch` call.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

thread_local! {
    /// Per-thread pool: for each entry type, a stack of cleared buffers.
    static POOL: RefCell<HashMap<TypeId, Vec<Box<dyn Any>>>> = RefCell::new(HashMap::new());
}

/// Largest buffer (in bytes of capacity) the pool keeps. The steady-state
/// users are base cases bounded by `O(κ·b)` entries, far below this; an
/// outlier — e.g. `multi_insert` of a huge batch into a small tree, whose
/// base case flattens the whole merge — gets its buffer freed on return
/// instead of parking tens of megabytes on the thread forever.
const MAX_POOLED_BYTES: usize = 1 << 20;

/// A scratch buffer on loan from this thread's pool: derefs to the
/// `Vec`, and is cleared and recycled when dropped. For callers that
/// cannot put their use in a closure ([`with_scratch`]).
pub(crate) struct Scratch<E: 'static> {
    buf: Vec<E>,
}

impl<E: 'static> Scratch<E> {
    /// A cleared buffer of capacity at least `min_capacity`.
    pub(crate) fn take(min_capacity: usize) -> Self {
        let mut buf: Vec<E> = POOL
            .with(|pool| {
                pool.borrow_mut()
                    .get_mut(&TypeId::of::<E>())
                    .and_then(|stack| stack.pop())
            })
            .map(|boxed| *boxed.downcast::<Vec<E>>().expect("pool keyed by TypeId"))
            .unwrap_or_default();
        buf.reserve(min_capacity);
        Scratch { buf }
    }
}

impl<E: 'static> Deref for Scratch<E> {
    type Target = Vec<E>;

    fn deref(&self) -> &Vec<E> {
        &self.buf
    }
}

impl<E: 'static> DerefMut for Scratch<E> {
    fn deref_mut(&mut self) -> &mut Vec<E> {
        &mut self.buf
    }
}

impl<E: 'static> Drop for Scratch<E> {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        if buf.capacity().saturating_mul(std::mem::size_of::<E>()) <= MAX_POOLED_BYTES {
            // A thread tearing down its locals just frees the buffer.
            let _ = POOL.try_with(|pool| {
                pool.borrow_mut()
                    .entry(TypeId::of::<E>())
                    .or_default()
                    .push(Box::new(buf));
            });
        }
    }
}

/// Runs `f` with a cleared scratch buffer of capacity at least
/// `min_capacity`, recycling it afterwards. The result must not borrow
/// the buffer (entries are cleared on return).
pub(crate) fn with_scratch<E: 'static, R>(
    min_capacity: usize,
    f: impl FnOnce(&mut Vec<E>) -> R,
) -> R {
    f(&mut Scratch::take(min_capacity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_capacity_across_calls() {
        let cap_first = with_scratch::<u64, _>(1000, |buf| {
            buf.extend(0..1000u64);
            buf.capacity()
        });
        // Second call on this thread gets the same (cleared) buffer back.
        let (len, cap) = with_scratch::<u64, _>(0, |buf| (buf.len(), buf.capacity()));
        assert_eq!(len, 0);
        assert!(cap >= cap_first);
    }

    #[test]
    fn nested_same_type_uses_distinct_buffers() {
        with_scratch::<u64, _>(4, |outer| {
            outer.push(1);
            with_scratch::<u64, _>(4, |inner| {
                inner.push(2);
                assert_eq!(outer.len(), 1);
                assert_eq!(inner.len(), 1);
            });
            assert_eq!(outer, &vec![1]);
        });
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let huge = MAX_POOLED_BYTES / std::mem::size_of::<u64>() + 1;
        with_scratch::<u64, _>(huge, |buf| assert!(buf.capacity() >= huge));
        // The next buffer handed out is a fresh (or small pooled) one,
        // not the oversized outlier.
        with_scratch::<u64, _>(0, |buf| {
            assert!(buf.capacity() * std::mem::size_of::<u64>() <= MAX_POOLED_BYTES);
        });
    }

    #[test]
    fn distinct_types_coexist() {
        with_scratch::<u64, _>(1, |a| {
            a.push(7);
            with_scratch::<(u64, String), _>(1, |b| {
                b.push((1, "x".into()));
                assert_eq!(a[0], 7);
            });
        });
    }
}
