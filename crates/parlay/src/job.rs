//! Type-erased jobs that can be pushed onto work-stealing deques.
//!
//! A [`JobRef`] is a raw, type-erased pointer to a job living either on the
//! stack of a joining thread ([`StackJob`]) or on the heap
//! ([`ExternalJob`], used for jobs injected from outside the pool). The
//! owner of the underlying storage is responsible for keeping it alive until
//! the job has executed; the scheduler guarantees every pushed job is
//! executed exactly once.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Condvar, Mutex};

/// A type-erased pointer to an executable job.
///
/// Safety contract: the pointee must outlive the `JobRef` and `execute` must
/// be called exactly once.
pub(crate) struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only a pointer + fn pointer; the scheduler upholds the
// aliasing discipline (single execution, storage kept alive by its owner).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Creates a job reference from a pointer to a [`Job`] implementation.
    ///
    /// # Safety
    /// `data` must remain valid until the job executes.
    pub(crate) unsafe fn new<T: Job>(data: *const T) -> JobRef {
        JobRef {
            pointer: data as *const (),
            execute_fn: <T as Job>::execute,
        }
    }

    /// Runs the job.
    ///
    /// # Safety
    /// Must be called exactly once, and the pointee must still be alive.
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.pointer)
    }
}

/// A job that can be executed through a type-erased pointer.
pub(crate) trait Job {
    /// # Safety
    /// `this` must point to a live instance of the implementing type and the
    /// call must happen at most once.
    unsafe fn execute(this: *const ());
}

/// The result slot of a job: either not finished, a value, or a captured
/// panic payload to be resumed on the joining thread.
pub(crate) enum JobResult<R> {
    None,
    Ok(R),
    Panicked(Box<dyn Any + Send>),
}

impl<R> JobResult<R> {
    /// Returns the value or resumes the captured panic.
    ///
    /// # Panics
    /// Resumes the panic captured while running the job, if any.
    pub(crate) fn into_return_value(self) -> R {
        match self {
            JobResult::None => unreachable!("job result taken before completion"),
            JobResult::Ok(r) => r,
            JobResult::Panicked(payload) => panic::resume_unwind(payload),
        }
    }
}

/// A job allocated on the stack of a thread executing [`crate::join`].
///
/// The joining thread pushes a `JobRef` to this job onto its local deque and
/// is responsible for not returning until `done()` reads `true` (either by
/// popping and inlining the job itself or by waiting for a thief).
pub(crate) struct StackJob<F, R>
where
    F: FnOnce() -> R + Send,
{
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
    done: AtomicBool,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
{
    pub(crate) fn new(func: F) -> Self {
        StackJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
            done: AtomicBool::new(false),
        }
    }

    /// # Safety
    /// The returned `JobRef` must not outlive `self`.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self)
    }

    /// Whether the job has finished executing (acquire ordering, so the
    /// result written by the executing thread is visible afterwards).
    pub(crate) fn done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Extracts the result after `done()` returned `true`.
    pub(crate) fn into_result(self) -> JobResult<R> {
        debug_assert!(self.done.load(Ordering::Acquire));
        self.result.into_inner()
    }
}

impl<F, R> Job for StackJob<F, R>
where
    F: FnOnce() -> R + Send,
{
    unsafe fn execute(this: *const ()) {
        let this = &*(this as *const Self);
        let func = (*this.func.get()).take().expect("stack job executed twice");
        let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(value) => JobResult::Ok(value),
            Err(payload) => JobResult::Panicked(payload),
        };
        *this.result.get() = result;
        this.done.store(true, Ordering::Release);
    }
}

/// A blocking latch based on a mutex + condvar, used by threads outside the
/// pool to wait for an injected job.
pub(crate) struct LockLatch {
    done: Mutex<bool>,
    cond: Condvar,
}

impl LockLatch {
    pub(crate) fn new() -> Self {
        LockLatch {
            done: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    pub(crate) fn set(&self) {
        let mut done = self.done.lock();
        *done = true;
        self.cond.notify_all();
    }

    pub(crate) fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.cond.wait(&mut done);
        }
    }
}

/// A job injected from a thread outside the pool; the submitting thread
/// blocks on the latch, so the job can live on its stack.
pub(crate) struct ExternalJob<F, R>
where
    F: FnOnce() -> R + Send,
{
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
    latch: LockLatch,
}

impl<F, R> ExternalJob<F, R>
where
    F: FnOnce() -> R + Send,
{
    pub(crate) fn new(func: F) -> Self {
        ExternalJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
            latch: LockLatch::new(),
        }
    }

    /// # Safety
    /// The returned `JobRef` must not outlive `self`, and the caller must
    /// block on [`Self::wait`] before dropping `self`.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self)
    }

    pub(crate) fn wait(&self) {
        self.latch.wait();
    }

    pub(crate) fn into_result(self) -> JobResult<R> {
        self.result.into_inner()
    }
}

impl<F, R> Job for ExternalJob<F, R>
where
    F: FnOnce() -> R + Send,
{
    unsafe fn execute(this: *const ()) {
        let this = &*(this as *const Self);
        let func = (*this.func.get())
            .take()
            .expect("external job executed twice");
        let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(value) => JobResult::Ok(value),
            Err(payload) => JobResult::Panicked(payload),
        };
        *this.result.get() = result;
        this.latch.set();
    }
}

// SAFETY: access to the interior cells is serialized by the done/latch
// protocol: the executing thread writes before the release store / latch
// set, the joining thread reads after the acquire load / latch wait.
unsafe impl<F: FnOnce() -> R + Send, R> Sync for StackJob<F, R> {}
unsafe impl<F: FnOnce() -> R + Send, R> Sync for ExternalJob<F, R> {}
