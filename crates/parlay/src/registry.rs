//! The global work-stealing thread pool.
//!
//! A fixed set of worker threads each own a [`Deque`], popped LIFO by its
//! owner. `join` pushes the second closure onto the local deque and runs
//! the first; idle workers steal batches from the FIFO end of other
//! deques or of the global injector, one more `Deque` that receives jobs
//! from threads outside the pool.
//!
//! # Wake protocol
//!
//! Pushing a job must wake an idle worker, but the push path is the hot
//! path of every `join`, so it cannot afford a mutex or a `notify_all`
//! stampede. The protocol (after Rayon's sleep module, simplified):
//!
//! - **Pusher fast path:** a relaxed load of the `sleepers` count. When no
//!   worker is parked — the common case under load — pushing costs one
//!   uncontended atomic read and nothing else.
//! - **Pusher slow path:** bump the `wake_epoch` counter, take the sleep
//!   mutex, `notify_one`. Exactly one parked worker wakes per push instead
//!   of all of them.
//! - **Sleeper:** capture `wake_epoch`, advertise itself in `sleepers`,
//!   re-scan the queues (closing the race against a pusher that loaded
//!   `sleepers` before the increment), then re-check `wake_epoch` under
//!   the sleep mutex and only park if no wake happened in between. Parks
//!   always use a bounded timeout, so the residual window left by the
//!   relaxed fast-path load (pusher reads a stale zero while the sleeper
//!   registers) costs at most one timeout instead of a lost wakeup.
//!
//! Workers that complete a stolen job also run the pusher slow path: a
//! `join` caller may be parked waiting on exactly that job's `done` flag,
//! and nothing else would wake it before its timeout.
//!
//! # Steal policy
//!
//! Steals move a *batch* (half the victim's queue, capped) into the
//! thief's own deque and return one job to run, amortizing the
//! synchronization per steal. `Steal::Retry` — a lost race with another
//! thief — is bounded everywhere: a few retries on the injector, a few
//! per victim before moving on. An unbounded retry loop can livelock when
//! every attempt loses the race (observed as a real risk under
//! oversubscription; see `tests/stress.rs`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::deque::{Deque, Steal};
use crate::job::JobRef;

/// Bounded `Steal::Retry` attempts against the global injector per scan.
const INJECTOR_RETRIES: usize = 4;
/// Bounded `Steal::Retry` attempts per victim before moving to the next.
const VICTIM_RETRIES: usize = 3;
/// Backoff rounds spent in `spin_loop` bursts (2^round iterations each).
const SPIN_ROUNDS: u32 = 6;
/// Backoff rounds spent in `yield_now` after spinning, before parking.
const YIELD_ROUNDS: u32 = 4;
/// Park timeout for a `join` caller waiting on its forked job. Short: the
/// completion wake usually arrives first, the timeout only bounds races.
const JOIN_PARK_TIMEOUT: Duration = Duration::from_micros(100);
/// Park timeout for an idle worker with no pending obligations.
const IDLE_PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Per-worker counters, padded to a cache line so relaxed increments on
/// the hot path never false-share with a neighbour's.
#[repr(align(64))]
#[derive(Default)]
struct WorkerCounters {
    steals: AtomicU64,
    exec_local: AtomicU64,
    exec_stolen: AtomicU64,
    retries_abandoned: AtomicU64,
    parks: AtomicU64,
}

/// Shared state of the pool.
pub(crate) struct Registry {
    injector: Deque<JobRef>,
    /// One deque per worker; a worker finds its own by its index.
    deques: Box<[Deque<JobRef>]>,
    /// Number of workers currently advertising themselves as parked (or
    /// about to park). Pushers read this relaxed as the wake fast path.
    sleepers: AtomicUsize,
    /// Monotonic wake counter. Bumped by every slow-path wake; sleepers
    /// re-check it under the mutex to detect a wake that raced their
    /// registration and skip the park entirely.
    wake_epoch: AtomicU64,
    sleep_mutex: Mutex<()>,
    sleep_cond: Condvar,
    injected: AtomicU64,
    wakeups: AtomicU64,
    counters: Vec<WorkerCounters>,
}

static REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();
static REQUESTED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Requests a specific worker count for the global pool.
///
/// Only effective before the pool is first used; afterwards it is ignored.
/// The environment variable `PARLAY_NUM_THREADS` has the same effect.
pub fn set_num_threads(n: usize) {
    REQUESTED_THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads in the global pool.
pub fn num_threads() -> usize {
    global().deques.len()
}

fn configured_threads() -> usize {
    let requested = REQUESTED_THREADS.load(Ordering::Relaxed);
    if requested > 0 {
        return requested;
    }
    if let Ok(value) = std::env::var("PARLAY_NUM_THREADS") {
        if let Ok(n) = value.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub(crate) fn global() -> &'static Arc<Registry> {
    REGISTRY.get_or_init(|| {
        let num_threads = configured_threads();
        let registry = Arc::new(Registry {
            injector: Deque::new(),
            deques: (0..num_threads).map(|_| Deque::new()).collect(),
            sleepers: AtomicUsize::new(0),
            wake_epoch: AtomicU64::new(0),
            sleep_mutex: Mutex::new(()),
            sleep_cond: Condvar::new(),
            injected: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            counters: (0..num_threads)
                .map(|_| WorkerCounters::default())
                .collect(),
        });
        for index in 0..num_threads {
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name(format!("parlay-{index}"))
                .spawn(move || worker_main(registry, index))
                .expect("failed to spawn parlay worker thread");
        }
        registry
    })
}

impl Registry {
    /// Queues a job from outside the pool and wakes a sleeping worker.
    ///
    /// # Safety
    /// The job must stay alive until executed.
    pub(crate) unsafe fn inject(&self, job: JobRef) {
        self.injector.push(job);
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.notify_one();
    }

    /// Wakes one parked worker, if any. See the module docs for the full
    /// protocol; the fast path is a single relaxed load.
    fn notify_one(&self) {
        if self.sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.wake_epoch.fetch_add(1, Ordering::Release);
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        let _guard = self.sleep_mutex.lock();
        self.sleep_cond.notify_one();
    }

    /// Whether any queue currently holds a job. Used as the last look
    /// before parking; a false positive costs one extra scan, a false
    /// negative costs at most one park timeout.
    fn has_pending_work(&self) -> bool {
        !self.injector.is_empty() || self.deques.iter().any(|d| !d.is_empty())
    }
}

fn next_rand(state: &Cell<u64>) -> u64 {
    // xorshift64*; cheap per-worker victim selection.
    let mut x = state.get();
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state.set(x);
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Per-worker state, reachable from thread-local storage while on a worker.
pub(crate) struct WorkerThread {
    registry: Arc<Registry>,
    index: usize,
    rng: Cell<u64>,
}

thread_local! {
    static WORKER_THREAD: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

impl WorkerThread {
    /// The current worker, or null if this thread is not a pool worker.
    pub(crate) fn current() -> *const WorkerThread {
        WORKER_THREAD.with(Cell::get)
    }

    /// Whether this worker is alone in the pool (no thieves exist).
    pub(crate) fn is_solo(&self) -> bool {
        self.registry.deques.len() <= 1
    }

    fn counters(&self) -> &WorkerCounters {
        &self.registry.counters[self.index]
    }

    fn deque(&self) -> &Deque<JobRef> {
        &self.registry.deques[self.index]
    }

    pub(crate) fn push(&self, job: JobRef) {
        self.deque().push(job);
        self.registry.notify_one();
    }

    /// One full attempt at finding work: the global injector first, then
    /// the other workers starting from a random victim.
    fn steal_work(&self) -> Option<JobRef> {
        let registry = &*self.registry;
        if let Some(job) = self.steal_from(&registry.injector, INJECTOR_RETRIES) {
            return Some(job);
        }
        let n = registry.deques.len();
        let start = (next_rand(&self.rng) as usize) % n;
        (0..n)
            .map(|offset| (start + offset) % n)
            .filter(|&victim| victim != self.index)
            .find_map(|victim| self.steal_from(&registry.deques[victim], VICTIM_RETRIES))
    }

    /// Batch-steals from `src` into this worker's own deque, making at
    /// most `budget` attempts: after that many lost races the next source
    /// is more promising than another try at this one.
    fn steal_from(&self, src: &Deque<JobRef>, budget: usize) -> Option<JobRef> {
        for _ in 0..budget {
            match src.steal_into(self.deque()) {
                Steal::Success(job) => {
                    self.counters().steals.fetch_add(1, Ordering::Relaxed);
                    return Some(job);
                }
                Steal::Empty => return None,
                Steal::Retry => {}
            }
        }
        self.counters()
            .retries_abandoned
            .fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Runs a stolen or injected job and then wakes one sleeper: the
    /// job's completion may be exactly what a parked `join` caller is
    /// waiting on, and nothing else would signal it.
    ///
    /// # Safety
    /// As for [`JobRef::execute`]: `job` must point at live storage and be
    /// executed exactly once.
    unsafe fn execute_stolen(&self, job: JobRef) {
        // Count before executing: an external job's `execute` releases the
        // submitting thread, which may snapshot the stats immediately — the
        // window delta must already include this job.
        self.counters().exec_stolen.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { job.execute() };
        self.registry.notify_one();
    }

    /// Parks this worker for at most `timeout`, unless a wake or new work
    /// races in first. `abort` is re-checked after registration so a
    /// `join` waiter never sleeps past its job's completion.
    fn park(&self, timeout: Duration, abort: &dyn Fn() -> bool) {
        let registry = &*self.registry;
        let epoch = registry.wake_epoch.load(Ordering::Acquire);
        registry.sleepers.fetch_add(1, Ordering::SeqCst);
        // Re-scan after advertising ourselves: a pusher that loaded
        // `sleepers` before our increment will not wake us, but its job
        // is already visible in some queue by now (or will be caught by
        // the timeout in the worst-case interleaving).
        if abort() || registry.has_pending_work() {
            registry.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        {
            let mut guard = registry.sleep_mutex.lock();
            if registry.wake_epoch.load(Ordering::Acquire) == epoch {
                registry.sleep_cond.wait_for(&mut guard, timeout);
            }
        }
        registry.sleepers.fetch_sub(1, Ordering::SeqCst);
        self.counters().parks.fetch_add(1, Ordering::Relaxed);
    }

    /// One step of the idle ladder: run a local job, else a stolen one,
    /// else back off by one stage — spin bursts, then yields, then parks
    /// of at most `timeout` — instead of burning a core in a bare
    /// `yield_now` loop. `idle` counts the back-off rounds since the last
    /// job ran.
    fn run_one_or_back_off(&self, idle: &mut u32, timeout: Duration, abort: &dyn Fn() -> bool) {
        if let Some(job) = self.deque().pop() {
            self.counters().exec_local.fetch_add(1, Ordering::Relaxed);
            // SAFETY: every JobRef in a deque points at live storage and is
            // executed exactly once.
            unsafe { job.execute() };
            *idle = 0;
        } else if let Some(job) = self.steal_work() {
            // SAFETY: as above.
            unsafe { self.execute_stolen(job) };
            *idle = 0;
        } else if *idle < SPIN_ROUNDS {
            for _ in 0..(1u32 << *idle) {
                std::hint::spin_loop();
            }
            *idle += 1;
        } else if *idle < SPIN_ROUNDS + YIELD_ROUNDS {
            std::thread::yield_now();
            *idle += 1;
        } else {
            self.park(timeout, abort);
        }
    }

    /// Executes local, stolen, or injected jobs until `done()` is true.
    ///
    /// This is the heart of `join`: while the second closure may have been
    /// stolen, the waiting worker keeps itself busy with other work rather
    /// than blocking. If the second closure was not stolen, the first local
    /// pop runs it inline and `done()` turns true.
    pub(crate) fn wait_until<F: Fn() -> bool>(&self, done: F) {
        let mut idle = 0;
        while !done() {
            self.run_one_or_back_off(&mut idle, JOIN_PARK_TIMEOUT, &done);
        }
    }
}

fn worker_main(registry: Arc<Registry>, index: usize) {
    let me = WorkerThread {
        registry,
        index,
        rng: Cell::new(0x9E3779B97F4A7C15u64.wrapping_mul(index as u64 + 1) | 1),
    };
    WORKER_THREAD.with(|cell| cell.set(&me as *const WorkerThread));
    let mut idle = 0;
    loop {
        me.run_one_or_back_off(&mut idle, IDLE_PARK_TIMEOUT, &|| false);
    }
}

/// A snapshot of the scheduler's introspection counters.
///
/// All counters are cumulative since pool start and monotonically
/// non-decreasing; to attribute activity to a window of work, snapshot
/// before and after and subtract (see [`SchedulerStats::delta`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs injected from threads outside the pool (`parlay::run`).
    pub injected: u64,
    /// Slow-path wakes: a pusher or completing thief found at least one
    /// parked worker and signalled it.
    pub wakeups: u64,
    /// Successful steal operations (each may move a whole batch).
    pub steals: u64,
    /// Jobs a worker popped from its own deque.
    pub exec_local: u64,
    /// Stolen or injected jobs a worker executed.
    pub exec_stolen: u64,
    /// Steal attempts abandoned after the bounded `Retry` budget.
    pub retries_abandoned: u64,
    /// Times a worker parked on the sleep condvar.
    pub parks: u64,
    /// `(exec_local, exec_stolen)` broken out per worker thread.
    pub per_worker: Vec<(u64, u64)>,
}

impl SchedulerStats {
    /// Counter increments between `earlier` and `self`, where `earlier`
    /// was snapshotted first. The `per_worker` breakdown is subtracted
    /// index-wise.
    pub fn delta(&self, earlier: &SchedulerStats) -> SchedulerStats {
        SchedulerStats {
            injected: self.injected - earlier.injected,
            wakeups: self.wakeups - earlier.wakeups,
            steals: self.steals - earlier.steals,
            exec_local: self.exec_local - earlier.exec_local,
            exec_stolen: self.exec_stolen - earlier.exec_stolen,
            retries_abandoned: self.retries_abandoned - earlier.retries_abandoned,
            parks: self.parks - earlier.parks,
            per_worker: self
                .per_worker
                .iter()
                .zip(&earlier.per_worker)
                .map(|((l, s), (el, es))| (l - el, s - es))
                .collect(),
        }
    }
}

/// Reads the scheduler counters.
///
/// Starts the pool if it is not yet running (counters are a property of
/// the running scheduler).
pub fn scheduler_stats() -> SchedulerStats {
    let registry = global();
    let mut stats = SchedulerStats {
        injected: registry.injected.load(Ordering::Relaxed),
        wakeups: registry.wakeups.load(Ordering::Relaxed),
        ..SchedulerStats::default()
    };
    for c in &registry.counters {
        let local = c.exec_local.load(Ordering::Relaxed);
        let stolen = c.exec_stolen.load(Ordering::Relaxed);
        stats.steals += c.steals.load(Ordering::Relaxed);
        stats.exec_local += local;
        stats.exec_stolen += stolen;
        stats.retries_abandoned += c.retries_abandoned.load(Ordering::Relaxed);
        stats.parks += c.parks.load(Ordering::Relaxed);
        stats.per_worker.push((local, stolen));
    }
    stats
}

/// Bridges the scheduler counters into an `obs` registry as pull-style
/// callbacks (`parlay_steals_total`, `parlay_wakeups_total`, ...), the
/// same pattern as `cpam::stats::register_with`: the hot paths keep their
/// single relaxed `fetch_add` and pay nothing until something scrapes the
/// registry. Idempotent: re-registering a name is a no-op.
pub fn register_stats_with(registry: &obs::Registry) {
    fn total(read: impl Fn(&WorkerCounters) -> &AtomicU64) -> u64 {
        global()
            .counters
            .iter()
            .map(|c| read(c).load(Ordering::Relaxed))
            .sum()
    }
    registry.register_callback("parlay_injected_total", || {
        global().injected.load(Ordering::Relaxed)
    });
    registry.register_callback("parlay_wakeups_total", || {
        global().wakeups.load(Ordering::Relaxed)
    });
    registry.register_callback("parlay_steals_total", || total(|c| &c.steals));
    registry.register_callback("parlay_exec_local_total", || total(|c| &c.exec_local));
    registry.register_callback("parlay_exec_stolen_total", || total(|c| &c.exec_stolen));
    registry.register_callback("parlay_steal_retries_abandoned_total", || {
        total(|c| &c.retries_abandoned)
    });
    registry.register_callback("parlay_parks_total", || total(|c| &c.parks));
}
