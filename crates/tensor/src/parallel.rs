//! Data-parallel helpers backed by a lazily-initialized persistent worker
//! pool.
//!
//! The paper trains on GPUs; this reproduction substitutes multi-core CPU
//! kernels. Earlier revisions forked fresh OS threads with
//! `std::thread::scope` on *every* kernel call, which put thread creation on
//! the per-matmul critical path. The pool here is created once, on the first
//! dispatch that actually wants parallelism, and its workers then park on
//! the pool's job queue (a mutex-guarded deque and a condition variable)
//! between kernels:
//!
//! * dispatchers enqueue one `Job` per chunk and run the first chunk
//!   themselves, so an `n`-way dispatch needs only `n - 1` workers;
//! * a counting latch makes the dispatcher block until every chunk finished,
//!   which is what lets jobs borrow the caller's stack (see safety notes on
//!   `run_tasks`);
//! * while blocked, the dispatcher *helps* — it drains other queued jobs —
//!   so concurrent dispatchers (e.g. the cloud scheduler's training workers)
//!   can share one pool without deadlock;
//! * [`set_threads`]`(1)` bypasses the pool entirely and runs inline, which
//!   keeps the TEE baseline single-threaded and deterministic.
//!
//! Chunk boundaries only decide *which* thread computes an output region,
//! never the order of floating-point accumulation inside it, so results are
//! bitwise identical for any thread count.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

thread_local! {
    /// Whether the current thread is one of the pool's spawned workers
    /// (drain jobs must only ever run on those — see [`Job::worker_only`]).
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads to use for parallel kernels.
///
/// Defaults to the machine's available parallelism (capped at 16) and can be
/// overridden with [`set_threads`] — the TEE/CPU baseline pins it to 1 to
/// model enclave-style single-threaded training.
pub fn threads() -> usize {
    let configured = CONFIGURED.load(Ordering::Relaxed);
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(1)
}

static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker thread count (0 restores the default).
///
/// Selecting exactly one thread additionally drains every pool worker's
/// [`scratch`](crate::scratch) arena: a long-lived single-thread run (the
/// TEE baseline) will never dispatch to the pool again, so the workers'
/// peak-sized pack buffers would otherwise stay pinned for the process
/// lifetime. The drain blocks until every worker has emptied its arena;
/// the workers themselves stay parked and are reused if threading is
/// re-enabled later.
///
/// The no-retained-scratch guarantee assumes the caller quiesces its own
/// kernel dispatches first (as the TEE baseline does): a dispatch still in
/// flight on another thread when `set_threads(1)` is entered may hand a
/// worker new work after that worker's arena was cleared, re-retaining pack
/// buffers. Concurrent `set_threads(1)` calls themselves are safe — drains
/// are serialised internally.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
    if n == 1 {
        drain_worker_arenas();
    }
}

/// Hard cap on pool size, independent of what [`set_threads`] asks for.
const MAX_POOL_WORKERS: usize = 32;

/// Total pool threads ever spawned by this process.
///
/// The pool is persistent, so after warm-up this number is constant no
/// matter how many kernels run — the property the no-per-call-spawn test
/// asserts.
pub fn pool_spawned_threads() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Countdown latch: the dispatcher waits until every outsourced chunk ran.
///
/// Also carries the first panic payload raised by an outsourced chunk so the
/// dispatcher can re-raise it (matching the old `std::thread::scope`
/// behaviour of propagating worker panics).
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until the count reaches zero without helping. Only for waits
    /// whose jobs must run on *other* threads (the arena drain: helping
    /// would clear the caller's arena instead of a worker's).
    fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap();
        }
    }

    /// Blocks until the count reaches zero, running other queued jobs while
    /// waiting so that a dispatcher stuck behind a busy pool still makes
    /// global progress (required when pool clients dispatch concurrently).
    ///
    /// Worker-only jobs (the arena drain) are not executed here unless the
    /// current thread *is* a pool worker (nested dispatch): a client
    /// dispatcher stealing one would clear its own arena instead of a
    /// worker's. Such jobs stay queued for a parked worker, and the helper
    /// takes the next job it may run or backs off.
    fn wait_helping(&self, pool: &Pool) {
        loop {
            if *self.remaining.lock().unwrap() == 0 {
                return;
            }
            match pool.try_pop() {
                Some(job) => job.run(),
                None => self.backoff(),
            }
        }
    }

    /// Sleeps briefly unless the count already reached zero. A missed notify
    /// costs at most one timeout period.
    fn backoff(&self) {
        let remaining = self.remaining.lock().unwrap();
        if *remaining == 0 {
            return;
        }
        let _unused = self
            .done
            .wait_timeout(remaining, Duration::from_micros(200))
            .unwrap();
    }
}

/// One chunk of a dispatched task.
///
/// `task` points at the dispatcher's `&(dyn Fn(usize) + Sync)`; the pointer
/// is valid for the job's whole life because the dispatcher blocks on
/// `latch` before that borrow can expire.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    index: usize,
    latch: Arc<Latch>,
    /// Set on arena-drain jobs, which must run on a spawned pool worker —
    /// helping client dispatchers route around them (see
    /// [`Latch::wait_helping`]).
    worker_only: bool,
}

// SAFETY: the pointee is `Sync` (shared by every worker) and outlives the
// job per the latch protocol above.
unsafe impl Send for Job {}

impl Job {
    fn run(self) {
        // Catch panics so the latch ALWAYS counts down: the dispatcher's
        // borrow-validity argument (and its liveness) depends on it. The
        // payload is re-raised on the dispatching thread.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: see the latch protocol on `Job`.
            let task = unsafe { &*self.task };
            task(self.index);
        }));
        if let Err(payload) = result {
            let mut slot = self.latch.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        self.latch.count_down();
    }
}

/// The persistent pool: one job queue shared by every worker. It lives in a
/// static and is never torn down, so the queue has no closed state.
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled when jobs arrive while a worker is parked.
    ready: Condvar,
    workers: Mutex<usize>,
}

struct Queue {
    jobs: VecDeque<Job>,
    /// Workers blocked on `ready` right now: a push signals only when one is.
    parked: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            parked: 0,
        }),
        ready: Condvar::new(),
        workers: Mutex::new(0),
    })
}

/// Barrier that releases its jobs only once *all* of them have started.
///
/// Each drain job clears the running thread's scratch arena and then parks
/// here. Drain jobs only execute on pool workers (client helpers pass over
/// them — see [`Latch::wait_helping`]), and a thread cannot pick up a
/// second job while parked in the first, so `count` jobs are necessarily
/// held by `count` distinct *workers* before any of them returns — which is
/// how the drain reaches every pool worker exactly once.
struct ClearBarrier {
    remaining: Mutex<usize>,
    all_in: Condvar,
}

impl ClearBarrier {
    fn arrive_and_wait(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.all_in.notify_all();
            return;
        }
        while *remaining > 0 {
            remaining = self.all_in.wait(remaining).unwrap();
        }
    }
}

/// Empties the scratch arena of every spawned pool worker (see
/// [`set_threads`]). No-op when the pool was never created.
///
/// Drains are serialised on one mutex: two concurrent drains would split
/// the workers between two barriers, with each barrier waiting on jobs no
/// free worker is left to start — a deadlock that would also wedge every
/// later kernel dispatch.
fn drain_worker_arenas() {
    let Some(pool) = POOL.get() else {
        return;
    };
    static DRAIN_LOCK: Mutex<()> = Mutex::new(());
    let _serialised = DRAIN_LOCK.lock().unwrap();
    let workers = *pool.workers.lock().unwrap();
    if workers == 0 {
        return;
    }
    let barrier = ClearBarrier {
        remaining: Mutex::new(workers),
        all_in: Condvar::new(),
    };
    let latch = Arc::new(Latch::new(workers));
    let task = |_index: usize| {
        crate::scratch::clear();
        barrier.arrive_and_wait();
    };
    let taskref: &(dyn Fn(usize) + Sync) = &task;
    // SAFETY: same latch protocol as `run_tasks` — the `latch.wait()` below
    // keeps this frame (and the borrows in `task`) alive until every job ran.
    let task_ptr: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(taskref as *const (dyn Fn(usize) + Sync)) };
    pool.push((0..workers).map(|index| Job {
        task: task_ptr,
        index,
        latch: Arc::clone(&latch),
        worker_only: true,
    }));
    // Plain (non-helping) wait: helping would run a drain job on *this*
    // thread, clearing the caller's arena and leaving one worker undrained.
    latch.wait();
}

impl Pool {
    /// Queues `jobs`, waking as many parked workers as there are new jobs.
    fn push(&self, jobs: impl Iterator<Item = Job>) {
        let mut queue = self.queue.lock().unwrap();
        let before = queue.jobs.len();
        queue.jobs.extend(jobs);
        let wake = (queue.jobs.len() - before).min(queue.parked);
        drop(queue);
        for _ in 0..wake {
            self.ready.notify_one();
        }
    }

    /// Blocks for the next job (pool workers only).
    fn pop(&self) -> Job {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return job;
            }
            queue.parked += 1;
            queue = self.ready.wait(queue).unwrap();
            queue.parked -= 1;
        }
    }

    /// The first queued job the calling thread may run (worker-only jobs
    /// only on a pool worker), without blocking.
    fn try_pop(&self) -> Option<Job> {
        let on_worker = IS_POOL_WORKER.with(Cell::get);
        let mut queue = self.queue.lock().unwrap();
        let at = queue
            .jobs
            .iter()
            .position(|job| on_worker || !job.worker_only)?;
        queue.jobs.remove(at)
    }

    /// Grows the pool to at least `needed` parked workers (capped), spawning
    /// each thread exactly once for the process lifetime.
    fn ensure_workers(&'static self, needed: usize) {
        let needed = needed.min(MAX_POOL_WORKERS);
        let mut count = self.workers.lock().unwrap();
        while *count < needed {
            std::thread::Builder::new()
                .name(format!("amalgam-pool-{count}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|flag| flag.set(true));
                    loop {
                        self.pop().run();
                    }
                })
                .expect("failed to spawn pool worker");
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            *count += 1;
        }
    }
}

/// Runs `task(0) .. task(ntasks - 1)`, farming all but the first chunk out
/// to the persistent pool and executing chunk 0 on the calling thread.
///
/// Returns only after every chunk completed, which is what makes it sound
/// for `task` to borrow the caller's stack.
fn run_tasks(ntasks: usize, task: &(dyn Fn(usize) + Sync)) {
    if ntasks <= 1 {
        task(0);
        return;
    }
    let pool = pool();
    pool.ensure_workers(ntasks - 1);
    let latch = Arc::new(Latch::new(ntasks - 1));
    // SAFETY: erase the borrow's lifetime so jobs can cross to the workers.
    // The latch wait below keeps this call frame (and thus the pointee)
    // alive until the last job ran.
    let task_ptr: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
    pool.push((1..ntasks).map(|index| Job {
        task: task_ptr,
        index,
        latch: Arc::clone(&latch),
        worker_only: false,
    }));
    // Run chunk 0 locally, but never unwind past the latch wait: queued jobs
    // still hold pointers into this frame until the latch reaches zero.
    let local = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(0)));
    latch.wait_helping(pool);
    if let Err(payload) = local {
        std::panic::resume_unwind(payload);
    }
    let remote_panic = latch.panic.lock().unwrap().take();
    if let Some(payload) = remote_panic {
        std::panic::resume_unwind(payload);
    }
}

/// Runs `f(start, end)` over disjoint chunks of `0..len` on up to
/// [`threads()`] pool workers (plus the calling thread).
///
/// Falls back to a direct call when `len` is small or one thread is
/// configured, so tiny tensors never touch the pool.
pub fn parallel_chunks<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let nthreads = threads().min(len / min_chunk.max(1)).max(1);
    if nthreads <= 1 {
        f(0, len);
        return;
    }
    let chunk = len.div_ceil(nthreads);
    let ntasks = len.div_ceil(chunk);
    run_tasks(ntasks, &|t| {
        let start = t * chunk;
        let end = ((t + 1) * chunk).min(len);
        if start < end {
            f(start, end);
        }
    });
}

/// Shared base pointer for handing disjoint sub-slices to pool workers.
struct SendPtr(*mut f32);
// SAFETY: every task derives a non-overlapping range from the same base.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture `&SendPtr`,
    /// which is `Sync`, instead of the bare `*mut f32`, which is not.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Like [`parallel_chunks`], but each worker writes into a disjoint slice of
/// `out` (split along the same `0..len` rows, `row_width` elements per row).
///
/// # Panics
///
/// Panics if `out.len() != len * row_width`.
pub fn parallel_rows_mut<F>(out: &mut [f32], len: usize, row_width: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        len * row_width,
        "output slice does not match rows"
    );
    let nthreads = threads().min(len / min_chunk.max(1)).max(1);
    if nthreads <= 1 {
        f(0, len, out);
        return;
    }
    let chunk = len.div_ceil(nthreads);
    let ntasks = len.div_ceil(chunk);
    let base = SendPtr(out.as_mut_ptr());
    run_tasks(ntasks, &|t| {
        let start = t * chunk;
        let end = ((t + 1) * chunk).min(len);
        if start >= end {
            return;
        }
        // SAFETY: row ranges [start, end) are disjoint across tasks, and the
        // dispatcher's `&mut out` borrow outlives the dispatch.
        let slice = unsafe {
            std::slice::from_raw_parts_mut(
                base.get().add(start * row_width),
                (end - start) * row_width,
            )
        };
        f(start, end, slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that flip the process-global `set_threads` knob —
    /// the default harness runs tests concurrently in one process.
    static THREADS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn chunks_cover_range_exactly_once() {
        use std::sync::Mutex;
        let hits = Mutex::new(vec![0u32; 1000]);
        parallel_chunks(1000, 1, |s, e| {
            let mut h = hits.lock().unwrap();
            for i in s..e {
                h[i] += 1;
            }
        });
        assert!(hits.lock().unwrap().iter().all(|&h| h == 1));
    }

    #[test]
    fn rows_mut_writes_disjoint_slices() {
        let mut out = vec![0.0f32; 12];
        parallel_rows_mut(&mut out, 4, 3, 1, |s, _e, slice| {
            for (k, v) in slice.iter_mut().enumerate() {
                *v = (s * 3 + k) as f32;
            }
        });
        assert_eq!(out, (0..12).map(|v| v as f32).collect::<Vec<_>>());
    }

    #[test]
    fn small_input_runs_inline() {
        let mut out = vec![0.0f32; 2];
        parallel_rows_mut(&mut out, 2, 1, 64, |_s, _e, slice| {
            slice.iter_mut().for_each(|v| *v = 1.0);
        });
        assert_eq!(out, vec![1.0, 1.0]);
    }

    #[test]
    fn set_threads_override() {
        let _guard = THREADS_LOCK.lock().unwrap();
        set_threads(1);
        assert_eq!(threads(), 1);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn pool_survives_many_dispatches() {
        let _guard = THREADS_LOCK.lock().unwrap();
        // Warm the pool to the largest size any concurrently-running test
        // can ask for (threads() defaults are capped at 16), so the spawn
        // counter cannot move under us while the test harness runs other
        // tests in this process.
        set_threads(16);
        let mut out = vec![0.0f32; 64 * 8];
        parallel_rows_mut(&mut out, 64, 8, 1, |_s, _e, slice| {
            slice.iter_mut().for_each(|v| *v += 1.0);
        });
        let after_first = pool_spawned_threads();
        for _ in 0..32 {
            parallel_rows_mut(&mut out, 64, 8, 1, |_s, _e, slice| {
                slice.iter_mut().for_each(|v| *v += 1.0);
            });
        }
        set_threads(0);
        assert_eq!(
            pool_spawned_threads(),
            after_first,
            "pool must not spawn threads per dispatch"
        );
        assert!(out.iter().all(|&v| v == 33.0));
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let _guard = THREADS_LOCK.lock().unwrap();
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            parallel_chunks(64, 1, |s, _e| {
                assert!(s < 8, "chunk boundary blew up (intentional)");
            });
        });
        assert!(result.is_err(), "worker panic must reach the dispatcher");
        // The pool must still be fully functional afterwards.
        let mut out = vec![0.0f32; 64];
        parallel_rows_mut(&mut out, 64, 1, 1, |_s, _e, slice| {
            slice.iter_mut().for_each(|v| *v = 1.0);
        });
        set_threads(0);
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn concurrent_drains_do_not_deadlock() {
        let _guard = THREADS_LOCK.lock().unwrap();
        // Warm the pool so there are workers to drain.
        set_threads(4);
        let mut out = vec![0.0f32; 256];
        parallel_rows_mut(&mut out, 256, 1, 1, |_s, _e, slice| {
            slice.iter_mut().for_each(|v| *v = 1.0);
        });
        // Several threads hitting set_threads(1) at once must all return:
        // unserialised drains would split the workers between two barriers
        // and wedge the pool forever.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| set_threads(1));
            }
        });
        // The pool must still be fully functional afterwards.
        set_threads(4);
        let mut out = vec![0.0f32; 256];
        parallel_rows_mut(&mut out, 256, 1, 1, |_s, _e, slice| {
            slice.iter_mut().for_each(|v| *v = 1.0);
        });
        set_threads(0);
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn concurrent_dispatchers_share_pool() {
        let _guard = THREADS_LOCK.lock().unwrap();
        // Several client threads dispatching at once must all complete
        // (the help-while-waiting path prevents queue starvation).
        set_threads(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut out = vec![0.0f32; 256];
                    parallel_rows_mut(&mut out, 256, 1, 1, |s, e, slice| {
                        for (k, v) in slice.iter_mut().enumerate() {
                            *v = (s + k) as f32;
                        }
                        let _ = e;
                    });
                    assert_eq!(out[255], 255.0);
                });
            }
        });
        set_threads(0);
    }
}
