//! The persistent thread pool behind [`crate::Executor`], and the
//! cursor every parallel map claims its work from. Both are private to
//! this crate: the executor is the one scheduling API.
//!
//! One [`Pool`] lives for a whole pipeline run (the engine builds one per
//! run and threads it through every stage via `StageContext`), replacing
//! the per-map `std::thread::scope` spawn/join of earlier revisions.
//! Design points:
//!
//! * **Lazy workers.** No thread is spawned at construction; the first
//!   parallel map spawns `threads − 1` workers (the *caller* is always
//!   participant 0, so `--threads 1` never starts a pool thread at all).
//! * **Chunks off one cursor.** A map over `0..n` hands out contiguous
//!   chunks from one shared [`Claims`] cursor, one `fetch_add` per chunk.
//!   Scheduling is dynamic; *results are not*: the caller merges in index
//!   order, so output is bit-identical at every thread count.
//! * **Fault isolation on long-lived workers.** Work items run under
//!   `catch_unwind` *inside* the submitted task (see `Executor::try_map`),
//!   and the pool additionally catches panics that escape a participant's
//!   task body, re-raising them on the caller after the join barrier — a
//!   worker thread never unwinds, so it keeps serving later stages after
//!   an item panic.
//! * **Clean shutdown, bounded.** Dropping the pool (the last `Executor`
//!   clone) flags shutdown, wakes every worker and joins them — but only
//!   until a join deadline ([`Pool::set_join_deadline`]). A worker that
//!   refuses to exit (wedged in foreign code, a runaway loop) is
//!   *detached* instead of hanging the drop forever, and the leak is
//!   reported through the attached [`Obs`] handle by thread name
//!   (`pool.leak` event + `exec.pool.leaked_workers` counter), so a
//!   long-lived host (the serve daemon) can shut down on time and still
//!   tell operators exactly which thread it abandoned.
//!
//! Safety: `run` publishes a borrowed task closure to the workers through
//! a type-erased pointer. The lifetime transmute is sound because `run`
//! returns only after every participant has checked back in — no worker
//! can touch the closure (or anything it borrows) once `run` returns.

use matelda_obs::{Obs, Val};
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The faultpoint a wedged-worker regression test arms (index = worker
/// id): the armed worker sleeps through shutdown instead of exiting
/// promptly, modelling a thread stuck in foreign code. Production never
/// arms it.
const WEDGE_FAULTPOINT: &str = "pool:wedge";

/// How long a wedged worker sleeps when [`WEDGE_FAULTPOINT`] is armed —
/// far beyond any test join deadline, far below anything that would
/// stall a test binary's process exit (detached threads don't block it).
const WEDGE_SLEEP: Duration = Duration::from_secs(5);

/// Default drop-time join deadline. Generous: healthy workers exit in
/// microseconds, so hitting this at all means a worker is truly wedged.
const DEFAULT_JOIN_DEADLINE: Duration = Duration::from_secs(2);

thread_local! {
    /// Set while a thread (worker *or* caller) executes a pool task.
    /// `Executor` consults it to run nested maps inline — a work item
    /// that itself maps over the same pool must not wait for workers
    /// that are busy running *it* (and nesting would oversubscribe the
    /// host anyway).
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside a pool task (any pool).
pub(crate) fn in_pool_task() -> bool {
    IN_POOL_TASK.with(Cell::get)
}

/// RAII task marker: restores the previous flag even on unwind.
struct TaskFlag {
    prev: bool,
}

impl TaskFlag {
    fn enter() -> Self {
        TaskFlag { prev: IN_POOL_TASK.with(|c| c.replace(true)) }
    }
}

impl Drop for TaskFlag {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL_TASK.with(|c| c.set(prev));
    }
}

/// Type-erased pointer to the caller's borrowed task closure. Valid only
/// between job publication and the last participant check-in; workers
/// never hold it across jobs.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and outlives every dereference — `Pool::run` joins all participants
// before returning, and only participants of the current job dereference.
unsafe impl Send for TaskRef {}

/// Coordination state behind the pool's mutex.
struct PoolState {
    /// Bumped once per job; workers compare against their last-seen value.
    seq: u64,
    /// The published task of the in-flight job, if any.
    task: Option<TaskRef>,
    /// Worker ids `1..participants` take part in the in-flight job.
    participants: usize,
    /// Worker participants that have not checked back in yet.
    remaining: usize,
    /// First panic payload that escaped a participant's task body.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop`; workers exit their loop.
    shutdown: bool,
    /// Per worker (index `id − 1`), whether it has observed shutdown and
    /// left its loop, so that it is only returning. `Drop` waits
    /// (bounded) for every spawned worker's flag, joins the flagged ones
    /// and detaches the rest — a wedged worker never sets its flag.
    exited: Vec<bool>,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new job (or shutdown).
    work: Condvar,
    /// The caller waits here for the last participant check-in.
    done: Condvar,
}

/// A persistent thread pool. See the module docs.
pub(crate) struct Pool {
    /// Pool-thread budget: `threads − 1` (participant 0 is the caller).
    workers: usize,
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// How many pool threads have actually been spawned (0 until the
    /// first parallel map; the lazy-startup contract is observable).
    spawned: AtomicUsize,
    /// Serializes `run` calls from concurrent `Executor` clones.
    run_lock: Mutex<()>,
    /// Drop-time join deadline, milliseconds (see [`Pool::set_join_deadline`]).
    join_deadline_ms: AtomicU64,
    /// Telemetry sink for shutdown leak reports. Attached after
    /// construction (the pool is shared through an `Arc`), hence the
    /// interior mutex; the handle itself is a cheap clone.
    obs: Mutex<Obs>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("spawned", &self.spawned.load(Ordering::Relaxed))
            .finish()
    }
}

impl Pool {
    /// A pool that will lazily spawn `threads − 1` worker threads. With
    /// `threads <= 1` it never spawns anything.
    pub(crate) fn new(threads: usize) -> Self {
        Pool {
            workers: threads.saturating_sub(1),
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    seq: 0,
                    task: None,
                    participants: 0,
                    remaining: 0,
                    panic: None,
                    shutdown: false,
                    exited: vec![false; threads.saturating_sub(1)],
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
            run_lock: Mutex::new(()),
            join_deadline_ms: AtomicU64::new(DEFAULT_JOIN_DEADLINE.as_millis() as u64),
            obs: Mutex::new(Obs::disabled()),
        }
    }

    /// Number of pool threads actually started so far.
    pub(crate) fn workers_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Bounds how long `Drop` waits for workers to exit before detaching
    /// the stragglers and reporting them as leaks. A wedged worker can
    /// delay shutdown by at most this much — it can never hang it.
    pub(crate) fn set_join_deadline(&self, deadline: Duration) {
        self.join_deadline_ms.store(deadline.as_millis() as u64, Ordering::Relaxed);
    }

    /// Attaches the telemetry handle shutdown leak reports go to. The
    /// pool records nothing else — per-map tracing lives on the
    /// `Executor` — so a disabled handle (the default) costs nothing.
    pub(crate) fn attach_obs(&self, obs: &Obs) {
        *self.obs.lock().unwrap_or_else(PoisonError::into_inner) = obs.clone();
    }

    /// Spawns the worker threads on first use.
    fn ensure_spawned(&self) {
        if self.workers == 0 || self.spawned.load(Ordering::Acquire) > 0 {
            return;
        }
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        if !handles.is_empty() {
            return;
        }
        for id in 1..=self.workers {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("matelda-pool-{id}"))
                .spawn(move || worker_loop(&shared, id))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        self.spawned.store(self.workers, Ordering::Release);
    }

    /// Runs `task(pid)` once per participant `pid` in `0..participants`:
    /// participant 0 on the calling thread, the rest on pool workers.
    /// Returns after *every* participant has finished — the task may
    /// borrow locals. Panics escaping any participant are re-raised here
    /// (caller's own panic takes precedence); pool workers survive.
    ///
    /// `participants` must be in `2..=threads` (below 2 there is nothing
    /// to schedule — callers take their inline path instead), and `run`
    /// must not be called from inside a pool task. Only the debug build
    /// checks this: more participants than threads would wait forever
    /// for a worker that does not exist. `Executor::scatter_gather`, the
    /// one caller, guarantees both.
    pub(crate) fn run(&self, participants: usize, task: &(dyn Fn(usize) + Sync)) {
        debug_assert!(participants >= 2, "single-participant jobs run inline");
        debug_assert!(participants <= self.workers + 1, "participants exceed pool width");
        debug_assert!(!in_pool_task(), "Pool::run is not re-entrant from a pool task");
        self.ensure_spawned();
        // SAFETY: only erases the lifetime; see module docs — the join
        // barrier below outlives every dereference.
        let task_ref = TaskRef(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task)
        });

        let _serial = self.run_lock.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            debug_assert!(state.task.is_none(), "a job is already in flight");
            state.seq += 1;
            state.task = Some(task_ref);
            state.participants = participants;
            state.remaining = participants - 1;
            state.panic = None;
        }
        self.shared.work.notify_all();

        // Participant 0: the caller works too, so `threads = 2` costs one
        // pool thread and a 1-thread run costs none.
        let caller_result = catch_unwind(AssertUnwindSafe(|| {
            let _flag = TaskFlag::enter();
            task(0);
        }));

        let worker_panic = {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            while state.remaining > 0 {
                state = self.shared.done.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            state.task = None;
            state.panic.take()
        };
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        // Wait — bounded — for every worker to acknowledge shutdown.
        // Workers set their `exited` flag on their way out; a wedged one
        // leaves its flag unset until the deadline expires.
        let spawned = self.spawned.load(Ordering::Acquire);
        let deadline =
            Instant::now() + Duration::from_millis(self.join_deadline_ms.load(Ordering::Relaxed));
        let exited = {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            while !state.exited[..spawned].iter().all(|&e| e) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                let (next, _timed_out) = self
                    .shared
                    .done
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
            }
            state.exited.clone()
        };
        let obs = self.obs.get_mut().unwrap_or_else(PoisonError::into_inner).clone();
        let mut leaked = 0u64;
        let handles = self.handles.get_mut().unwrap_or_else(PoisonError::into_inner);
        // Handles were pushed in worker-id order, so `handles[i]` is
        // worker `i + 1`, whose flag is `exited[i]`.
        for (handle, exited) in handles.drain(..).zip(exited) {
            if exited {
                // It acknowledged shutdown and is only returning: joining
                // waits out at most its return.
                let _ = handle.join();
            } else {
                // Past the deadline and still running: detach instead of
                // hanging shutdown, and name the thread we abandoned.
                leaked += 1;
                let name = handle.thread().name().unwrap_or("<unnamed>").to_owned();
                obs.event("pool.leak", &[("worker", Val::S(&name))]);
            }
        }
        if leaked > 0 {
            obs.counter_add("exec.pool.leaked_workers", leaked);
        }
    }
}

/// The worker body: wait for a job, run the task if participating, check
/// back in, repeat until shutdown. Panics from the task are stored for
/// the caller — the loop itself never unwinds, which is what lets one
/// worker serve every stage of a run (and survive item panics).
fn worker_loop(shared: &Shared, id: usize) {
    let mut last_seen = 0u64;
    let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if state.shutdown {
            drop(state);
            // Test hook: a "wedged" worker stalls past any reasonable join
            // deadline so the bounded-drop path can be exercised.
            if crate::faultpoint::is_armed(WEDGE_FAULTPOINT, id) {
                std::thread::sleep(WEDGE_SLEEP);
            }
            let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.exited[id - 1] = true;
            shared.done.notify_all();
            return;
        }
        if state.seq != last_seen {
            last_seen = state.seq;
            if id < state.participants {
                let task = state.task.expect("published job has a task");
                drop(state);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _flag = TaskFlag::enter();
                    // SAFETY: the caller blocks in `run` until this
                    // participant checks in below.
                    unsafe { (*task.0)(id) }
                }));
                state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                if let Err(payload) = result {
                    state.panic.get_or_insert(payload);
                }
                state.remaining -= 1;
                if state.remaining == 0 {
                    shared.done.notify_one();
                }
                continue;
            }
        }
        state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
}

/// One map's index space `0..n`, handed out in contiguous chunks from a
/// single shared cursor. Each [`Claims::claim`] is one `fetch_add` of
/// `chunk`, so the starts it returns are disjoint and every index is
/// claimed exactly once, whichever participant asks.
pub(crate) struct Claims {
    next: AtomicUsize,
    n: usize,
    chunk: usize,
}

/// Aiming for ~8 chunks per participant keeps claims coarse while
/// leaving enough of them for fast participants to make up for one
/// stuck on slow items.
const CHUNKS_PER_PARTICIPANT: usize = 8;

/// Chunks never exceed this many items, so one claim cannot take a long
/// run of slow items while the other participants go idle.
const MAX_CHUNK: usize = 1024;

impl Claims {
    /// A cursor over `0..n` for `participants` claimers, with chunks of
    /// `n / (participants × 8)` items, clamped to `1..=MAX_CHUNK`.
    pub(crate) fn new(n: usize, participants: usize) -> Self {
        let chunk = (n / (participants * CHUNKS_PER_PARTICIPANT).max(1)).clamp(1, MAX_CHUNK);
        Claims { next: AtomicUsize::new(0), n, chunk }
    }

    /// The next unclaimed chunk, or `None` once the space is exhausted.
    /// `Relaxed` suffices: the cursor orders nothing but itself. Results
    /// travel through `scatter_gather`'s mutex, and `Pool::run`'s join
    /// barrier orders everything after the map.
    pub(crate) fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        (start < self.n).then(|| start..(start + self.chunk).min(self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_obs::OwnedVal;
    use std::collections::BTreeSet;

    #[test]
    fn claims_cover_every_index_exactly_once_serially() {
        let cases = [(0usize, 2usize), (1, 2), (7, 3), (17, 2), (100, 4), (1025, 2), (16_385, 2)];
        for (n, parts) in cases {
            // One caller claims everything: a single participant can drain
            // the whole space.
            let claims = Claims::new(n, parts);
            let mut seen = BTreeSet::new();
            while let Some(range) = claims.claim() {
                for i in range {
                    assert!(seen.insert(i), "index {i} claimed twice (n={n} parts={parts})");
                }
            }
            assert_eq!(seen.len(), n, "n={n} parts={parts}");
        }
    }

    #[test]
    fn pool_runs_all_participants_and_survives_panics() {
        let pool = Pool::new(3);
        assert_eq!(pool.workers_spawned(), 0, "workers must be lazy");
        let hits = Mutex::new(Vec::new());
        pool.run(3, &|pid| {
            hits.lock().unwrap().push(pid);
        });
        assert_eq!(pool.workers_spawned(), 2);
        let mut got = hits.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);

        // A panic escaping a worker participant re-raises on the caller…
        let escaped = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|pid| {
                if pid == 1 {
                    panic!("escaped task panic");
                }
            });
        }));
        assert!(escaped.is_err());
        // …and the worker keeps serving jobs afterwards.
        let count = AtomicUsize::new(0);
        pool.run(3, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert_eq!(pool.workers_spawned(), 2, "no respawn after an item panic");
    }

    #[test]
    fn single_thread_pool_never_spawns() {
        let pool = Pool::new(1);
        assert_eq!(pool.workers_spawned(), 0);
        drop(pool); // clean shutdown with nothing to join
    }

    #[test]
    fn clean_shutdown_reports_no_leaked_workers() {
        let _guard = crate::faultpoint::quiesce();
        let obs = Obs::enabled();
        let pool = Pool::new(3);
        pool.attach_obs(&obs);
        pool.run(3, &|_| {});
        assert_eq!(pool.workers_spawned(), 2);
        drop(pool);
        assert_eq!(obs.counter("exec.pool.leaked_workers"), None);
        assert!(obs.events_named("pool.leak").is_empty());
    }

    #[test]
    fn pools_dropped_right_after_their_run_join_every_worker() {
        // A worker that has acknowledged shutdown may still be returning
        // when `Drop` looks at it; it must be joined, not reported.
        let _guard = crate::faultpoint::quiesce();
        let obs = Obs::enabled();
        for _ in 0..200 {
            let pool = Pool::new(3);
            pool.attach_obs(&obs);
            pool.run(3, &|_| {});
            drop(pool);
        }
        assert!(obs.events_named("pool.leak").is_empty());
        assert_eq!(obs.counter("exec.pool.leaked_workers"), None);
    }

    #[test]
    fn wedged_worker_is_detached_and_reported_instead_of_hanging_drop() {
        let _guard = crate::faultpoint::arm([(WEDGE_FAULTPOINT.to_owned(), 1)]);
        let obs = Obs::enabled();
        let pool = Pool::new(2);
        pool.attach_obs(&obs);
        pool.set_join_deadline(Duration::from_millis(100));
        pool.run(2, &|_| {});
        assert_eq!(pool.workers_spawned(), 1);
        let started = Instant::now();
        drop(pool);
        let elapsed = started.elapsed();
        assert!(
            elapsed < WEDGE_SLEEP,
            "drop must return before the wedged worker wakes (took {elapsed:?})"
        );
        assert_eq!(obs.counter("exec.pool.leaked_workers"), Some(1));
        let leaks = obs.events_named("pool.leak");
        assert_eq!(leaks.len(), 1);
        assert!(
            leaks[0]
                .fields
                .iter()
                .any(|(k, v)| k == "worker" && matches!(v, OwnedVal::S(n) if n == "matelda-pool-1")),
            "leak event must name the abandoned thread: {:?}",
            leaks[0].fields
        );
    }
}
