//! # matelda-exec
//!
//! The deterministic parallel substrate of the staged pipeline engine:
//!
//! * [`Executor`] — an ordered map over an index space, scheduled on a
//!   persistent thread pool private to this crate. Workers are spawned
//!   lazily on the first parallel map and live for the pool's lifetime
//!   (one pool per pipeline run), so per-map cost is a condvar wake
//!   instead of a thread spawn/join. Participants claim contiguous chunks
//!   of the index space from one shared cursor, one `fetch_add` per
//!   chunk, but results are always merged **in index order**, so output
//!   is bit-identical at any thread count. Built on `std` only, per the
//!   workspace crate policy.
//! * [`Executor::try_map_n`] — the one fault-isolated map (with
//!   [`Executor::try_map`] its slice form): each work item runs under
//!   `catch_unwind` and an optional stage [`Deadline`], a panic becomes
//!   an [`ItemFault`] for that index only, and the index-ordered merge is
//!   preserved, so degradation is as deterministic as success. Workers
//!   are long-lived — an item panic never kills a pool thread.
//! * [`RunReport`] / [`StageReport`] — per-stage wall time plus work
//!   counters and the structured fault log, threaded through every stage
//!   of a pipeline run and rendered as aligned text or JSON.
//! * [`faultpoint`] — a test-only injection hook the chaos harness arms
//!   to panic chosen `(stage, index)` work items.

mod pool;

use matelda_obs::{json_string, Buckets, Obs, Stopwatch};
use pool::{Claims, Pool};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One isolated work-item failure: the stage it happened in, the item
/// index within the stage's index space, and the panic payload (or error
/// rendering) that killed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFault {
    /// Stage name the faulted item belonged to (e.g. `embed`).
    pub stage: String,
    /// Index of the work item within the stage's map.
    pub index: usize,
    /// Human-readable panic payload or error message.
    pub message: String,
}

impl ItemFault {
    /// Creates a fault record.
    pub fn new(stage: &str, index: usize, message: impl Into<String>) -> Self {
        ItemFault { stage: stage.to_string(), index, message: message.into() }
    }
}

impl fmt::Display for ItemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.stage, self.index, self.message)
    }
}

/// The fault message of a work item pre-empted by a stage deadline. A
/// constant string (never interpolating the measured time) so that a
/// timed-out run is bit-identical however the deadline was detected.
pub const DEADLINE_FAULT: &str = "stage deadline exceeded";

/// A per-stage watchdog deadline for [`Executor::try_map_n`]: work
/// items claimed after the deadline are not run — they fault with
/// [`DEADLINE_FAULT`] and flow through the same degradation paths as a
/// panicked item. Items already running are never interrupted (the
/// executor has no pre-emption), so a deadline bounds *scheduling* of
/// new work, not the slowest single item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Deadline { at: Instant::now() + timeout }
    }

    /// Whether the deadline has passed.
    pub fn exceeded(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Renders a caught panic payload as a message (`&str` and `String`
/// payloads pass through; anything else becomes a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A deterministic parallel executor over a persistent thread pool.
///
/// The contract: `map_n(n, f)` returns `[f(0), f(1), …, f(n-1)]` — the
/// same vector at every thread count. `f` runs concurrently across
/// threads, so it must not rely on call order; every stochastic stage in
/// the workspace derives a per-index seed instead.
///
/// Cloning shares the pool: the engine builds one executor per run and
/// every stage schedules onto the same lazily-spawned workers. The
/// calling thread is always participant 0 of a parallel map, so
/// `threads` means *total* parallelism: a 1-thread executor never wakes
/// (or spawns) a pool thread, and a one-item map, or a map called from
/// inside a pool task, runs inline instead of re-entering the pool.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    obs: Obs,
    pool: Arc<Pool>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(0)
    }
}

impl Executor {
    /// Creates an executor with `threads`-way parallelism; `0` means the
    /// host's available parallelism, resolved once here — never per map.
    /// No pool thread starts until the first parallel map needs one.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Executor { threads, obs: Obs::disabled(), pool: Arc::new(Pool::new(threads)) }
    }

    /// A single-threaded executor (runs everything inline; its pool
    /// never spawns a thread).
    pub fn single() -> Self {
        Executor::new(1)
    }

    /// Number of pool threads actually started so far (0 until the
    /// first parallel map — the lazy-startup contract, shared across
    /// clones).
    pub fn workers_spawned(&self) -> usize {
        self.pool.workers_spawned()
    }

    /// Whether a map over `n` items takes the serial path. Maps issued
    /// from inside a pool task always do: the pool's workers are busy
    /// running the outer map, so nesting would deadlock-or-oversubscribe
    /// for no benefit. (The merge order is index-driven either way, so
    /// inlining never changes results.)
    fn runs_inline(&self, n: usize) -> bool {
        self.threads <= 1 || n <= 1 || pool::in_pool_task()
    }

    /// Attaches an observability handle: fault-isolated maps then emit
    /// one `exec` span per worker (items claimed, busy time) and a
    /// per-item latency histogram keyed by stage name. Disabled handles
    /// cost nothing on the per-item path.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Bounds how long dropping the underlying pool waits for worker
    /// threads to exit before detaching stragglers and reporting them as
    /// leaks (2 s unless set). Shared across all clones of this executor —
    /// the pool is the unit of shutdown, not the clone.
    pub fn with_join_deadline(self, deadline: Duration) -> Self {
        self.pool.set_join_deadline(deadline);
        self
    }

    /// Attaches a telemetry handle to the underlying pool for
    /// shutdown leak reports (`pool.leak` events,
    /// `exec.pool.leaked_workers` counter). Deliberately separate from
    /// [`Executor::with_obs`]: per-run handles come and go with each
    /// request, while pool-level telemetry belongs to whoever owns the
    /// pool's lifetime (e.g. a daemon's own handle).
    pub fn with_pool_obs(self, obs: &Obs) -> Self {
        self.pool.attach_obs(obs);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..n`, merging results in index order.
    pub fn map_n<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.runs_inline(n) {
            return (0..n).map(f).collect();
        }
        self.scatter_gather(n, |_, claims| {
            let mut mine = Vec::new();
            while let Some(range) = claims.claim() {
                mine.extend(range.map(|i| (i, f(i))));
            }
            mine
        })
    }

    /// Maps `f` over a slice, merging results in item order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_n(items.len(), |i| f(i, &items[i]))
    }

    /// The fault-isolated [`Executor::map_n`]: each `f(i)` runs under
    /// `catch_unwind`, so a panic in one work item becomes
    /// `Err(ItemFault)` at that index instead of tearing down the run.
    /// An item claimed after `deadline` has passed (or whose
    /// `timeout:<stage>` faultpoint is armed — the deterministic test
    /// hook) is not run and faults with [`DEADLINE_FAULT`]; `None` runs
    /// every item. Results still merge in index order — `try_map_n` at
    /// any thread count returns the same vector, faults included, which
    /// is what keeps degraded runs bit-identical.
    ///
    /// `stage` names the stage in the fault records.
    pub fn try_map_n<R, F>(
        &self,
        stage: &str,
        n: usize,
        deadline: Option<Deadline>,
        f: F,
    ) -> Vec<Result<R, ItemFault>>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let guarded = |i: usize| -> Result<R, ItemFault> {
            if faultpoint::timeout_armed(stage, i) || deadline.is_some_and(|d| d.exceeded()) {
                return Err(ItemFault::new(stage, i, DEADLINE_FAULT));
            }
            catch_unwind(AssertUnwindSafe(|| f(i)))
                .map_err(|payload| ItemFault::new(stage, i, panic_message(payload.as_ref())))
        };
        // Per-item latency histogram, keyed once per call — the per-item
        // path pays a single `Option` branch when tracing is off.
        let hist = self.obs.is_enabled().then(|| format!("exec.item_us.{stage}"));
        let timed = |i: usize| -> (Result<R, ItemFault>, f64) {
            match &hist {
                Some(h) => {
                    let watch = Stopwatch::start();
                    let r = guarded(i);
                    let us = watch.elapsed_secs() * 1e6;
                    self.obs.record(h, us, Buckets::LatencyUs);
                    (r, us)
                }
                None => (guarded(i), 0.0),
            }
        };
        if self.runs_inline(n) {
            let mut span = self.obs.span("exec", stage);
            let out = (0..n).map(|i| timed(i).0).collect();
            span.arg("items", n as f64);
            span.finish_secs();
            return out;
        }
        let obs = &self.obs;
        // One span per map *participation* (workers are persistent, so a
        // span per thread lifetime would smear every stage together):
        // participant `pid` traces on tid lane `pid + 1`, with the items
        // it claimed and its busy time.
        self.scatter_gather(n, |pid, claims| {
            let mut span = obs.span("exec", stage).with_tid(pid as u64 + 1);
            let mut busy_us = 0.0f64;
            let mut mine = Vec::new();
            while let Some(range) = claims.claim() {
                for i in range {
                    let (r, us) = timed(i);
                    busy_us += us;
                    mine.push((i, r));
                }
            }
            let items = mine.len();
            span.arg("items", items as f64);
            span.arg("busy_us", busy_us);
            let wall = span.finish_secs();
            if hist.is_some() {
                obs.counter_add(&format!("exec.worker_items.{stage}.w{pid}"), items as u64);
                if wall > 0.0 {
                    obs.gauge_set(
                        &format!("exec.worker_util.{stage}.w{pid}"),
                        (busy_us / 1e6) / wall,
                    );
                }
            }
            mine
        })
    }

    /// Fault-isolated [`Executor::map`] with no deadline (see
    /// [`Executor::try_map_n`]).
    pub fn try_map<T, R, F>(&self, stage: &str, items: &[T], f: F) -> Vec<Result<R, ItemFault>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_map_n(stage, items.len(), None, |i| f(i, &items[i]))
    }

    /// The parallel half of every map: `participate(pid, claims)` runs on
    /// each of `min(threads, n)` participants, claims index ranges off
    /// `claims` until none are left and returns its `(index, result)`
    /// pairs; the pairs are then scattered back into index order.
    fn scatter_gather<R: Send>(
        &self,
        n: usize,
        participate: impl Fn(usize, &Claims) -> Vec<(usize, R)> + Sync,
    ) -> Vec<R> {
        let participants = self.threads.min(n);
        let claims = Claims::new(n, participants);
        let gathered: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::with_capacity(participants));
        self.pool.run(participants, &|pid| {
            let mine = participate(pid, &claims);
            gathered.lock().unwrap_or_else(PoisonError::into_inner).push(mine);
        });
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for batch in gathered.into_inner().unwrap_or_else(PoisonError::into_inner) {
            for (i, r) in batch {
                slots[i] = Some(r);
            }
        }
        slots.into_iter().map(|s| s.expect("every index produced exactly once")).collect()
    }
}

/// Instrumentation for one pipeline stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageReport {
    /// Stage name (e.g. `embed`, `quality_folds`).
    pub name: String,
    /// Wall-clock seconds spent in the stage.
    pub wall_secs: f64,
    /// Work units processed (cells, tables, folds, columns — per stage).
    pub items: u64,
    /// Extra named measurements (fold counts, labels spent, …).
    pub metrics: Vec<(String, f64)>,
}

impl StageReport {
    /// Creates an empty report for `name`.
    pub fn new(name: &str) -> Self {
        StageReport { name: name.to_string(), ..Default::default() }
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Instrumentation for a whole pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Executor thread count the run used.
    pub threads: usize,
    /// Per-stage reports, in execution order.
    pub stages: Vec<StageReport>,
    /// Isolated work-item failures, in (stage execution, index) order.
    pub faults: Vec<ItemFault>,
}

impl RunReport {
    /// Creates an empty report for a run at `threads` threads.
    pub fn new(threads: usize) -> Self {
        RunReport { threads, stages: Vec::new(), faults: Vec::new() }
    }

    /// Total wall time across stages.
    pub fn total_secs(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_secs).sum()
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>10} {:>10}  metrics ({} thread{})\n",
            "stage",
            "wall",
            "items",
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        ));
        for s in &self.stages {
            let metrics =
                s.metrics.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ");
            out.push_str(&format!(
                "{:<16} {:>9.4}s {:>10}  {}\n",
                s.name, s.wall_secs, s.items, metrics
            ));
        }
        out.push_str(&format!("{:<16} {:>9.4}s\n", "total", self.total_secs()));
        for fault in &self.faults {
            out.push_str(&format!("fault: {fault}\n"));
        }
        out
    }

    /// Serializes as JSON (hand-rolled; stage names and metric keys are
    /// plain identifiers, values are finite numbers).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"threads\":{},\"total_secs\":{:.6},\"stages\":[",
            self.threads,
            self.total_secs()
        ));
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"wall_secs\":{:.6},\"items\":{}",
                json_string(&s.name),
                s.wall_secs,
                s.items
            ));
            if !s.metrics.is_empty() {
                out.push_str(",\"metrics\":{");
                for (j, (k, v)) in s.metrics.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{}:{}", json_string(k), json_number(*v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push(']');
        if !self.faults.is_empty() {
            out.push_str(",\"faults\":[");
            for (i, fault) in self.faults.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"stage\":{},\"index\":{},\"message\":{}}}",
                    json_string(&fault.stage),
                    fault.index,
                    json_string(&fault.message)
                ));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Test-only fault injection.
///
/// The chaos harness arms a set of `(stage, index)` points; stage bodies
/// call [`hit`](faultpoint::hit) at the top of each work item and panic
/// when their point is armed. Disarmed, the hook is a single relaxed
/// atomic load, so the production path pays (almost) nothing. Injected
/// panics carry a recognizable
/// [`INJECTED_PREFIX`](faultpoint::INJECTED_PREFIX) payload and are
/// suppressed from the default panic report, so chaos runs don't spray
/// backtraces.
///
/// Arming is globally exclusive: [`arm`](faultpoint::arm) holds a
/// process-wide lock until the returned guard drops, which serializes
/// concurrently running chaos tests instead of cross-contaminating them.
pub mod faultpoint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// Payload prefix of injected panics (lets hooks and asserts
    /// distinguish planned faults from real bugs).
    pub const INJECTED_PREFIX: &str = "injected fault at ";

    static ARMED: AtomicBool = AtomicBool::new(false);

    fn plan() -> &'static Mutex<Vec<(String, usize)>> {
        static PLAN: OnceLock<Mutex<Vec<(String, usize)>>> = OnceLock::new();
        PLAN.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn exclusivity() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// Installs (once) a panic hook that silences injected-fault panics
    /// and delegates everything else to the previous hook.
    fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with(INJECTED_PREFIX));
                if !injected {
                    default(info);
                }
            }));
        });
    }

    /// Keeps the injection plan armed; dropping disarms and releases the
    /// exclusivity lock.
    pub struct ArmedGuard {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for ArmedGuard {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
            plan().lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Takes the faultpoint exclusivity lock without arming anything.
    ///
    /// The plan is process-global, so a *control* run in a test binary
    /// whose other tests inject faults must hold this guard: otherwise,
    /// under a parallel test runner, it can trip a point some other
    /// test armed and report phantom faults.
    pub fn quiesce() -> ArmedGuard {
        arm(std::iter::empty::<(String, usize)>())
    }

    /// Arms the given `(stage, index)` points until the guard drops.
    pub fn arm(points: impl IntoIterator<Item = (String, usize)>) -> ArmedGuard {
        // A failed assertion in a previous chaos test poisons the lock;
        // the plan is reset on every arm, so poisoning is harmless.
        let lock = exclusivity().lock().unwrap_or_else(PoisonError::into_inner);
        silence_injected_panics();
        *plan().lock().unwrap_or_else(PoisonError::into_inner) = points.into_iter().collect();
        ARMED.store(true, Ordering::SeqCst);
        ArmedGuard { _lock: lock }
    }

    /// Panics iff `(stage, index)` is armed. Stage bodies call this at
    /// the top of each work item.
    #[inline]
    pub fn hit(stage: &str, index: usize) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let armed = plan().lock().unwrap_or_else(PoisonError::into_inner);
        if armed.iter().any(|(s, i)| s == stage && *i == index) {
            drop(armed);
            std::panic::panic_any(format!("{INJECTED_PREFIX}{stage}[{index}]"));
        }
    }

    /// Non-panicking query: is `(stage, index)` armed? Used by callers
    /// that degrade on an armed point instead of panicking (the
    /// deadline hook below).
    #[inline]
    pub fn is_armed(stage: &str, index: usize) -> bool {
        if !ARMED.load(Ordering::Relaxed) {
            return false;
        }
        let armed = plan().lock().unwrap_or_else(PoisonError::into_inner);
        armed.iter().any(|(s, i)| s == stage && *i == index)
    }

    /// The deterministic stage-timeout hook: arming `("timeout:<stage>",
    /// index)` makes the executor treat that work item as
    /// deadline-exceeded without any wall-clock sleep — the item is
    /// skipped and faults with
    /// [`DEADLINE_FAULT`](crate::DEADLINE_FAULT), identically at any
    /// thread count. Disarmed, this is one relaxed atomic load.
    #[inline]
    pub fn timeout_armed(stage: &str, index: usize) -> bool {
        if !ARMED.load(Ordering::Relaxed) {
            return false;
        }
        is_armed(&format!("timeout:{stage}"), index)
    }

    /// The environment variable subprocess chaos tests arm faults
    /// through: comma-separated `stage:index` points, where the stage
    /// may itself contain colons (`timeout:classify:2` parses as
    /// `("timeout:classify", 2)` — the split is on the *last* colon).
    pub const FAULTPOINT_ENV: &str = "MATELDA_FAULTPOINTS";

    /// Arms faultpoints from [`FAULTPOINT_ENV`] for the life of the
    /// process. Binaries call this once at startup; with the variable
    /// unset (or holding no parseable point) nothing is armed. Unlike
    /// [`arm`] there is no guard to drop — a subprocess's plan never
    /// changes, so the guard (and the exclusivity lock it holds) is
    /// deliberately leaked.
    pub fn arm_from_env() {
        let Ok(raw) = std::env::var(FAULTPOINT_ENV) else { return };
        let points: Vec<(String, usize)> = raw
            .split(',')
            .filter_map(|p| {
                let (stage, idx) = p.trim().rsplit_once(':')?;
                Some((stage.to_string(), idx.parse().ok()?))
            })
            .collect();
        if !points.is_empty() {
            std::mem::forget(arm(points));
        }
    }
}

/// JSON-safe number formatting (no NaN/Inf in JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.6}")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_n_is_ordered_and_complete() {
        // Lengths either side of where the chunk rule steps (n = 16 at two
        // participants), and 16_385: one past a chunk edge at 2, 4 and 8
        // participants, and at two a chunk of the full 1024-item cap.
        for threads in [1, 2, 4, 7, 8] {
            let exec = Executor::new(threads);
            for n in [0, 1, 15, 16, 17, 100, 16_385] {
                let out = exec.map_n(n, |i| i * i);
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn map_results_identical_across_thread_counts() {
        let items: Vec<usize> = (0..57).collect();
        let expensive = |_, &x: &usize| {
            // Uneven work to exercise dynamic claiming.
            (0..(x % 7) * 1000).fold(x as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
        };
        let base = Executor::single().map(&items, expensive);
        for threads in [2, 3, 4, 8] {
            assert_eq!(Executor::new(threads).map(&items, expensive), base);
        }
    }

    #[test]
    fn zero_threads_resolves_to_host_parallelism() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::single().threads(), 1);
    }

    #[test]
    fn empty_and_singleton_maps() {
        let exec = Executor::new(4);
        assert!(exec.map_n(0, |i| i).is_empty());
        assert_eq!(exec.map_n(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn report_records_and_renders() {
        let mut report = RunReport::new(2);
        let mut embed = StageReport::new("embed");
        embed.items = 5;
        embed.metrics.push(("dims".into(), 128.0));
        report.stages.push(embed);
        report.stages.push(StageReport { items: 33, ..StageReport::new("train") });
        assert_eq!(report.stages.len(), 2);
        assert!(report.stage("embed").expect("exists").wall_secs >= 0.0);
        assert_eq!(report.stage("embed").expect("exists").metric("dims"), Some(128.0));
        let text = report.render();
        assert!(text.contains("embed") && text.contains("train") && text.contains("total"));
        let json = report.to_json();
        assert!(json.contains("\"threads\":2"));
        assert!(json.contains("\"name\":\"embed\""));
        assert!(json.contains("\"dims\":128"));
    }

    #[test]
    fn json_number_formats() {
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.5), "0.500000");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn try_map_isolates_panics_per_index() {
        let _armed = faultpoint::arm(Vec::new()); // silence hook + exclusivity
        for threads in [1, 2, 4] {
            let exec = Executor::new(threads);
            let out = exec.try_map_n("stage", 10, None, |i| {
                if i % 3 == 0 {
                    panic!("boom {i}");
                }
                i * 2
            });
            assert_eq!(out.len(), 10, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                if i % 3 == 0 {
                    let fault = r.as_ref().expect_err("panicked index must fault");
                    assert_eq!(fault.stage, "stage");
                    assert_eq!(fault.index, i);
                    assert_eq!(fault.message, format!("boom {i}"));
                } else {
                    assert_eq!(*r.as_ref().expect("survivor"), i * 2);
                }
            }
        }
    }

    #[test]
    fn try_map_matches_map_when_nothing_faults() {
        let items: Vec<usize> = (0..23).collect();
        let exec = Executor::new(3);
        let plain = exec.map(&items, |_, &x| x + 1);
        let tried: Vec<usize> = exec
            .try_map("s", &items, |_, &x| x + 1)
            .into_iter()
            .map(|r| r.expect("no faults"))
            .collect();
        assert_eq!(plain, tried);
    }

    #[test]
    fn faultpoint_injects_only_armed_points_and_disarms_on_drop() {
        let exec = Executor::new(2);
        {
            let _armed = faultpoint::arm(vec![("s".to_string(), 3), ("s".to_string(), 5)]);
            let out = exec.try_map_n("s", 8, None, |i| {
                faultpoint::hit("s", i);
                faultpoint::hit("other", i); // not armed for this stage
                i
            });
            let faulted: Vec<usize> =
                out.iter().enumerate().filter(|(_, r)| r.is_err()).map(|(i, _)| i).collect();
            assert_eq!(faulted, vec![3, 5]);
            assert!(out[3].as_ref().is_err_and(|f| f.message.contains("injected fault")));
        }
        // Guard dropped: the same run is fault-free.
        let out = exec.try_map_n("s", 8, None, |i| {
            faultpoint::hit("s", i);
            i
        });
        assert!(out.iter().all(Result::is_ok));
    }

    #[test]
    fn armed_timeout_point_faults_without_running_the_item() {
        let _armed = faultpoint::arm(vec![("timeout:slow".to_string(), 2)]);
        for threads in [1, 2, 4] {
            let exec = Executor::new(threads);
            let ran = AtomicUsize::new(0);
            let out = exec.try_map_n("slow", 5, None, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                i
            });
            assert_eq!(ran.load(Ordering::SeqCst), 4, "threads={threads}: item 2 must not run");
            for (i, r) in out.iter().enumerate() {
                if i == 2 {
                    let fault = r.as_ref().expect_err("armed timeout must fault");
                    assert_eq!(fault.message, DEADLINE_FAULT);
                    assert_eq!(fault.stage, "slow");
                } else {
                    assert_eq!(*r.as_ref().expect("survivor"), i, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn expired_deadline_faults_every_item_and_fresh_deadline_none() {
        let exec = Executor::new(2);
        let expired = Deadline::after(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        let out = exec.try_map_n("s", 6, Some(expired), |i| i);
        assert!(out.iter().all(|r| r.as_ref().is_err_and(|f| f.message == DEADLINE_FAULT)));

        let roomy = Deadline::after(Duration::from_secs(3600));
        let out = exec.try_map_n("s", 6, Some(roomy), |i| i);
        assert!(out.iter().all(Result::is_ok));
    }

    #[test]
    fn report_renders_and_serializes_faults() {
        let mut report = RunReport::new(1);
        report.stages.push(StageReport { items: 3, ..StageReport::new("embed") });
        report.faults.push(ItemFault::new("embed", 2, "injected fault at embed[2]"));
        assert!(report.render().contains("fault: embed[2]"));
        let json = report.to_json();
        assert!(json.contains("\"faults\":[{\"stage\":\"embed\",\"index\":2"), "{json}");
    }

    #[test]
    fn instrumented_try_map_records_spans_histograms_and_same_output() {
        for threads in [1usize, 3] {
            let obs = matelda_obs::Obs::enabled();
            let plain = Executor::new(threads);
            let traced = Executor::new(threads).with_obs(obs.clone());
            let a = plain.try_map_n("s", 16, None, |i| i * i);
            let b = traced.try_map_n("s", 16, None, |i| i * i);
            assert_eq!(a, b, "tracing must not change results (threads={threads})");

            let hist = obs.histogram("exec.item_us.s").expect("per-item latency histogram");
            assert_eq!(hist.count, 16, "one sample per work item");
            let spans = obs.spans();
            assert!(!spans.is_empty() && spans.iter().all(|s| s.cat == "exec" && s.name == "s"));
            let claimed: f64 = spans
                .iter()
                .map(|s| s.args.iter().find(|(k, _)| k == "items").map_or(0.0, |&(_, v)| v))
                .sum();
            assert_eq!(claimed as u64, 16, "worker spans account for every item");
            if threads > 1 {
                let workers: u64 = (0..threads)
                    .map(|w| obs.counter(&format!("exec.worker_items.s.w{w}")).unwrap_or(0))
                    .sum();
                assert_eq!(workers, 16, "per-worker counters account for every item");
            }
        }
    }

    #[test]
    fn disabled_obs_records_nothing_on_the_executor() {
        let exec = Executor::new(2);
        let _ = exec.try_map_n("s", 8, None, |i| i);
        assert!(!exec.obs().is_enabled());
        assert!(exec.obs().spans().is_empty());
        assert!(exec.obs().histogram("exec.item_us.s").is_none());
    }

    #[test]
    fn single_executor_never_spawns_pool_threads_or_worker_spans() {
        let obs = matelda_obs::Obs::enabled();
        let exec = Executor::single().with_obs(obs.clone());
        let out = exec.try_map_n("s", 64, None, |i| i * 3);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(exec.workers_spawned(), 0, "threads=1 must not start a pool thread");
        // Exactly the inline span — no worker lanes (tid >= 1).
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert!(spans.iter().all(|s| s.tid == 0), "no worker span may exist at threads=1");
    }

    #[test]
    fn pool_threads_spawn_lazily_and_are_shared_by_clones() {
        let exec = Executor::new(3);
        assert_eq!(exec.workers_spawned(), 0, "construction must not spawn");
        // An inline (one-item) map still spawns nothing.
        let _ = exec.map_n(1, |i| i);
        assert_eq!(exec.workers_spawned(), 0, "inline maps must not wake the pool");
        // The first parallel map spawns threads−1 workers (the caller is
        // participant 0) — and a clone reuses them rather than spawning.
        let out = exec.map_n(100, |i| i + 1);
        assert_eq!(out[99], 100);
        assert_eq!(exec.workers_spawned(), 2);
        let clone = exec.clone();
        let _ = clone.map_n(100, |i| i);
        assert_eq!(clone.workers_spawned(), 2, "clones share the run's pool");
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        let exec = Executor::new(4);
        let inner = exec.clone();
        let out = exec.map_n(8, |i| inner.map_n(4, |j| i * 10 + j).into_iter().sum::<usize>());
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn workers_survive_item_panics_and_serve_later_maps() {
        let _armed = faultpoint::arm(Vec::new()); // silence hook + exclusivity
        let exec = Executor::new(2);
        let out = exec.try_map_n("first", 8, None, |i| {
            if i == 5 {
                panic!("item 5 dies");
            }
            i
        });
        assert!(out[5].is_err() && out.iter().filter(|r| r.is_ok()).count() == 7);
        let spawned = exec.workers_spawned();
        assert_eq!(spawned, 1);
        // The same long-lived worker serves the next "stage" correctly.
        let again = exec.try_map_n("second", 8, None, |i| i * 2);
        assert!(again.iter().enumerate().all(|(i, r)| *r.as_ref().unwrap() == i * 2));
        assert_eq!(exec.workers_spawned(), spawned, "no worker died or respawned");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        // Satellite: pool-scheduled `try_map` is bit-identical to the
        // serial path at 1/2/4/8 threads under injected faultpoint
        // panics — faults included, in index order.
        #[test]
        fn pool_try_map_bit_identical_across_threads_under_injection(
            n in 1usize..48,
            fault_at in proptest::collection::vec(0usize..48, 0..6),
        ) {
            let points: Vec<(String, usize)> =
                fault_at.iter().map(|&i| ("prop".to_string(), i)).collect();
            let _armed = faultpoint::arm(points);
            let work = |i: usize| {
                faultpoint::hit("prop", i);
                (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7
            };
            let base = Executor::single().try_map_n("prop", n, None, work);
            for threads in [2usize, 4, 8] {
                let out = Executor::new(threads).try_map_n("prop", n, None, work);
                proptest::prop_assert_eq!(&out, &base);
            }
        }
    }
}
