//! The daemon: a TCP accept loop, a bounded admission gate, one shared
//! worker pool, and a per-request robustness envelope.
//!
//! ## The robustness contract (DESIGN.md §11)
//!
//! * **Admission is bounded.** At most `max_active` detections execute
//!   at once; at most `max_queued` more wait. Anything beyond that gets
//!   an immediate [`Response::Busy`] — overload degrades to explicit
//!   backpressure, never to unbounded memory growth.
//! * **Deadlines degrade, never kill.** A request deadline becomes the
//!   pipeline's stage watchdog under `FaultPolicy::Skip`: the run
//!   quarantines what it must and returns a (reported) degraded result.
//! * **Faults are request-scoped.** Every run executes under
//!   `catch_unwind`; a panicking detection answers *its* client with
//!   [`ErrorKind::Faulted`] and the worker pool — whose threads already
//!   survive item panics — keeps serving everyone else.
//! * **Results are memoized safely.** The memo-cache key is the run
//!   manifest hash (config, lake fingerprint, seed, budget); entries
//!   are checksum-validated on read and recomputed on any damage.
//! * **Every run is durable.** Detections checkpoint per stage under
//!   `state_dir/runs/<key>`, so a killed daemon resumes a retried
//!   request from its stage frontier instead of starting over.
//! * **Shutdown drains.** A [`Request::Shutdown`] stops admission,
//!   waits for in-flight runs (each checkpointing as it goes), then
//!   acknowledges and exits.

use crate::cache::{CacheRead, MemoCache};
use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, DetectJob, DetectOutcome, ErrorKind,
    FrameError, Request, Response,
};
use crate::registry::Registry;
use crate::storage::{ActiveKey, StateStore};
use matelda_ckpt::{dir_bytes, Vfs};
use matelda_core::{CkptError, Durability, DurabilityPolicy, FaultPolicy, Matelda, MateldaConfig};
use matelda_exec::{panic_message, Executor};
use matelda_obs::{Obs, Val};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reusable open/closed latch (test seam for deterministic admission
/// tests: hold every run at its start, fill the queue, then open).
#[derive(Debug, Default)]
pub struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    /// A closed latch.
    pub fn new() -> Arc<Latch> {
        Arc::new(Latch::default())
    }

    /// Opens the latch, releasing every current and future waiter.
    pub fn open(&self) {
        *lock(&self.open) = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut open = lock(&self.open);
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:0` (0 = OS-assigned port).
    pub addr: String,
    /// Root for durable state: `runs/<key>/` checkpoint directories and
    /// the `cache/` memo-cache.
    pub state_dir: PathBuf,
    /// Worker-pool width shared by all requests (`0` = available
    /// parallelism). Thread count never changes result bits.
    pub threads: usize,
    /// Concurrent detection slots.
    pub max_active: usize,
    /// Bounded admission queue beyond the active slots.
    pub max_queued: usize,
    /// Daemon-level telemetry: per-request events, admission counters,
    /// pool shutdown leak reports.
    pub obs: Obs,
    /// Hard cap on the state directory's bytes (`0` = unlimited). When
    /// set, all durability I/O goes through a budgeted [`Vfs`] that
    /// refuses to exceed the cap, and completed state (memo entries,
    /// finished runs' checkpoints) is LRU-evicted to keep headroom for
    /// active runs (see [`crate::storage`]).
    pub state_budget_bytes: u64,
    /// `true` makes checkpoint failures fatal to the request (answered
    /// as `Checkpoint` — or `StorageFull` when the active run cannot
    /// fit the budget). The default `false` degrades: the run still
    /// answers with correct bits, marked [`DetectOutcome::degraded`],
    /// resume unavailable.
    pub strict_durability: bool,
    /// Test seam: when set, every admitted run blocks on this latch
    /// before doing any work.
    #[doc(hidden)]
    pub hold: Option<Arc<Latch>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            state_dir: std::env::temp_dir().join("matelda-serve"),
            threads: 0,
            max_active: 2,
            max_queued: 8,
            obs: Obs::disabled(),
            state_budget_bytes: 0,
            strict_durability: false,
            hold: None,
        }
    }
}

#[derive(Debug, Default)]
struct GateState {
    active: u64,
    queued: u64,
    draining: bool,
}

/// The bounded admission gate.
struct Admission {
    state: Mutex<GateState>,
    cv: Condvar,
    max_active: u64,
    max_queued: u64,
}

enum Admit {
    Go,
    Busy { active: u64, queued: u64 },
    ShuttingDown,
}

impl Admission {
    fn admit(&self) -> Admit {
        let mut g = lock(&self.state);
        if g.draining {
            return Admit::ShuttingDown;
        }
        if g.active < self.max_active {
            g.active += 1;
            return Admit::Go;
        }
        if g.queued >= self.max_queued {
            return Admit::Busy { active: g.active, queued: g.queued };
        }
        g.queued += 1;
        loop {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            if g.draining {
                g.queued -= 1;
                self.cv.notify_all();
                return Admit::ShuttingDown;
            }
            if g.active < self.max_active {
                g.queued -= 1;
                g.active += 1;
                return Admit::Go;
            }
        }
    }

    fn release(&self) {
        let mut g = lock(&self.state);
        g.active -= 1;
        self.cv.notify_all();
    }

    /// Flags draining and returns how many runs were in flight.
    fn begin_drain(&self) -> u64 {
        let mut g = lock(&self.state);
        g.draining = true;
        self.cv.notify_all();
        g.active
    }

    fn await_drained(&self) {
        let mut g = lock(&self.state);
        while g.active > 0 {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Daemon {
    admission: Admission,
    executor: Executor,
    registry: Registry,
    cache: MemoCache,
    runs_dir: PathBuf,
    storage: StateStore,
    vfs: Vfs,
    strict: bool,
    obs: Obs,
    hold: Option<Arc<Latch>>,
    /// Serializes concurrent requests for the *same* manifest key so the
    /// second one becomes a memo hit instead of a redundant recompute
    /// (and so two runs never share a checkpoint directory).
    key_locks: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    stopping: AtomicBool,
}

/// A running daemon. Dropping the handle does not stop the server; send
/// a [`Request::Shutdown`] (or kill the process — that is what the
/// checkpoints are for) and then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the accept loop to exit (i.e. for a graceful shutdown).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Binds and starts the daemon; returns once the listener is live.
pub fn serve(opts: ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let runs_dir = opts.state_dir.join("runs");
    std::fs::create_dir_all(&runs_dir)?;
    // With a budget, pre-charge whatever a restarted daemon already has
    // on disk, so adopted state counts against the cap from second one.
    let vfs = if opts.state_budget_bytes > 0 {
        Vfs::with_budget(opts.state_budget_bytes, dir_bytes(&opts.state_dir).unwrap_or(0))
    } else {
        Vfs::real()
    };
    let cache_dir = opts.state_dir.join("cache");
    let cache = MemoCache::open_with(&cache_dir, vfs.clone())?;
    let storage = StateStore::new(runs_dir.clone(), cache_dir, vfs.clone(), opts.obs.clone());
    // A restarted budgeted daemon may adopt more state than the
    // high-water mark allows; reclaim before the first request.
    storage.enforce();
    // One pool for the daemon's lifetime: every request clones the
    // executor (sharing the pool); shutdown leak reports go to the
    // daemon's obs, bounded by the pool's default join deadline.
    let executor = Executor::new(opts.threads).with_pool_obs(&opts.obs);
    let daemon = Arc::new(Daemon {
        admission: Admission {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            max_active: opts.max_active.max(1) as u64,
            max_queued: opts.max_queued as u64,
        },
        executor,
        registry: Registry::new(),
        cache,
        runs_dir,
        storage,
        vfs,
        strict: opts.strict_durability,
        obs: opts.obs.clone(),
        hold: opts.hold.clone(),
        key_locks: Mutex::new(HashMap::new()),
        stopping: AtomicBool::new(false),
    });
    let accept = std::thread::Builder::new()
        .name("matelda-serve-accept".into())
        .spawn(move || accept_loop(&listener, &daemon))
        .expect("spawn accept thread");
    Ok(ServerHandle { addr, accept: Some(accept) })
}

fn accept_loop(listener: &TcpListener, daemon: &Arc<Daemon>) {
    for conn in listener.incoming() {
        if daemon.stopping.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let daemon = Arc::clone(daemon);
        // One thread per connection: connections are few (clients, not
        // browsers) and the expensive resource — detection slots — is
        // bounded by the admission gate, not by connection count.
        let _ = std::thread::Builder::new()
            .name("matelda-serve-conn".into())
            .spawn(move || connection_loop(stream, &daemon));
    }
}

fn connection_loop(mut stream: TcpStream, daemon: &Arc<Daemon>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Oversized { claimed }) => {
                // Protocol error, connection survives: the oversized
                // payload was drained, answer and keep reading.
                daemon.obs.counter_add("serve.protocol_errors", 1);
                let resp = Response::Error {
                    kind: ErrorKind::Protocol,
                    message: FrameError::Oversized { claimed }.to_string(),
                };
                if respond(&mut stream, &resp).is_err() {
                    return;
                }
                continue;
            }
            Err(_) => return, // closed, truncated or dead socket
        };
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                daemon.obs.counter_add("serve.protocol_errors", 1);
                let resp = Response::Error {
                    kind: ErrorKind::Protocol,
                    message: format!("bad request payload: {e}"),
                };
                if respond(&mut stream, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        match request {
            Request::Ping => {
                if respond(&mut stream, &Response::Pong).is_err() {
                    return;
                }
            }
            Request::Detect(job) => {
                let resp = handle_detect(daemon, &job);
                if respond(&mut stream, &resp).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                let drained = daemon.admission.begin_drain();
                daemon.admission.await_drained();
                daemon.stopping.store(true, Ordering::Release);
                let _ = respond(&mut stream, &Response::ShutdownAck { drained });
                // Unblock the accept loop with a no-op connection.
                if let Ok(local) = stream.local_addr() {
                    let _ = TcpStream::connect(local);
                }
                return;
            }
        }
    }
}

fn respond(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    write_frame(stream, &encode_response(resp))
}

/// The run configuration of a job: its seed, its variant through the
/// table the CLI uses (an empty variant is `standard`), and its deadline.
fn config_for(job: &DetectJob) -> Result<MateldaConfig, String> {
    let mut config = MateldaConfig { seed: job.seed, ..Default::default() };
    if !job.variant.is_empty() {
        config.apply_variant(&job.variant)?;
    }
    if job.deadline_ms > 0 {
        // Degrade through the stage watchdog instead of aborting: a
        // blown deadline quarantines work items, never the process.
        config.stage_timeout = Some(Duration::from_millis(job.deadline_ms));
        config.on_error = FaultPolicy::Skip;
    }
    Ok(config)
}

fn handle_detect(daemon: &Arc<Daemon>, job: &DetectJob) -> Response {
    match daemon.admission.admit() {
        Admit::Go => daemon.obs.counter_add("serve.admitted", 1),
        Admit::Busy { active, queued } => {
            daemon.obs.counter_add("serve.busy", 1);
            return Response::Busy { active, queued };
        }
        Admit::ShuttingDown => return Response::ShuttingDown,
    }
    // From here on the slot must be released on *every* path.
    let resp = run_detect(daemon, job);
    daemon.admission.release();
    resp
}

fn run_detect(daemon: &Arc<Daemon>, job: &DetectJob) -> Response {
    if let Some(latch) = &daemon.hold {
        latch.wait();
    }
    let config = match config_for(job) {
        Ok(c) => c,
        Err(message) => return Response::Error { kind: ErrorKind::BadRequest, message },
    };
    let pair = match daemon.registry.load(job.dirty_dir.as_ref(), job.clean_dir.as_ref()) {
        Ok(p) => p,
        Err(e) => return Response::Error { kind: ErrorKind::Ingest, message: e.to_string() },
    };
    // Per-request obs: this run's spans and stage counters, isolated
    // from every other tenant's.
    let request_obs = Obs::enabled();
    let pipeline =
        Matelda::new(config).with_obs(request_obs.clone()).with_executor(daemon.executor.clone());
    let budget = job.budget as usize;
    let key = pipeline.manifest_for(pair.fingerprint, budget).hash();

    // Identical concurrent requests serialize on the key lock: the
    // first computes, the rest hit the cache it populated.
    let key_lock =
        Arc::clone(lock(&daemon.key_locks).entry(key).or_insert_with(|| Arc::new(Mutex::new(()))));
    let _key_guard = lock(&key_lock);

    if !job.fresh {
        match daemon.cache.load(key) {
            CacheRead::Hit(mut outcome) => {
                daemon.obs.counter_add("serve.cache.hits", 1);
                outcome.cached = true;
                outcome.stages_run = 0;
                outcome.stages_restored = 0;
                note_request(daemon, job, key, &outcome);
                return Response::Result(outcome);
            }
            CacheRead::Corrupt => {
                // Detected, evicted, recomputed below — never served.
                daemon.obs.counter_add("serve.cache.corrupt", 1);
            }
            CacheRead::Miss => daemon.obs.counter_add("serve.cache.misses", 1),
        }
    }

    // This key's state is now load-bearing: exempt it from eviction,
    // then reclaim completed state so the active run finds headroom.
    let _active = ActiveKey::new(&daemon.storage, key);
    daemon.storage.enforce();

    let durability = Durability {
        checkpoint_dir: Some(daemon.runs_dir.join(format!("{key:016x}"))),
        resume: true,
        // Strict tenants trade availability for a resume guarantee;
        // the default trades the guarantee for always answering.
        policy: if daemon.strict { DurabilityPolicy::Fail } else { DurabilityPolicy::Degrade },
        vfs: daemon.vfs.clone(),
    };
    let mut oracle = matelda_table::Oracle::new(&pair.truth);
    // Request-level quarantine: a panicking run (FaultPolicy::Fail, an
    // engine bug, an injected faultpoint) poisons only this response.
    // The pool's workers catch item panics themselves and outlive this.
    let run = catch_unwind(AssertUnwindSafe(|| {
        pipeline.detect_durable(&pair.dirty, &mut oracle, budget, &durability)
    }));
    let result = match run {
        Ok(Ok(result)) => result,
        Ok(Err(ckpt_err)) => {
            daemon.obs.counter_add("serve.checkpoint_errors", 1);
            // Under strict durability, a budget refusal means the
            // *active* run cannot fit (completed state was already
            // evictable) — that is the one case StorageFull names.
            let kind = match &ckpt_err {
                CkptError::Io { source, .. } if source.kind() == io::ErrorKind::StorageFull => {
                    daemon.obs.counter_add("serve.storage_full", 1);
                    ErrorKind::StorageFull
                }
                _ => ErrorKind::Checkpoint,
            };
            return Response::Error { kind, message: ckpt_err.to_string() };
        }
        Err(payload) => {
            daemon.obs.counter_add("serve.faulted", 1);
            return Response::Error {
                kind: ErrorKind::Faulted,
                message: format!("detection run faulted: {}", panic_message(payload.as_ref())),
            };
        }
    };
    if result.durability_degraded {
        daemon.obs.counter_add("serve.degraded", 1);
    }
    let outcome = DetectOutcome {
        digest: result.digest(),
        labels_used: result.labels_used as u64,
        n_domain_folds: result.n_domain_folds as u64,
        n_quality_folds: result.n_quality_folds as u64,
        flagged: result.predicted.count() as u64,
        quarantined_tables: result.quarantine.tables.len() as u64,
        // Only stages that actually executed emit `stage.end`; restored
        // ones emit `ckpt.restore` + the restored-stages counter.
        stages_run: request_obs.events_named("stage.end").len() as u64,
        stages_restored: request_obs.counter("ckpt.restored_stages").unwrap_or(0),
        cached: false,
        degraded: result.durability_degraded,
    };
    // Best-effort: a failed store only costs a recompute later, never
    // this request — but it is counted, not swallowed silently.
    if daemon.cache.store(key, &outcome).is_err() {
        daemon.obs.counter_add("serve.cache.store_failed", 1);
    }
    // Reclaim again with this run's state now evictable-sized: keeps
    // the steady-state footprint at the high-water mark between
    // requests. (The guard drops after, making this key evictable for
    // the *next* pass — its fresh mtime makes it the LRU's last pick.)
    daemon.storage.enforce();
    note_request(daemon, job, key, &outcome);
    Response::Result(outcome)
}

/// One `serve.request` event per completed request in the daemon's own
/// telemetry, keyed for cross-tenant debugging.
fn note_request(daemon: &Daemon, job: &DetectJob, key: u64, outcome: &DetectOutcome) {
    daemon.obs.counter_add("serve.requests", 1);
    if daemon.obs.is_enabled() {
        let key_hex = format!("{key:016x}");
        let digest_hex = format!("{:016x}", outcome.digest);
        daemon.obs.event(
            "serve.request",
            &[
                ("key", Val::S(&key_hex)),
                ("dirty_dir", Val::S(&job.dirty_dir)),
                ("digest", Val::S(&digest_hex)),
                ("cached", Val::U(u64::from(outcome.cached))),
                ("stages_run", Val::U(outcome.stages_run)),
                ("stages_restored", Val::U(outcome.stages_restored)),
                ("labels_used", Val::U(outcome.labels_used)),
            ],
        );
    }
}
