//! In-process daemon integration suite (ISSUE 7 tentpole): every clause
//! of the service robustness contract, exercised against a real
//! listening daemon with real client connections.
//!
//! All tests share one process, and faultpoint arming is process-global,
//! so every test takes the file-local [`serial`] lock first — detection
//! runs never observe another test's injected faults.

use matelda_chaos::{corrupt_file, Corruption};
use matelda_core::{DomainFolding, Matelda, MateldaConfig};
use matelda_exec::faultpoint;
use matelda_lakegen::QuintetLake;
use matelda_obs::Obs;
use matelda_serve::{
    request, serve, DetectJob, DetectOutcome, ErrorKind, Latch, Request, Response, ServeOptions,
    ServerHandle,
};
use matelda_table::{diff_lakes, read_lake_from_dir_with, write_lake_to_dir, Oracle, ReadOptions};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

const BUDGET: u64 = 20;

/// Serializes the tests in this binary: faultpoint plans are
/// process-global, so a detection running concurrently with another
/// test's armed fault would quarantine for the wrong reason.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("matelda_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a dirty/clean lake pair under a fresh temp root.
fn write_pair(tag: &str, gen_seed: u64) -> (PathBuf, PathBuf, PathBuf) {
    let root = tmp_dir(tag);
    let lake = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(gen_seed);
    let dirty = root.join("dirty");
    let clean = root.join("clean");
    write_lake_to_dir(&lake.dirty, &dirty).expect("write dirty lake");
    write_lake_to_dir(&lake.clean, &clean).expect("write clean lake");
    (root, dirty, clean)
}

/// What an uninterrupted, daemon-free run of the same job produces —
/// the baseline every daemon answer must be digest-equal to.
fn direct_digest(dirty: &Path, clean: &Path, config: MateldaConfig, budget: usize) -> u64 {
    let (dirty_lake, _) = read_lake_from_dir_with(dirty, &ReadOptions::strict()).expect("dirty");
    let (clean_lake, _) = read_lake_from_dir_with(clean, &ReadOptions::strict()).expect("clean");
    let truth = diff_lakes(&dirty_lake, &clean_lake);
    let mut oracle = Oracle::new(&truth);
    Matelda::new(config).detect(&dirty_lake, &mut oracle, budget).digest()
}

fn start(state_tag: &str, opts: ServeOptions) -> (ServerHandle, SocketAddr, PathBuf) {
    let state_dir = tmp_dir(state_tag);
    let opts = ServeOptions { state_dir: state_dir.clone(), ..opts };
    let handle = serve(opts).expect("daemon must bind");
    let addr = handle.addr();
    (handle, addr, state_dir)
}

fn job(dirty: &Path, clean: &Path, seed: u64) -> DetectJob {
    DetectJob {
        dirty_dir: dirty.to_str().unwrap().to_string(),
        clean_dir: clean.to_str().unwrap().to_string(),
        budget: BUDGET,
        seed,
        variant: "standard".to_string(),
        deadline_ms: 0,
        fresh: false,
    }
}

fn detect_ok(addr: SocketAddr, job: &DetectJob) -> DetectOutcome {
    match request(addr, &Request::Detect(job.clone())).expect("request must succeed") {
        Response::Result(outcome) => outcome,
        other => panic!("expected a result, got {other:?}"),
    }
}

fn stop(addr: SocketAddr, handle: ServerHandle) {
    match request(addr, &Request::Shutdown) {
        Ok(Response::ShutdownAck { .. }) => {}
        other => panic!("expected ShutdownAck, got {other:?}"),
    }
    handle.join();
}

/// Polls a daemon counter until it reaches `want` (bounded wait — the
/// deterministic alternative to sleeping and hoping).
fn await_counter(obs: &Obs, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while obs.counter(name).unwrap_or(0) < want {
        assert!(Instant::now() < deadline, "counter {name} never reached {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn daemon_answer_is_digest_equal_to_a_direct_run() {
    let _s = serial();
    let (root, dirty, clean) = write_pair("direct", 11);
    let baseline =
        direct_digest(&dirty, &clean, MateldaConfig { seed: 5, ..Default::default() }, 20);

    let (handle, addr, state) =
        start("direct_state", ServeOptions { threads: 2, ..Default::default() });
    let outcome = detect_ok(addr, &job(&dirty, &clean, 5));
    assert_eq!(outcome.digest, baseline, "daemon must reproduce the direct run bit-for-bit");
    assert!(!outcome.cached);
    assert!(outcome.stages_run > 0, "a first run must actually execute stages");
    assert_eq!(outcome.stages_restored, 0);
    // An unknown variant is a bad request naming it, exactly as the CLI's
    // `--variant bogus` is a usage error (`tests/cli_integration.rs`).
    let bogus = DetectJob { variant: "bogus".to_string(), ..job(&dirty, &clean, 5) };
    match request(addr, &Request::Detect(bogus)).expect("request must succeed") {
        Response::Error { kind: ErrorKind::BadRequest, message } => {
            assert_eq!(message, "unknown variant \"bogus\"");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    stop(addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn memo_hit_answers_without_running_any_stage() {
    let _s = serial();
    let (root, dirty, clean) = write_pair("memo", 12);
    let obs = Obs::enabled();
    let (handle, addr, state) =
        start("memo_state", ServeOptions { threads: 1, obs: obs.clone(), ..Default::default() });
    let j = job(&dirty, &clean, 7);

    let first = detect_ok(addr, &j);
    assert!(!first.cached);
    assert!(first.stages_run > 0);
    assert_eq!(obs.counter("serve.cache.misses"), Some(1));

    // Same manifest key: answered from the memo-cache, zero stages run
    // (the per-request obs saw no `stage.end` events at all).
    let second = detect_ok(addr, &j);
    assert!(second.cached, "an unchanged lake+config must be a cache hit");
    assert_eq!(second.stages_run, 0, "a memo hit must not run any stage");
    assert_eq!(second.stages_restored, 0);
    assert_eq!(second.digest, first.digest);
    assert_eq!(obs.counter("serve.cache.hits"), Some(1));

    // `fresh` opts out of the cache but must land on the same bits.
    let fresh = detect_ok(addr, &DetectJob { fresh: true, ..j.clone() });
    assert!(!fresh.cached);
    assert_eq!(fresh.digest, first.digest);

    stop(addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn corrupted_cache_entry_is_recomputed_never_served() {
    let _s = serial();
    let (root, dirty, clean) = write_pair("corrupt", 13);
    let obs = Obs::enabled();
    let (handle, addr, state) =
        start("corrupt_state", ServeOptions { threads: 1, obs: obs.clone(), ..Default::default() });
    let j = job(&dirty, &clean, 3);

    let first = detect_ok(addr, &j);
    assert!(!first.cached);

    // Damage the single cache entry on disk, the way a torn write or a
    // bad sector would.
    let entries: Vec<PathBuf> = std::fs::read_dir(state.join("cache"))
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "res"))
        .collect();
    assert_eq!(entries.len(), 1, "exactly one memo entry expected");
    corrupt_file(&entries[0], Corruption::Garble, 99).expect("corrupt cache entry");

    // The checksum catches it: the entry is evicted and the answer is
    // recomputed (here: restored stage-by-stage from the run's own
    // checkpoints), never decoded from the damaged bytes.
    let second = detect_ok(addr, &j);
    assert!(!second.cached, "a corrupt entry must never be served as a hit");
    assert_eq!(second.digest, first.digest);
    assert!(second.stages_restored > 0, "recompute resumes from the checkpointed frontier");
    assert_eq!(obs.counter("serve.cache.corrupt"), Some(1));

    // The recompute re-populated the cache with a valid entry.
    let third = detect_ok(addr, &j);
    assert!(third.cached);
    assert_eq!(third.digest, first.digest);

    stop(addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn concurrent_tenants_match_their_serial_baselines_at_every_width() {
    let _s = serial();
    // Two tenants: different lakes, different seeds, different variants.
    let (root_a, dirty_a, clean_a) = write_pair("tenant_a", 21);
    let (root_b, dirty_b, clean_b) = write_pair("tenant_b", 22);
    let baseline_a =
        direct_digest(&dirty_a, &clean_a, MateldaConfig { seed: 3, ..Default::default() }, 20);
    let baseline_b = direct_digest(
        &dirty_b,
        &clean_b,
        MateldaConfig {
            seed: 9,
            domain_folding: DomainFolding::ExtremeDomainFolding,
            ..Default::default()
        },
        20,
    );

    for threads in [1usize, 2, 4] {
        let (handle, addr, state) = start(
            &format!("tenants_{threads}"),
            ServeOptions { threads, max_active: 2, ..Default::default() },
        );
        let job_a = job(&dirty_a, &clean_a, 3);
        let job_b = DetectJob { variant: "edf".to_string(), ..job(&dirty_b, &clean_b, 9) };
        // Simultaneously, over the one shared pool.
        let (out_a, out_b) = std::thread::scope(|s| {
            let ta = s.spawn(|| detect_ok(addr, &job_a));
            let tb = s.spawn(|| detect_ok(addr, &job_b));
            (ta.join().expect("tenant A"), tb.join().expect("tenant B"))
        });
        assert_eq!(
            out_a.digest, baseline_a,
            "tenant A must be isolated from tenant B at {threads} server thread(s)"
        );
        assert_eq!(
            out_b.digest, baseline_b,
            "tenant B must be isolated from tenant A at {threads} server thread(s)"
        );
        stop(addr, handle);
        let _ = std::fs::remove_dir_all(state);
    }
    let _ = std::fs::remove_dir_all(root_a);
    let _ = std::fs::remove_dir_all(root_b);
}

#[test]
fn overload_degrades_to_explicit_busy_not_unbounded_queueing() {
    let _s = serial();
    let (root, dirty, clean) = write_pair("busy", 14);
    let obs = Obs::enabled();
    let hold = Latch::new();
    let (handle, addr, state) = start(
        "busy_state",
        ServeOptions {
            threads: 1,
            max_active: 1,
            max_queued: 1,
            obs: obs.clone(),
            hold: Some(hold.clone()),
            ..Default::default()
        },
    );
    let j = job(&dirty, &clean, 4);

    let responses = std::thread::scope(|s| {
        // Three identical requests into one active slot and one queue
        // slot: exactly one admits-and-holds, one queues, one must be
        // rejected with Busy carrying the gate's exact occupancy.
        let workers: Vec<_> = (0..3)
            .map(|_| s.spawn(|| request(addr, &Request::Detect(j.clone())).expect("request")))
            .collect();
        // The rejection is observable in the daemon's own telemetry;
        // only then is the gate provably full and the latch safe to
        // open.
        await_counter(&obs, "serve.busy", 1);
        hold.open();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect::<Vec<_>>()
    });

    let mut results = 0;
    let mut busy = 0;
    for resp in responses {
        match resp {
            Response::Result(_) => results += 1,
            Response::Busy { active, queued } => {
                busy += 1;
                assert_eq!((active, queued), (1, 1), "Busy must report the gate occupancy");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!((results, busy), (2, 1), "bounded gate: two served, one refused");

    stop(addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn a_deadline_degrades_the_run_and_the_daemon_survives() {
    let _s = serial();
    let (root, dirty, clean) = write_pair("deadline", 15);
    let (handle, addr, state) =
        start("deadline_state", ServeOptions { threads: 2, ..Default::default() });

    // Deterministic deadline: the armed timeout hook makes one classify
    // item read as deadline-exceeded, with a wall-clock budget (60s)
    // that never actually fires.
    let degraded = {
        let _armed = faultpoint::arm([("timeout:classify".to_string(), 0)]);
        detect_ok(addr, &DetectJob { deadline_ms: 60_000, ..job(&dirty, &clean, 6) })
    };
    // The contract: a blown deadline produces a degraded *answer* — it
    // never kills the request (no Faulted), let alone the daemon.
    assert!(!degraded.cached);

    // The daemon is fully alive: the same job without a deadline (a
    // different manifest key — the deadline is part of the config)
    // matches the uninterrupted baseline.
    let baseline =
        direct_digest(&dirty, &clean, MateldaConfig { seed: 6, ..Default::default() }, 20);
    let clean_run = detect_ok(addr, &job(&dirty, &clean, 6));
    assert_eq!(clean_run.digest, baseline);

    stop(addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn a_faulted_run_answers_its_own_client_and_the_pool_keeps_serving() {
    let _s = serial();
    let (root, dirty, clean) = write_pair("fault", 16);
    let obs = Obs::enabled();
    let (handle, addr, state) =
        start("fault_state", ServeOptions { threads: 2, obs: obs.clone(), ..Default::default() });
    let j = job(&dirty, &clean, 8);

    // A fault injected past every stage (the finalize point runs under
    // FaultPolicy::Fail semantics — it panics the run itself).
    {
        let _armed = faultpoint::arm([("finalize".to_string(), 0)]);
        match request(addr, &Request::Detect(DetectJob { fresh: true, ..j.clone() }))
            .expect("the connection must survive a faulted run")
        {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Faulted);
                assert!(message.contains("injected fault"), "got: {message}");
            }
            other => panic!("expected a Faulted error, got {other:?}"),
        }
    }
    assert_eq!(obs.counter("serve.faulted"), Some(1));

    // Quarantine is request-scoped: the shared pool and the daemon keep
    // serving, and the retried job — resuming from the checkpoints the
    // faulted run already committed — matches the direct baseline.
    let baseline =
        direct_digest(&dirty, &clean, MateldaConfig { seed: 8, ..Default::default() }, 20);
    let retried = detect_ok(addr, &j);
    assert_eq!(retried.digest, baseline);
    assert!(retried.stages_restored > 0, "the retry must reuse the faulted run's checkpoints");

    stop(addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn shutdown_drains_in_flight_runs_and_refuses_new_ones() {
    let _s = serial();
    let (root, dirty, clean) = write_pair("drain", 17);
    let obs = Obs::enabled();
    let hold = Latch::new();
    let (handle, addr, state) = start(
        "drain_state",
        ServeOptions {
            threads: 1,
            max_active: 1,
            obs: obs.clone(),
            hold: Some(hold.clone()),
            ..Default::default()
        },
    );
    let j = job(&dirty, &clean, 2);

    let (in_flight, ack) = std::thread::scope(|s| {
        let in_flight = s.spawn(|| request(addr, &Request::Detect(j.clone())).expect("detect"));
        // Wait for admission (the counter ticks as the held run passes
        // the gate, before it blocks on the latch), then shut down.
        await_counter(&obs, "serve.admitted", 1);
        let shutdown = s.spawn(move || request(addr, &Request::Shutdown).expect("shutdown"));
        // Draining refuses new work immediately — while the in-flight
        // run is still held.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(addr, &Request::Detect(j.clone())) {
                Ok(Response::ShuttingDown) => break,
                Ok(other) => panic!("admission during drain: {other:?}"),
                Err(_) => assert!(Instant::now() < deadline, "drain refusal never observed"),
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        hold.open();
        (in_flight.join().expect("in-flight client"), shutdown.join().expect("shutdown client"))
    });

    // The held run was drained to completion, not dropped.
    match in_flight {
        Response::Result(outcome) => assert!(outcome.stages_run > 0),
        other => panic!("in-flight run must complete through drain, got {other:?}"),
    }
    match ack {
        Response::ShutdownAck { drained } => assert_eq!(drained, 1),
        other => panic!("expected ShutdownAck, got {other:?}"),
    }
    handle.join();

    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn a_small_state_budget_is_never_exceeded_and_the_daemon_keeps_answering() {
    let _s = serial();
    // Size one run's state footprint with an unbudgeted daemon first.
    let (root, dirty, clean) = write_pair("budget", 31);
    let (handle, addr, state) =
        start("budget_sizing", ServeOptions { threads: 1, ..Default::default() });
    let baseline = detect_ok(addr, &job(&dirty, &clean, 40));
    let footprint = matelda_ckpt::dir_bytes(&state).expect("state dir sizes");
    stop(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
    assert!(footprint > 0, "a completed run must leave durable state");

    // A budget fitting ~3 runs, then a 6-key soak: eviction has to kick
    // in, every request still answers with the right bits, and the
    // on-disk footprint never exceeds the budget — sampled concurrently,
    // not just between requests.
    let budget = footprint * 3;
    let obs = Obs::enabled();
    let (handle, addr, state) = start(
        "budget_soak",
        ServeOptions {
            threads: 1,
            state_budget_bytes: budget,
            obs: obs.clone(),
            ..Default::default()
        },
    );
    let stop_sampling = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let state = state.clone();
        let stop_sampling = std::sync::Arc::clone(&stop_sampling);
        std::thread::spawn(move || {
            let mut max = 0u64;
            while !stop_sampling.load(std::sync::atomic::Ordering::SeqCst) {
                max = max.max(matelda_ckpt::dir_bytes(&state).unwrap_or(0));
                std::thread::sleep(Duration::from_millis(2));
            }
            max
        })
    };
    for seed in 40..46 {
        let outcome = detect_ok(addr, &job(&dirty, &clean, seed));
        assert!(!outcome.degraded, "3-run budget must fit each single active run (seed {seed})");
        if seed == 40 {
            assert_eq!(outcome.digest, baseline.digest, "budgeted daemon changes no bits");
        }
    }
    stop_sampling.store(true, std::sync::atomic::Ordering::SeqCst);
    let peak = sampler.join().expect("sampler");
    assert!(peak <= budget, "state dir peaked at {peak} bytes over the {budget}-byte budget");
    assert!(
        obs.counter("serve.state.evictions").unwrap_or(0) > 0,
        "6 runs into a 3-run budget must evict"
    );

    stop(addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}

#[test]
fn an_unpayable_budget_degrades_by_default_and_refuses_under_strict() {
    let _s = serial();
    let (root, dirty, clean) = write_pair("nospace", 32);
    let baseline =
        direct_digest(&dirty, &clean, MateldaConfig { seed: 12, ..Default::default() }, 20);

    // 16 bytes: no checkpoint (or memo entry) can ever commit. Default
    // policy answers anyway — correct bits, marked degraded, resume
    // gone — and the memo-store failure is counted, not fatal.
    let obs = Obs::enabled();
    let (handle, addr, state) = start(
        "nospace_degrade",
        ServeOptions { threads: 1, state_budget_bytes: 16, obs: obs.clone(), ..Default::default() },
    );
    let outcome = detect_ok(addr, &job(&dirty, &clean, 12));
    assert!(outcome.degraded, "an unwritable state dir must degrade the run");
    assert_eq!(outcome.digest, baseline, "degraded runs still produce the clean digest");
    assert_eq!(obs.counter("serve.degraded"), Some(1));
    assert_eq!(obs.counter("serve.cache.store_failed"), Some(1));
    stop(addr, handle);
    let _ = std::fs::remove_dir_all(state);

    // Strict durability turns the same situation into an explicit
    // StorageFull refusal — the one case that error names.
    let (handle, addr, state) = start(
        "nospace_strict",
        ServeOptions {
            threads: 1,
            state_budget_bytes: 16,
            strict_durability: true,
            ..Default::default()
        },
    );
    match request(addr, &Request::Detect(job(&dirty, &clean, 12))).expect("connection survives") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::StorageFull),
        other => panic!("expected StorageFull under strict durability, got {other:?}"),
    }
    stop(addr, handle);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(state);
}
