//! Observability contract tests (DESIGN.md §7): tracing is read-only.
//!
//! * Results are bit-identical with tracing on or off, at any thread
//!   count — spans, events and metrics never feed back into the run.
//! * A traced run's span tree covers the run and every stage, and the
//!   metrics registry agrees with the run's own report.
//! * Observability stays out of the durability envelope: a traced
//!   process resumes checkpoints written by an untraced one (and vice
//!   versa) bit-identically, because snapshots and manifests never
//!   contain observability state.

use matelda::core::{Durability, Matelda, MateldaConfig, Obs, Oracle};
use matelda::lakegen::{GeneratedLake, QuintetLake};
use std::path::PathBuf;

const STAGES: [&str; 6] =
    ["embed", "featurize", "domain_folds", "quality_folds", "label", "classify"];

fn lake() -> GeneratedLake {
    QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(19)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("matelda_obs_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn traced_runs_are_bit_identical_across_thread_counts_and_to_untraced() {
    let gl = lake();
    let budget = 20;
    let run = |threads: usize, obs: Obs| {
        let mut oracle = Oracle::new(&gl.errors);
        Matelda::new(MateldaConfig { threads, ..Default::default() }).with_obs(obs).detect(
            &gl.dirty,
            &mut oracle,
            budget,
        )
    };
    let base = run(1, Obs::disabled());
    for threads in [1, 2, 4] {
        let traced = run(threads, Obs::enabled());
        assert_eq!(traced.predicted, base.predicted, "threads={threads}");
        assert_eq!(traced.labels_used, base.labels_used, "threads={threads}");
        assert_eq!(traced.n_domain_folds, base.n_domain_folds, "threads={threads}");
        assert_eq!(traced.n_quality_folds, base.n_quality_folds, "threads={threads}");
        assert_eq!(traced.quarantine, base.quarantine, "threads={threads}");
    }
}

#[test]
fn trace_covers_the_run_and_every_stage_and_agrees_with_the_report() {
    let gl = lake();
    let obs = Obs::enabled();
    let mut oracle = Oracle::new(&gl.errors);
    let result = Matelda::new(MateldaConfig { threads: 2, ..Default::default() })
        .with_obs(obs.clone())
        .detect(&gl.dirty, &mut oracle, 20);

    // Exactly one run span; the six stage spans nest under it in
    // pipeline order.
    let spans = obs.spans();
    let runs: Vec<_> = spans.iter().filter(|s| s.cat == "run").collect();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].name, "detect");
    let stages: Vec<_> = spans.iter().filter(|s| s.cat == "stage").collect();
    assert_eq!(stages.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), STAGES);
    for s in &stages {
        assert_eq!(s.parent, runs[0].id, "stage {} must nest under the run span", s.name);
    }
    // Executor spans nest under their stage, never under the run.
    for s in spans.iter().filter(|s| s.cat == "exec") {
        assert!(
            stages.iter().any(|st| st.id == s.parent),
            "exec span {} has non-stage parent {}",
            s.name,
            s.parent
        );
    }
    assert_eq!(obs.events_named("stage.end").len(), STAGES.len());

    // The registry agrees with the run's own numbers.
    assert_eq!(obs.counter("stage.items.embed"), Some(gl.dirty.n_tables() as u64));
    assert_eq!(obs.counter("label.labels_used"), Some(result.labels_used as u64));
    assert_eq!(obs.counter("label.budget"), Some(20));
    let fold_sizes = obs.histogram("quality_folds.fold_size").expect("fold-size histogram");
    assert_eq!(fold_sizes.count, result.n_quality_folds as u64);
    assert_eq!(fold_sizes.sum as usize, gl.dirty.n_cells(), "folds partition the lake's cells");

    // Every classify work item records which GBM kernel trained it, or
    // that its one-class labels gave a constant model without training;
    // binned + exact + constant must account for every model. Every
    // feature is a {0,1} flag, so no fit falls back to the exact path.
    let fits = obs.counter("classify.binned_fits").unwrap_or(0)
        + obs.counter("classify.exact_fits").unwrap_or(0)
        + obs.counter("classify.constant_fits").unwrap_or(0);
    let models = result
        .report
        .stage("classify")
        .and_then(|s| s.metric("models"))
        .expect("classify model count") as u64;
    assert_eq!(fits, models, "kernel counters must cover every classify model");
    assert_eq!(
        obs.counter("classify.exact_fits").unwrap_or(0),
        0,
        "binary features never fit exact"
    );

    // The report's per-stage wall times come from the same spans.
    assert_eq!(result.report.stages.len(), STAGES.len());
    for st in &result.report.stages {
        assert!(st.wall_secs >= 0.0);
    }
}

/// Per-stage memory (DESIGN.md §7): a traced run records each stage's
/// resident set at close, its peak so far and its change over the stage.
/// The peak is the process's high-water mark, so it never falls from one
/// stage to the next.
#[test]
#[cfg(target_os = "linux")]
fn traced_stages_record_their_resident_memory() {
    let gl = lake();
    let obs = Obs::enabled();
    let mut oracle = Oracle::new(&gl.errors);
    Matelda::default().with_obs(obs.clone()).detect(&gl.dirty, &mut oracle, 20);
    let mut peak = 0.0;
    for stage in STAGES {
        let gauge = |what: &str| obs.gauge(&format!("stage.{what}.{stage}"));
        let (rss, hwm) = (gauge("rss_bytes").expect("rss"), gauge("hwm_bytes").expect("hwm"));
        assert!(gauge("rss_delta_bytes").is_some(), "{stage}: no rss delta");
        assert!(rss > 0.0 && rss <= hwm, "{stage}: rss {rss} above peak {hwm}");
        assert!(hwm >= peak, "{stage}: peak fell from {peak} to {hwm}");
        peak = hwm;
    }
    let stage_spans = obs.spans().into_iter().filter(|s| s.cat == "stage");
    for span in stage_spans {
        for key in ["rss_open_bytes", "rss_bytes", "hwm_bytes", "rss_delta_bytes"] {
            assert!(span.args.iter().any(|(k, _)| k == key), "span {} lacks {key}", span.name);
        }
    }
}

#[test]
fn traced_resume_reads_untraced_checkpoints_bit_identically() {
    let gl = lake();
    let budget = 20;
    let dir = tmp_dir("resume");

    // A clean, untraced reference run (no checkpoints involved).
    let mut oracle = Oracle::new(&gl.errors);
    let reference = Matelda::default().detect(&gl.dirty, &mut oracle, budget);

    // An untraced durable run commits every stage...
    let write =
        Durability { checkpoint_dir: Some(dir.clone()), resume: false, ..Default::default() };
    let mut oracle = Oracle::new(&gl.errors);
    Matelda::default().detect_durable(&gl.dirty, &mut oracle, budget, &write).expect("durable run");

    // ...and a *traced* process resumes them: observability is not part
    // of the manifest or the snapshots, so the checkpoints are accepted
    // and every stage restores.
    let obs = Obs::enabled();
    let resume =
        Durability { checkpoint_dir: Some(dir.clone()), resume: true, ..Default::default() };
    let mut oracle = Oracle::new(&gl.errors);
    let resumed = Matelda::default()
        .with_obs(obs.clone())
        .detect_durable(&gl.dirty, &mut oracle, budget, &resume)
        .expect("traced resume");

    assert_eq!(resumed.predicted, reference.predicted);
    assert_eq!(resumed.labels_used, reference.labels_used);
    assert_eq!(resumed.quarantine, reference.quarantine);
    assert_eq!(obs.counter("ckpt.restored_stages"), Some(STAGES.len() as u64));
    assert_eq!(obs.events_named("ckpt.restore").len(), STAGES.len());
    assert_eq!(obs.events_named("ckpt.load").len(), STAGES.len());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn exported_artifacts_are_deterministic_given_identical_metric_state() {
    // Two traced runs of the same config produce the same *metric*
    // export modulo timing-derived values; the structural parts — names,
    // counter values, histogram counts — must match exactly. Compare
    // counters only, which carry no wall-clock.
    let gl = lake();
    let run = || {
        let obs = Obs::enabled();
        let mut oracle = Oracle::new(&gl.errors);
        Matelda::new(MateldaConfig { threads: 2, ..Default::default() })
            .with_obs(obs.clone())
            .detect(&gl.dirty, &mut oracle, 20);
        obs
    };
    let (a, b) = (run(), run());
    for name in [
        "stage.items.embed",
        "stage.items.featurize",
        "stage.items.quality_folds",
        "label.labels_used",
        "label.anchor_feature_lookups",
        "quality_folds.budget",
        "faults.items",
    ] {
        assert_eq!(a.counter(name), b.counter(name), "counter {name} diverged between runs");
    }
    assert_eq!(
        a.histogram("quality_folds.fold_size").map(|h| h.counts),
        b.histogram("quality_folds.fold_size").map(|h| h.counts),
        "fold-size distribution diverged between runs"
    );
}
