//! The chaos integration suite: the tentpole acceptance tests for the
//! fault-isolated pipeline.
//!
//! Contract under test (ISSUE 2): with a [`FaultPlan`] killing k of N
//! tables, `detect` under `FaultPolicy::Skip`
//!
//! 1. completes,
//! 2. quarantines exactly those k tables,
//! 3. scores the surviving N−k tables bit-identically to a faultless run
//!    on a lake containing only the survivors, and
//! 4. produces bit-identical results at 1/2/4 threads under injection.

use matelda_chaos::{faultpoint, FaultPlan};
use matelda_core::{FaultPolicy, Matelda, MateldaConfig, Obs, Oracle};
use matelda_lakegen::QuintetLake;
use matelda_table::{
    read_lake_from_dir_with, write_lake_to_dir, CellId, CellMask, Lake, ReadOptions,
};
use std::path::PathBuf;

fn skip_config(threads: usize) -> MateldaConfig {
    MateldaConfig { on_error: FaultPolicy::Skip, threads, ..Default::default() }
}

/// Projects an error mask of `original` onto a lake holding only the
/// `survivors` (original table indices, ascending).
fn project_errors(errors: &CellMask, survivors: &[usize], projected: &Lake) -> CellMask {
    let cells = errors.iter_set().filter_map(|id| {
        survivors
            .iter()
            .position(|&t| t == id.table)
            .map(|local| CellId::new(local, id.row, id.col))
    });
    CellMask::from_cells(projected, cells.collect::<Vec<_>>())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("matelda_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_tables_quarantine_and_survivors_match_a_projected_run() {
    let budget = 20;
    let gl = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(13);
    let n = gl.dirty.n_tables();
    let plan = FaultPlan::new(99);
    let points = plan.stage_points("embed", n, 2);
    let victims: Vec<usize> = points.iter().map(|(_, i)| *i).collect();
    assert_eq!(victims.len(), 2);

    let chaos = {
        let _guard = faultpoint::arm(points.clone());
        let mut oracle = Oracle::new(&gl.errors);
        Matelda::new(skip_config(2)).detect(&gl.dirty, &mut oracle, budget)
    };

    // (1) completed, (2) quarantined exactly the planned victims.
    assert_eq!(chaos.quarantine.tables, victims);
    assert_eq!(chaos.report.faults.len(), victims.len());
    assert!(chaos.report.faults.iter().all(|f| f.stage == "embed"));

    // Quarantined tables are unscored: no cell of a victim is flagged.
    for &t in &victims {
        let (rows, cols) = (gl.dirty[t].n_rows(), gl.dirty[t].n_cols());
        for r in 0..rows {
            for c in 0..cols {
                assert!(!chaos.predicted.get(CellId::new(t, r, c)), "victim {t} cell flagged");
            }
        }
    }

    // (3) survivors score bit-identically to a faultless run on a lake
    // that never contained the victims.
    let survivors: Vec<usize> = (0..n).filter(|t| !victims.contains(t)).collect();
    let projected =
        Lake::new(survivors.iter().map(|&t| gl.dirty.tables[t].clone()).collect::<Vec<_>>());
    let proj_errors = project_errors(&gl.errors, &survivors, &projected);
    let mut oracle = Oracle::new(&proj_errors);
    // Quiesced: under a parallel test runner another test may be armed.
    let _fp = faultpoint::quiesce();
    let faultless = Matelda::new(skip_config(2)).detect(&projected, &mut oracle, budget);
    assert!(faultless.quarantine.is_empty());
    assert_eq!(chaos.labels_used, faultless.labels_used);
    for (local, &t) in survivors.iter().enumerate() {
        let (rows, cols) = (projected[local].n_rows(), projected[local].n_cols());
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(
                    chaos.predicted.get(CellId::new(t, r, c)),
                    faultless.predicted.get(CellId::new(local, r, c)),
                    "survivor {t} cell ({r},{c}) diverges from the projected run"
                );
            }
        }
    }
}

#[test]
fn bit_identical_across_thread_counts_under_injection() {
    let gl = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(7);
    let plan = FaultPlan::new(5);
    // Faults in three different stages at once.
    let mut points = plan.stage_points("featurize", gl.dirty.n_tables(), 1);
    points.extend(plan.stage_points("quality_folds", 3, 1));
    points.extend(plan.stage_points("classify", 6, 1));

    let run = |threads: usize| {
        let _guard = faultpoint::arm(points.clone());
        let mut oracle = Oracle::new(&gl.errors);
        Matelda::new(skip_config(threads)).detect(&gl.dirty, &mut oracle, 20)
    };
    let base = run(1);
    assert!(!base.report.faults.is_empty(), "at least the featurize fault must fire");
    for threads in [2, 4] {
        let r = run(threads);
        assert_eq!(r.predicted, base.predicted, "threads={threads}");
        assert_eq!(r.quarantine, base.quarantine, "threads={threads}");
        assert_eq!(r.labels_used, base.labels_used, "threads={threads}");
        assert_eq!(r.report.faults, base.report.faults, "threads={threads}");
    }
}

#[test]
fn injected_faults_surface_in_the_event_log_without_changing_results() {
    let gl = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(7);
    let plan = FaultPlan::new(5);
    let mut points = plan.stage_points("featurize", gl.dirty.n_tables(), 1);
    points.extend(plan.stage_points("classify", 6, 1));

    let run = |obs: Obs| {
        let _guard = faultpoint::arm(points.clone());
        let mut oracle = Oracle::new(&gl.errors);
        Matelda::new(skip_config(2)).with_obs(obs).detect(&gl.dirty, &mut oracle, 20)
    };
    let untraced = run(Obs::disabled());
    let obs = Obs::enabled();
    let traced = run(obs.clone());

    // Observability is read-only: tracing a chaotic run changes nothing.
    assert_eq!(traced.predicted, untraced.predicted);
    assert_eq!(traced.quarantine, untraced.quarantine);
    assert_eq!(traced.report.faults, untraced.report.faults);

    // Every fault the engine recorded has a matching `fault.item` event,
    // all marked as injected (these are faultpoint panics, not organic).
    let fault_events = obs.events_named("fault.item");
    assert_eq!(fault_events.len(), traced.report.faults.len());
    assert!(!fault_events.is_empty(), "the armed faultpoints must fire");
    for ev in &fault_events {
        let injected = ev
            .fields
            .iter()
            .any(|(k, v)| k == "injected" && matches!(v, matelda_obs::OwnedVal::U(1)));
        assert!(injected, "fault event not marked injected: {ev:?}");
    }
    assert_eq!(obs.counter("faults.items"), Some(traced.report.faults.len() as u64));
}

#[test]
fn logged_corruption_matches_the_unlogged_plan() {
    let gl = QuintetLake { rows_per_table: 15, error_rate: 0.05 }.generate(9);
    let (dir_a, dir_b) = (tmp_dir("logged_a"), tmp_dir("logged_b"));
    write_lake_to_dir(&gl.dirty, &dir_a).expect("write a");
    write_lake_to_dir(&gl.dirty, &dir_b).expect("write b");

    let obs = Obs::enabled();
    let rec_logged = FaultPlan::new(31).corrupt_dir_logged(&dir_a, 2, &obs).expect("logged");
    let rec_plain = FaultPlan::new(31).corrupt_dir(&dir_b, 2).expect("plain");

    // The logging wrapper inflicts byte-identical damage...
    assert_eq!(rec_logged.len(), rec_plain.len());
    for (a, b) in rec_logged.iter().zip(&rec_plain) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.path.file_name(), b.path.file_name());
        assert_eq!(
            std::fs::read(&a.path).expect("read a"),
            std::fs::read(&b.path).expect("read b")
        );
    }
    // ...and records one event per victim plus the counter.
    assert_eq!(obs.events_named("chaos.corrupt").len(), rec_logged.len());
    assert_eq!(obs.counter("chaos.corruptions"), Some(rec_logged.len() as u64));
    std::fs::remove_dir_all(&dir_a).expect("cleanup a");
    std::fs::remove_dir_all(&dir_b).expect("cleanup b");
}

#[test]
fn corrupted_directory_ingests_under_tolerant_modes() {
    let gl = QuintetLake { rows_per_table: 20, error_rate: 0.08 }.generate(3);
    let dir = tmp_dir("ingest");
    write_lake_to_dir(&gl.dirty, &dir).expect("write lake");
    let n_files = gl.dirty.n_tables();

    let plan = FaultPlan::new(21);
    let records = plan.corrupt_dir(&dir, 3).expect("corrupt");
    assert_eq!(records.len(), 3);

    // Repair mode: never fails, every salvaged table is rectangular.
    let (lake, report) = read_lake_from_dir_with(&dir, &ReadOptions::repair()).expect("repair");
    assert_eq!(report.files.len(), n_files);
    assert!(lake.n_tables() >= n_files - 3, "the untouched files must load");
    for t in &lake.tables {
        for col in &t.columns {
            assert_eq!(col.values.len(), t.n_rows(), "{} not rectangular", t.name);
        }
    }

    // Skip mode: loaded + skipped covers every file, no panic, no error.
    let (skip_lake, skip_report) =
        read_lake_from_dir_with(&dir, &ReadOptions::skip()).expect("skip");
    assert_eq!(skip_lake.n_tables() + skip_report.skipped().count(), n_files);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corruption_is_reproducible_across_identical_directories() {
    let gl = QuintetLake { rows_per_table: 15, error_rate: 0.05 }.generate(8);
    let (dir_a, dir_b) = (tmp_dir("repro_a"), tmp_dir("repro_b"));
    write_lake_to_dir(&gl.dirty, &dir_a).expect("write a");
    write_lake_to_dir(&gl.dirty, &dir_b).expect("write b");

    let rec_a = FaultPlan::new(17).corrupt_dir(&dir_a, 2).expect("corrupt a");
    let rec_b = FaultPlan::new(17).corrupt_dir(&dir_b, 2).expect("corrupt b");
    assert_eq!(rec_a.len(), rec_b.len());
    for (a, b) in rec_a.iter().zip(&rec_b) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.path.file_name(), b.path.file_name());
        let bytes_a = std::fs::read(&a.path).expect("read a");
        let bytes_b = std::fs::read(&b.path).expect("read b");
        assert_eq!(bytes_a, bytes_b, "{:?} corruption diverged", a.path.file_name());
    }
    std::fs::remove_dir_all(&dir_a).expect("cleanup a");
    std::fs::remove_dir_all(&dir_b).expect("cleanup b");
}

#[test]
fn end_to_end_chaos_run_completes() {
    // Both fault layers at once: corrupted files ingested tolerantly,
    // then detection with stage faults injected on top.
    let gl = QuintetLake { rows_per_table: 20, error_rate: 0.1 }.generate(11);
    let dir = tmp_dir("end_to_end");
    write_lake_to_dir(&gl.dirty, &dir).expect("write lake");
    let plan = FaultPlan::new(4);
    plan.corrupt_dir(&dir, 2).expect("corrupt");

    let (lake, _report) = read_lake_from_dir_with(&dir, &ReadOptions::repair()).expect("ingest");
    assert!(lake.n_tables() >= 3);

    let points = plan.stage_points("featurize", lake.n_tables(), 1);
    let _guard = faultpoint::arm(points);
    // The repaired lake has no ground truth; a constant labeler stands in.
    struct AlwaysClean(usize);
    impl matelda_core::Labeler for AlwaysClean {
        fn label(&mut self, _cell: CellId) -> bool {
            self.0 += 1;
            false
        }
        fn labels_used(&self) -> usize {
            self.0
        }
    }
    let mut labeler = AlwaysClean(0);
    let result = Matelda::new(skip_config(2)).detect(&lake, &mut labeler, 15);
    assert_eq!(result.quarantine.tables.len(), 1);
    assert_eq!(result.predicted.n_cells(), lake.n_cells());
    assert!(result.labels_used <= 15);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn workers_that_caught_item_panics_keep_serving_later_stages() {
    // The pool's workers are long-lived (ISSUE 6): an item panic on one
    // stage is caught on the worker via `catch_unwind`, and that same
    // worker — not a respawned replacement — must execute subsequent
    // stages' items. Two faulty maps followed by a clean one on the same
    // executor, with the spawn count pinned throughout.
    let exec = matelda_exec::Executor::new(4);
    let _guard =
        faultpoint::arm(vec![("s1".to_string(), 3), ("s1".to_string(), 11), ("s2".to_string(), 0)]);

    for stage in ["s1", "s2"] {
        let out = exec.try_map_n(stage, 16, None, |i| {
            faultpoint::hit(stage, i);
            i * 2
        });
        let faults: Vec<usize> = (0..16).filter(|&i| out[i].is_err()).collect();
        let expected: Vec<usize> = if stage == "s1" { vec![3, 11] } else { vec![0] };
        assert_eq!(faults, expected, "stage {stage}");
        for (i, r) in out.iter().enumerate() {
            if let Ok(v) = r {
                assert_eq!(*v, i * 2);
            }
        }
    }
    let spawned = exec.workers_spawned();
    assert_eq!(spawned, 3, "4-thread pool = caller + 3 workers");

    // A clean third stage runs on the very same workers.
    let clean = exec.try_map_n("s3", 16, None, |i| i + 1);
    assert!(clean.iter().all(|r| r.is_ok()));
    assert_eq!(
        exec.workers_spawned(),
        spawned,
        "no worker died or was respawned after the caught panics"
    );
}
