//! Fault-policy contract tests: every test here arms faultpoints.
//!
//! The faultpoint plan is process-global, so arming tests live in their
//! own binary where each one holds `faultpoint::arm`'s exclusivity lock
//! for its whole run. No control run elsewhere can trip a point armed
//! here, and no test here sees another's plan.

use matelda_core::{FaultPolicy, Matelda, MateldaConfig, Obs, OutOfCoreOpts};
use matelda_exec::{faultpoint, panic_message, DEADLINE_FAULT};
use matelda_lakegen::QuintetLake;
use matelda_table::chunked::{read_lake_columnar, write_lake_columnar, StdFs};
use matelda_table::oracle::{Labeler, Oracle};
use matelda_table::CellId;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn arm(points: &[(&str, usize)]) -> faultpoint::ArmedGuard {
    faultpoint::arm(points.iter().map(|&(s, i)| (s.to_string(), i)))
}

/// A deterministic labeler keyed on the cell id alone, so the in-memory
/// lake and the out-of-core skeleton get the same answers.
struct HashLabeler(usize);

impl Labeler for HashLabeler {
    fn label(&mut self, id: CellId) -> bool {
        self.0 += 1;
        (id.table * 31 + id.row * 7 + id.col).is_multiple_of(3)
    }
    fn labels_used(&self) -> usize {
        self.0
    }
}

#[test]
fn skip_policy_quarantines_faulted_table_and_completes() {
    let lake = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(9);
    let cfg = MateldaConfig { on_error: FaultPolicy::Skip, threads: 2, ..Default::default() };
    let _guard = arm(&[("embed", 1)]);
    let mut oracle = Oracle::new(&lake.errors);
    let result = Matelda::new(cfg).detect(&lake.dirty, &mut oracle, 20);
    assert_eq!(result.quarantine.tables, vec![1]);
    assert_eq!(result.report.faults.len(), 1);
    assert_eq!(result.report.faults[0].stage, "embed");
    assert_eq!(result.report.faults[0].index, 1);
    // Quarantined cells are unscored: nothing in table 1 is flagged.
    let (rows, cols) = (lake.dirty[1].n_rows(), lake.dirty[1].n_cols());
    for r in 0..rows {
        for c in 0..cols {
            assert!(!result.predicted.get(CellId::new(1, r, c)));
        }
    }
    // The rest of the lake still gets predictions.
    assert_eq!(result.predicted.n_cells(), lake.dirty.n_cells());
}

#[test]
fn fail_policy_panics_on_injected_fault() {
    let lake = QuintetLake { rows_per_table: 20, error_rate: 0.1 }.generate(3);
    let cfg = MateldaConfig { threads: 1, ..Default::default() }; // Fail is the default
    let _guard = arm(&[("featurize", 0)]);
    let mut oracle = Oracle::new(&lake.errors);
    let caught =
        catch_unwind(AssertUnwindSafe(|| Matelda::new(cfg).detect(&lake.dirty, &mut oracle, 10)));
    let payload = caught.expect_err("fault must abort under Fail");
    let msg = panic_message(payload.as_ref());
    assert!(msg.contains("featurize[0]"), "unexpected panic message: {msg}");
}

#[test]
fn quality_fold_fault_degrades_to_single_fold() {
    let lake = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(4);
    let cfg = MateldaConfig { on_error: FaultPolicy::Skip, threads: 1, ..Default::default() };
    let budget = 20;
    let _guard = arm(&[("quality_folds", 0)]);
    let mut oracle = Oracle::new(&lake.errors);
    let result = Matelda::new(cfg).detect(&lake.dirty, &mut oracle, budget);
    assert_eq!(result.quarantine.fold_fallbacks, vec![0]);
    assert!(result.quarantine.tables.is_empty());
    assert!(result.labels_used <= budget, "budget overspent: {}", result.labels_used);
    assert!(result.n_quality_folds >= 1);
}

#[test]
fn classify_fault_falls_back_to_propagated_labels() {
    let lake = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(6);
    let cfg = MateldaConfig { on_error: FaultPolicy::Skip, threads: 2, ..Default::default() };
    let _guard = arm(&[("classify", 0)]);
    let mut oracle = Oracle::new(&lake.errors);
    let result = Matelda::new(cfg).detect(&lake.dirty, &mut oracle, 30);
    assert_eq!(result.quarantine.columns.len(), 1);
    assert_eq!(result.report.faults.len(), 1);
    assert_eq!(result.report.faults[0].stage, "classify");
    assert_eq!(result.predicted.n_cells(), lake.dirty.n_cells());
}

#[test]
fn armed_stage_timeout_degrades_like_a_fault() {
    let lake = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(6);
    let cfg = MateldaConfig { on_error: FaultPolicy::Skip, threads: 2, ..Default::default() };
    let _guard = arm(&[("timeout:classify", 0)]);
    let mut oracle = Oracle::new(&lake.errors);
    let r = Matelda::new(cfg).detect(&lake.dirty, &mut oracle, 30);
    assert_eq!(r.quarantine.columns.len(), 1, "deadline fault must degrade one column");
    assert_eq!(r.report.faults.len(), 1);
    assert_eq!(r.report.faults[0].stage, "classify");
    assert_eq!(r.report.faults[0].message, DEADLINE_FAULT);
    assert_eq!(r.predicted.n_cells(), lake.dirty.n_cells());
}

#[test]
fn armed_stage_timeout_aborts_under_fail_policy() {
    let lake = QuintetLake { rows_per_table: 20, error_rate: 0.1 }.generate(7);
    let cfg = MateldaConfig { threads: 1, ..Default::default() }; // Fail is default
    let _guard = arm(&[("timeout:embed", 0)]);
    let mut oracle = Oracle::new(&lake.errors);
    let caught =
        catch_unwind(AssertUnwindSafe(|| Matelda::new(cfg).detect(&lake.dirty, &mut oracle, 10)));
    let payload = caught.expect_err("deadline fault must abort under Fail");
    let msg = panic_message(payload.as_ref());
    assert!(msg.contains(DEADLINE_FAULT), "unexpected panic message: {msg}");
}

/// Out of core and in memory quarantine the same tables, log the same
/// faults in the same order and land the same digest — for injected
/// panics and for an armed watchdog alike, at every thread count. A
/// traced out-of-core run nests its six stage spans under one run span.
#[test]
fn out_of_core_faults_match_in_memory_at_every_thread_count() {
    let gen = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(21);
    let dir = std::env::temp_dir().join(format!("matelda_fault_policy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lake_dir = dir.join("lake");
    write_lake_columnar(&StdFs, &lake_dir, &gen.dirty).expect("write lake");
    // The columnar directory is read in file-name order, so the
    // in-memory reference must be too.
    let lake = read_lake_columnar(&StdFs, &lake_dir, 64 * 1024).expect("read lake");
    let budget = 20;
    let cases: [&[(&str, usize)]; 3] =
        [&[("embed", 1)], &[("featurize", 0), ("embed", 1)], &[("timeout:featurize", 0)]];
    for points in cases {
        let _guard = arm(points);
        for threads in [1usize, 2, 4] {
            let cfg = MateldaConfig { on_error: FaultPolicy::Skip, threads, ..Default::default() };
            let memory = Matelda::new(cfg.clone()).detect(&lake, &mut HashLabeler(0), budget);
            assert!(!memory.quarantine.tables.is_empty(), "{points:?}: nothing quarantined");
            let obs = Obs::enabled();
            let spill = dir.join(format!("spill_{threads}"));
            let ooc = Matelda::new(cfg)
                .with_obs(obs.clone())
                .detect_out_of_core(
                    &StdFs,
                    &lake_dir,
                    &mut HashLabeler(0),
                    budget,
                    &OutOfCoreOpts::new(spill),
                )
                .expect("out-of-core run")
                .result;
            let ctx = format!("{points:?} threads={threads}");
            assert_eq!(ooc.digest(), memory.digest(), "{ctx}");
            assert_eq!(ooc.quarantine, memory.quarantine, "{ctx}");
            let faults = |r: &matelda_core::DetectionResult| -> Vec<(String, usize)> {
                r.report.faults.iter().map(|f| (f.stage.clone(), f.index)).collect()
            };
            assert_eq!(faults(&ooc), faults(&memory), "{ctx}");

            let spans = obs.spans();
            let runs: Vec<_> = spans.iter().filter(|s| s.cat == "run").collect();
            assert_eq!(runs.len(), 1, "{ctx}");
            let stages: Vec<_> = spans.iter().filter(|s| s.cat == "stage").collect();
            assert_eq!(stages.len(), 6, "{ctx}");
            assert!(stages.iter().all(|s| s.parent == runs[0].id), "{ctx}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
