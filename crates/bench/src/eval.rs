//! The accuracy gate: every experiment binary appends structured
//! precision/recall/F1 rows — one `ALL` row per run plus one
//! per-error-type recall row — into a shared `EVAL_matrix.json`, keyed
//! by (experiment × lake template × system × error type × budget ×
//! seed). `run_all_experiments.sh` assembles the committed baseline;
//! the `eval_gate` binary compares a fresh matrix against it and fails
//! CI on accuracy regressions (see DESIGN.md, "Accuracy contract").
//!
//! Gate clauses (`compare_eval`):
//!
//! * cells carry the `MATELDA_SCALE` they were produced at and are
//!   gated per scale (accuracy at different lake sizes is not
//!   comparable): a fresh matrix is checked against exactly the
//!   baseline cells whose scale it re-ran, and no scale overlap at all
//!   is a violation;
//! * every fresh metric must be finite and inside `[0, 1]` — a NaN or
//!   out-of-range cell is a harness bug, not a regression band issue;
//! * every baseline cell must still be present in the fresh matrix;
//! * per cell, neither F1 nor recall may drop by more than
//!   [`EvalGateConfig::max_drop_pct`] percent of the baseline value;
//! * a per-type cell that had support in the baseline must not become
//!   vacuous (zero errors of that type) in the fresh matrix.
//!
//! Per-type cells with zero support carry `recall: null` (see
//! `PerTypeRecall`) and are skipped by the gate — "nothing to recall"
//! is not a regression.

use crate::json::Json;
use crate::{RunResult, Scale};
use matelda_lakegen::GeneratedLake;
use matelda_table::{CellMask, PerTypeRecall};
use std::path::PathBuf;

/// The error-type key of a run's overall precision/recall/F1 row.
pub const ALL: &str = "ALL";

/// Maps the generator's error-type abbreviations to the paper's Table 3
/// categories. `NO` (numeric outliers) keeps its own key: the paper
/// folds outliers into its lake-specific taxonomies, but the eval
/// matrix pins them separately so an outlier-recall collapse is
/// attributable.
pub fn paper_category(abbrev: &str) -> &'static str {
    match abbrev {
        "MV" => "MV",
        "FI" => "REP",
        "VAD" => "SEM",
        "T" => "TYP",
        "NO" => "NO",
        _ => "?",
    }
}

/// One accuracy cell: the metrics of one system on one lake at one
/// budget and seed, either overall (`error_type == ALL`) or the recall
/// of one error type.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalCell {
    /// The experiment binary that produced the row (`fig3`, `table2`, …).
    pub experiment: String,
    /// The `MATELDA_SCALE` the row was produced at. Part of the cell
    /// key, so rows from a `large-ci` out-of-core run live alongside the
    /// quick/full baseline cells instead of colliding with them.
    pub scale: String,
    /// Lake template name (`Quintet`, `DGov-NTR`, `GitTables-50`, …).
    pub template: String,
    /// System label (`Matelda`, `Raha`, `Matelda-EDF`, …).
    pub system: String,
    /// [`ALL`] for the overall row, or a `paper_category` key.
    pub error_type: String,
    /// Labeling budget (labeled tuples per table).
    pub budget: f64,
    /// Lake generation seed.
    pub seed: u64,
    /// Overall precision; `None` on per-type rows.
    pub precision: Option<f64>,
    /// Overall or per-type recall; `None` when the type has no errors.
    pub recall: Option<f64>,
    /// Overall F1; `None` on per-type rows.
    pub f1: Option<f64>,
    /// Ground-truth error count behind a per-type row; `None` on `ALL`
    /// rows.
    pub support: Option<usize>,
}

impl EvalCell {
    /// The identity a cell is matched by across matrices.
    fn key(&self) -> (&str, &str, &str, &str, &str, u64, u64) {
        (
            &self.scale,
            &self.experiment,
            &self.template,
            &self.system,
            &self.error_type,
            self.budget.to_bits(),
            self.seed,
        )
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("scale".to_string(), Json::Str(self.scale.clone())),
            ("template".to_string(), Json::Str(self.template.clone())),
            ("system".to_string(), Json::Str(self.system.clone())),
            ("error_type".to_string(), Json::Str(self.error_type.clone())),
            ("budget".to_string(), Json::Num(self.budget)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
        ];
        let mut metric = |name: &str, v: Option<f64>| {
            if let Some(v) = v {
                fields.push((name.to_string(), Json::Num(v)));
            }
        };
        metric("precision", self.precision);
        metric("recall", self.recall);
        metric("f1", self.f1);
        if let Some(s) = self.support {
            fields.push(("support".to_string(), Json::Num(s as f64)));
        }
        Json::Obj(fields)
    }

    /// Parses a cell.
    fn from_json(v: &Json) -> Result<Self, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell missing `{key}`"))
        };
        let num = |key: &str| v.get(key).and_then(Json::as_num);
        Ok(EvalCell {
            experiment: text("experiment")?,
            scale: text("scale")?,
            template: text("template")?,
            system: text("system")?,
            error_type: text("error_type")?,
            budget: num("budget").ok_or("cell missing `budget`")?,
            seed: num("seed").ok_or("cell missing `seed`")? as u64,
            precision: num("precision"),
            recall: num("recall"),
            f1: num("f1"),
            support: num("support").map(|s| s as usize),
        })
    }

    /// Short display form for violation messages.
    fn label(&self) -> String {
        format!(
            "{}@{}/{}/{}/{} @ budget {} seed {}",
            self.experiment,
            self.scale,
            self.template,
            self.system,
            self.error_type,
            self.budget,
            self.seed
        )
    }
}

/// A full accuracy matrix. Cells carry their own scale; the matrix-level
/// `scale` records the last writer's scale.
#[derive(Debug, Clone, Default)]
pub struct EvalMatrix {
    /// The `MATELDA_SCALE` of the most recent flush into this file.
    pub scale: String,
    /// All accuracy cells, sorted on render.
    pub cells: Vec<EvalCell>,
}

impl EvalMatrix {
    /// Parses a matrix document produced by [`EvalMatrix::render`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let scale =
            doc.get("scale").and_then(Json::as_str).ok_or("matrix missing `scale`")?.to_string();
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("matrix missing `cells`")?
            .iter()
            .map(EvalCell::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EvalMatrix { scale, cells })
    }

    /// Renders the matrix with sorted cells, one per line — stable under
    /// re-runs (the pipeline is deterministic) and diffable when
    /// re-baselining.
    pub fn render(&self) -> String {
        let mut cells = self.cells.clone();
        cells.sort_by(|a, b| a.key().cmp(&b.key()));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("\"eval\": \"matelda\",\n");
        out.push_str(&format!("\"scale\": {},\n", Json::Str(self.scale.clone()).render()));
        out.push_str("\"cells\": [\n");
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&cell.to_json().render());
            if i + 1 < cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Collects one experiment binary's accuracy rows and merges them into
/// the shared matrix file on [`EvalRecorder::flush`]. The target path is
/// `EVAL_matrix.json` in the working directory, overridable via
/// `MATELDA_EVAL_OUT` (CI points it at a scratch file to diff against
/// the committed baseline).
#[derive(Debug)]
pub struct EvalRecorder {
    pub(crate) experiment: String,
    scale: String,
    path: PathBuf,
    pub(crate) cells: Vec<EvalCell>,
}

impl EvalRecorder {
    /// A recorder for one experiment binary.
    pub fn for_experiment(experiment: &str, scale: Scale) -> Self {
        let path = std::env::var("MATELDA_EVAL_OUT").unwrap_or_else(|_| "EVAL_matrix.json".into());
        EvalRecorder {
            experiment: experiment.to_string(),
            scale: scale.name().to_string(),
            path: PathBuf::from(path),
            cells: Vec::new(),
        }
    }

    /// Records a full run: the overall `ALL` row plus one recall row per
    /// error type in the lake's typed truth.
    pub fn record_run(
        &mut self,
        template: &str,
        system: &str,
        budget: f64,
        seed: u64,
        result: &RunResult,
        lake: &GeneratedLake,
    ) {
        self.record_metrics(
            template,
            system,
            budget,
            seed,
            result.precision,
            result.recall,
            result.f1,
        );
        self.record_types(template, system, budget, seed, &result.predicted, &lake.typed_errors);
    }

    /// Records just the overall precision/recall/F1 row — for bespoke
    /// protocols (Table 2's pooled sampling) that never build a mask per
    /// error type.
    #[allow(clippy::too_many_arguments)] // mirrors the cell's key + metrics, call sites read flat
    pub fn record_metrics(
        &mut self,
        template: &str,
        system: &str,
        budget: f64,
        seed: u64,
        precision: f64,
        recall: f64,
        f1: f64,
    ) {
        self.cells.push(EvalCell {
            experiment: self.experiment.clone(),
            scale: self.scale.clone(),
            template: template.to_string(),
            system: system.to_string(),
            error_type: ALL.to_string(),
            budget,
            seed,
            precision: Some(precision),
            recall: Some(recall),
            f1: Some(f1),
            support: None,
        });
    }

    /// Records per-type recall rows for a predicted mask against typed
    /// ground truth (generator abbreviations; mapped to paper
    /// categories).
    pub fn record_types(
        &mut self,
        template: &str,
        system: &str,
        budget: f64,
        seed: u64,
        predicted: &CellMask,
        typed_errors: &[(String, CellMask)],
    ) {
        let typed: Vec<(String, CellMask)> =
            typed_errors.iter().map(|(n, m)| (paper_category(n).to_string(), m.clone())).collect();
        for tr in PerTypeRecall::compute(predicted, &typed).recalls {
            self.cells.push(EvalCell {
                experiment: self.experiment.clone(),
                scale: self.scale.clone(),
                template: template.to_string(),
                system: system.to_string(),
                error_type: tr.name,
                budget,
                seed,
                precision: None,
                recall: tr.recall,
                f1: None,
                support: Some(tr.support),
            });
        }
    }

    /// Merges this experiment's rows into the shared matrix file: only
    /// this experiment's old rows *at this scale* are replaced — rows
    /// from other experiments, and rows from the same experiment at
    /// other scales (e.g. a `large-ci` out-of-core run next to the
    /// `full` baseline), are kept. The write is atomic (tmp + rename)
    /// so a crashed experiment cannot tear the matrix.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut matrix = match std::fs::read_to_string(&self.path) {
            Ok(text) => {
                Json::parse(&text).and_then(|doc| EvalMatrix::from_json(&doc)).unwrap_or_default()
            }
            Err(_) => EvalMatrix::default(),
        };
        matrix.scale = self.scale.clone();
        matrix.cells.retain(|c| !(c.experiment == self.experiment && c.scale == self.scale));
        matrix.cells.extend(self.cells.iter().cloned());
        let tmp = self.path.with_extension("json.tmp");
        std::fs::write(&tmp, matrix.render())?;
        std::fs::rename(&tmp, &self.path)
    }
}

/// Accuracy-gate thresholds.
#[derive(Debug, Clone, Copy)]
pub struct EvalGateConfig {
    /// Maximum tolerated relative drop of a cell's F1 or recall, in
    /// percent of the baseline value.
    pub max_drop_pct: f64,
}

impl Default for EvalGateConfig {
    fn default() -> Self {
        // 10%: the pipeline and lake generation are seed-deterministic,
        // so a rerun at the same scale reproduces the baseline exactly —
        // the band only has to absorb cross-platform float noise, and
        // 10% still catches any real sampler or kernel regression.
        EvalGateConfig { max_drop_pct: 10.0 }
    }
}

/// Compares a fresh accuracy matrix against the committed baseline and
/// returns every violation as a human-readable line. Empty = pass.
pub fn compare_eval(baseline: &Json, fresh: &Json, cfg: EvalGateConfig) -> Vec<String> {
    let mut violations = Vec::new();
    let base = match EvalMatrix::from_json(baseline) {
        Ok(m) => m,
        Err(e) => return vec![format!("baseline matrix malformed: {e}")],
    };
    let fresh = match EvalMatrix::from_json(fresh) {
        Ok(m) => m,
        Err(e) => return vec![format!("fresh matrix malformed: {e}")],
    };
    // Scales are compared per cell: a fresh matrix gates exactly the
    // baseline cells whose scale it re-ran (so a `full` re-run never
    // "misses" the baseline's `large-ci` rows and vice versa). No
    // overlap at all means the runs are not comparable.
    let fresh_scales: std::collections::BTreeSet<&str> =
        fresh.cells.iter().map(|c| c.scale.as_str()).collect();
    let base_scales: std::collections::BTreeSet<&str> =
        base.cells.iter().map(|c| c.scale.as_str()).collect();
    if !base.cells.is_empty() && base_scales.intersection(&fresh_scales).next().is_none() {
        violations.push(format!(
            "scale mismatch: baseline ran at {base_scales:?}, fresh at {fresh_scales:?} — \
             accuracy not comparable",
        ));
        return violations;
    }

    // Clause: every fresh metric is finite and inside [0, 1].
    for cell in &fresh.cells {
        for (name, v) in [("precision", cell.precision), ("recall", cell.recall), ("f1", cell.f1)] {
            if let Some(v) = v {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    violations.push(format!(
                        "cell {}: {name} is {v} — not a valid metric in [0, 1]",
                        cell.label()
                    ));
                }
            }
        }
    }

    // Clauses: presence and drop band, per baseline cell whose scale
    // the fresh matrix covers.
    for cell in &base.cells {
        if !fresh_scales.contains(cell.scale.as_str()) {
            continue;
        }
        let Some(found) = fresh.cells.iter().find(|c| c.key() == cell.key()) else {
            violations.push(format!(
                "cell {} present in baseline but missing from fresh matrix",
                cell.label()
            ));
            continue;
        };
        for (name, base_v, fresh_v) in
            [("f1", cell.f1, found.f1), ("recall", cell.recall, found.recall)]
        {
            let Some(base_v) = base_v else {
                continue; // vacuous in the baseline (zero support) — nothing to gate
            };
            let Some(fresh_v) = fresh_v else {
                violations.push(format!(
                    "cell {}: {name} was {base_v:.4} in baseline but is vacuous/absent in fresh \
                     matrix (support collapsed?)",
                    cell.label()
                ));
                continue;
            };
            if base_v > 0.0 {
                let drop_pct = 100.0 * (base_v - fresh_v) / base_v;
                if drop_pct > cfg.max_drop_pct {
                    violations.push(format!(
                        "cell {}: {name} dropped {drop_pct:.1}% ({base_v:.4} -> {fresh_v:.4}, \
                         limit {limit:.0}%)",
                        cell.label(),
                        limit = cfg.max_drop_pct
                    ));
                }
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> EvalMatrix {
        EvalMatrix {
            scale: "quick".to_string(),
            cells: vec![
                EvalCell {
                    experiment: "fig3".into(),
                    scale: "quick".into(),
                    template: "Quintet".into(),
                    system: "Matelda".into(),
                    error_type: ALL.into(),
                    budget: 2.0,
                    seed: 1,
                    precision: Some(0.8),
                    recall: Some(0.75),
                    f1: Some(0.7742),
                    support: None,
                },
                EvalCell {
                    experiment: "fig3".into(),
                    scale: "quick".into(),
                    template: "Quintet".into(),
                    system: "Matelda".into(),
                    error_type: "MV".into(),
                    budget: 2.0,
                    seed: 1,
                    precision: None,
                    recall: Some(0.95),
                    f1: None,
                    support: Some(40),
                },
                EvalCell {
                    experiment: "fig3".into(),
                    scale: "quick".into(),
                    template: "Quintet".into(),
                    system: "Matelda".into(),
                    error_type: "NO".into(),
                    budget: 2.0,
                    seed: 1,
                    precision: None,
                    recall: None,
                    f1: None,
                    support: Some(0),
                },
            ],
        }
    }

    fn reparse(m: &EvalMatrix) -> Json {
        Json::parse(&m.render()).expect("rendered matrix parses")
    }

    /// Rebuilds the matrix with one metric of one cell transformed.
    fn with_metric(
        m: &EvalMatrix,
        error_type: &str,
        metric: &str,
        f: impl Fn(Option<f64>) -> Option<f64>,
    ) -> EvalMatrix {
        let mut out = m.clone();
        for cell in &mut out.cells {
            if cell.error_type == error_type {
                match metric {
                    "precision" => cell.precision = f(cell.precision),
                    "recall" => cell.recall = f(cell.recall),
                    "f1" => cell.f1 = f(cell.f1),
                    _ => unreachable!(),
                }
            }
        }
        out
    }

    #[test]
    fn round_trip_identical_matrices_pass() {
        let m = sample_matrix();
        let doc = reparse(&m);
        let back = EvalMatrix::from_json(&doc).expect("parses back");
        assert_eq!(back.scale, m.scale);
        assert_eq!(back.cells.len(), m.cells.len());
        let v = compare_eval(&doc, &doc, EvalGateConfig::default());
        assert!(v.is_empty(), "identical matrices must pass: {v:?}");
    }

    #[test]
    fn gate_rejects_a_twenty_percent_f1_drop() {
        let base = sample_matrix();
        let dropped = with_metric(&base, ALL, "f1", |v| v.map(|x| x * 0.8));
        let v = compare_eval(&reparse(&base), &reparse(&dropped), EvalGateConfig::default());
        assert_eq!(v.len(), 1, "exactly the F1 clause: {v:?}");
        assert!(v[0].contains("f1 dropped 20.0%"), "{v:?}");
        // A 5% drop stays inside the default 10% band.
        let ok = with_metric(&base, ALL, "f1", |v| v.map(|x| x * 0.95));
        assert!(compare_eval(&reparse(&base), &reparse(&ok), EvalGateConfig::default()).is_empty());
    }

    #[test]
    fn gate_rejects_a_recall_collapse() {
        let base = sample_matrix();
        let collapsed = with_metric(&base, "MV", "recall", |v| v.map(|x| x * 0.2));
        let v = compare_eval(&reparse(&base), &reparse(&collapsed), EvalGateConfig::default());
        assert_eq!(v.len(), 1, "exactly the MV recall clause: {v:?}");
        assert!(v[0].contains("MV") && v[0].contains("recall dropped 80.0%"), "{v:?}");
    }

    #[test]
    fn gate_rejects_a_nan_cell() {
        let base = sample_matrix();
        let poisoned = with_metric(&base, ALL, "recall", |_| Some(f64::NAN));
        // NaN cannot round-trip through JSON (it renders as null), so
        // feed the in-memory document — the gate must reject it before
        // any file ever carries it.
        let mut fields = vec![("scale".to_string(), Json::Str("quick".to_string()))];
        fields.push((
            "cells".to_string(),
            Json::Arr(poisoned.cells.iter().map(|c| c.to_json()).collect()),
        ));
        let poisoned_doc = Json::Obj(fields);
        let v = compare_eval(&reparse(&base), &poisoned_doc, EvalGateConfig::default());
        assert!(
            v.iter().any(|m| m.contains("NaN") || m.contains("not a valid metric")),
            "NaN must be a violation: {v:?}"
        );
        // Out-of-range metrics are rejected the same way.
        let oor = with_metric(&base, ALL, "precision", |_| Some(1.5));
        let v = compare_eval(&reparse(&base), &reparse(&oor), EvalGateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("not a valid metric"), "{v:?}");
    }

    #[test]
    fn gate_flags_missing_cell_and_scale_mismatch() {
        let base = sample_matrix();
        let mut pruned = base.clone();
        pruned.cells.retain(|c| c.error_type != "MV");
        let v = compare_eval(&reparse(&base), &reparse(&pruned), EvalGateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing"), "{v:?}");

        let mut rescaled = base.clone();
        rescaled.scale = "full".to_string();
        for c in &mut rescaled.cells {
            c.scale = "full".to_string();
        }
        let v = compare_eval(&reparse(&base), &reparse(&rescaled), EvalGateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("scale mismatch"), "{v:?}");
    }

    #[test]
    fn gate_scopes_presence_to_the_scales_the_fresh_matrix_covers() {
        // Baseline holds quick + large-ci rows; a fresh quick-only rerun
        // gates the quick cells and leaves the large-ci rows alone.
        let mut base = sample_matrix();
        let mut large = base.cells[0].clone();
        large.scale = "large-ci".to_string();
        large.experiment = "scale_bench".to_string();
        base.cells.push(large);
        let fresh = sample_matrix(); // quick cells only
        let v = compare_eval(&reparse(&base), &reparse(&fresh), EvalGateConfig::default());
        assert!(v.is_empty(), "large-ci baseline rows must not be 'missing': {v:?}");
        // But a quick cell actually missing still trips the gate.
        let mut pruned = sample_matrix();
        pruned.cells.retain(|c| c.error_type != "MV");
        let v = compare_eval(&reparse(&base), &reparse(&pruned), EvalGateConfig::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("missing"), "{v:?}");
    }

    #[test]
    fn zero_support_cells_are_vacuous_not_zero() {
        // The NO row has zero support: its recall must render as absent,
        // parse back as None, and never trip the gate as a 0.0.
        let m = sample_matrix();
        let doc = reparse(&m);
        let back = EvalMatrix::from_json(&doc).unwrap();
        let no = back.cells.iter().find(|c| c.error_type == "NO").unwrap();
        assert_eq!(no.recall, None);
        assert_eq!(no.support, Some(0));
        assert!(compare_eval(&doc, &doc, EvalGateConfig::default()).is_empty());
        // But a cell that *had* support collapsing to vacuous is flagged.
        let mut vacuous = m.clone();
        for c in &mut vacuous.cells {
            if c.error_type == "MV" {
                c.recall = None;
                c.support = Some(0);
            }
        }
        let v = compare_eval(&doc, &reparse(&vacuous), EvalGateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("vacuous"), "{v:?}");
    }

    #[test]
    fn recorder_merges_per_experiment_and_keeps_other_scales() {
        let dir = std::env::temp_dir().join(format!("matelda-eval-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("EVAL_matrix.json");
        let _ = std::fs::remove_file(&path);

        let mut rec = EvalRecorder::for_experiment("fig3", Scale::Quick);
        rec.path = path.clone();
        rec.record_metrics("Quintet", "Matelda", 2.0, 1, 0.8, 0.7, 0.75);
        rec.flush().unwrap();

        // A second experiment merges alongside the first.
        let mut rec2 = EvalRecorder::for_experiment("table3", Scale::Quick);
        rec2.path = path.clone();
        rec2.record_metrics("Quintet", "Raha", 2.0, 1, 0.5, 0.4, 0.44);
        rec2.flush().unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let m = EvalMatrix::from_json(&doc).unwrap();
        assert_eq!(m.cells.len(), 2);

        // Re-running an experiment replaces its rows instead of duplicating.
        let mut rec3 = EvalRecorder::for_experiment("fig3", Scale::Quick);
        rec3.path = path.clone();
        rec3.record_metrics("Quintet", "Matelda", 2.0, 1, 0.9, 0.8, 0.85);
        rec3.flush().unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let m = EvalMatrix::from_json(&doc).unwrap();
        assert_eq!(m.cells.len(), 2);
        let fig3 = m.cells.iter().find(|c| c.experiment == "fig3").unwrap();
        assert_eq!(fig3.f1, Some(0.85));

        // A flush at another scale keeps the existing cells: rows from
        // different scales coexist under distinct keys instead of
        // colliding (the large-tier runs depend on this).
        let mut rec4 = EvalRecorder::for_experiment("fig3", Scale::LargeCi);
        rec4.path = path.clone();
        rec4.record_metrics("ScaleLake", "Matelda", 2.0, 1, 0.6, 0.6, 0.6);
        rec4.flush().unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let m = EvalMatrix::from_json(&doc).unwrap();
        assert_eq!(m.scale, "large-ci", "matrix-level scale is the last writer's");
        assert_eq!(m.cells.len(), 3, "quick cells survive a large-ci flush");
        assert!(m.cells.iter().any(|c| c.scale == "large-ci" && c.experiment == "fig3"));
        let quick_fig3 =
            m.cells.iter().find(|c| c.scale == "quick" && c.experiment == "fig3").unwrap();
        assert_eq!(quick_fig3.f1, Some(0.85), "same experiment at quick scale untouched");

        // Re-flushing at large-ci replaces only the (fig3, large-ci) row.
        let mut rec5 = EvalRecorder::for_experiment("fig3", Scale::LargeCi);
        rec5.path = path.clone();
        rec5.record_metrics("ScaleLake", "Matelda", 2.0, 1, 0.65, 0.65, 0.65);
        rec5.flush().unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let m = EvalMatrix::from_json(&doc).unwrap();
        assert_eq!(m.cells.len(), 3);
        let large = m.cells.iter().find(|c| c.scale == "large-ci").unwrap();
        assert_eq!(large.f1, Some(0.65));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn committed_baseline_parses_and_passes_against_itself() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EVAL_matrix.json");
        let text = std::fs::read_to_string(path).expect("committed EVAL_matrix.json");
        let doc = Json::parse(&text).expect("baseline parses");
        let m = EvalMatrix::from_json(&doc).expect("baseline has the matrix shape");
        assert!(!m.cells.is_empty());
        // Cells from all 13 experiment binaries, plus the out-of-core
        // scale_bench row at its own (large) scale.
        let mut experiments: Vec<&str> = m.cells.iter().map(|c| c.experiment.as_str()).collect();
        experiments.sort_unstable();
        experiments.dedup();
        assert_eq!(
            experiments.len(),
            14,
            "all 13 experiment binaries plus scale_bench contribute cells: {experiments:?}"
        );
        assert!(experiments.contains(&"scale_bench"));
        assert!(
            m.cells.iter().any(|c| c.experiment == "scale_bench" && c.scale.starts_with("large")),
            "the scale_bench row is keyed by a large tier"
        );
        // Per-type recall rows exist alongside the ALL rows.
        assert!(m.cells.iter().any(|c| c.error_type == "MV" && c.support.unwrap_or(0) > 0));
        let v = compare_eval(&doc, &doc, EvalGateConfig::default());
        assert!(v.is_empty(), "self-comparison must pass: {v:?}");
    }
}
