//! Per-run failure analysis: *why* did the pipeline misclassify a cell?
//!
//! Given a run's predictions, the ground truth, and the intermediate
//! artifacts of [`crate::Matelda::detect_explained`], this module picks
//! exemplar misclassified cells (false negatives and false positives)
//! and attributes each one to the evidence the pipeline actually saw:
//!
//! * the cell's value, column and table;
//! * its ground-truth error type (when typed truth masks are supplied);
//! * which detector features fired in the unified feature space;
//! * the quality fold the cell landed in, the fold's labeled anchor and
//!   the propagated verdict.
//!
//! The report renders as markdown (for humans reading a PR or a CI
//! artifact) and as JSON (for tooling); `matelda-cli --failure-report`
//! writes both.

use crate::pipeline::{DetectionResult, RunArtifacts};
use matelda_obs::json_string;
use matelda_table::{CellId, CellMask, Lake};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Which way a cell was misclassified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misclass {
    /// A true error the pipeline did not flag.
    FalseNegative,
    /// A clean cell the pipeline flagged.
    FalsePositive,
}

impl Misclass {
    /// Short label used in both renderings.
    pub fn label(self) -> &'static str {
        match self {
            Misclass::FalseNegative => "FN",
            Misclass::FalsePositive => "FP",
        }
    }
}

/// One misclassified cell with the evidence trail behind the mistake.
#[derive(Debug, Clone)]
pub struct CellDiagnosis {
    /// The cell.
    pub id: CellId,
    /// False negative or false positive.
    pub kind: Misclass,
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// The cell's (dirty) value.
    pub value: String,
    /// Ground-truth error type abbreviation (`MV`, `T`, `FI`, `NO`,
    /// `VAD`), when typed truth masks were supplied and one covers the
    /// cell. Always `None` for false positives — the cell is clean.
    pub truth_type: Option<String>,
    /// Names of the detector features that fired on this cell
    /// ([`matelda_detect::fired_features`]).
    pub fired: Vec<String>,
    /// Index of the quality fold the cell belongs to (into
    /// [`QualityFolds::entries`](crate::QualityFolds::entries)); `None`
    /// when the cell fell outside every fold (a zero-budget domain fold).
    pub quality_fold: Option<usize>,
    /// The fold's labeled anchor cell and the verdict the labeler gave
    /// it; `None` when the fold was never labeled (TUCF) or the cell is
    /// foldless.
    pub anchor: Option<(CellId, bool)>,
    /// The label propagated to this cell in Step 4 (`None` = unlabeled).
    pub propagated: Option<bool>,
}

/// The failure-analysis report of one run.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Total false negatives in the run.
    pub n_false_negatives: usize,
    /// Total false positives in the run.
    pub n_false_positives: usize,
    /// Exemplar diagnoses, false negatives first, each kind capped at
    /// the limit passed to [`analyze_failures`] and ordered by `CellId`.
    pub exemplars: Vec<CellDiagnosis>,
}

/// Builds the failure report for one run.
///
/// Only the tables the run scored are analyzed: a quarantined table's
/// cells are unscored, not clean, and its features were never computed,
/// so its cells count neither as false negatives nor as false positives.
/// `typed_errors` maps error-type abbreviations to their truth masks
/// (pass `&[]` when no typed truth exists — `truth_type` stays `None`).
/// `max_exemplars_per_kind` caps the diagnoses per kind; the totals
/// always count every misclassification.
pub fn analyze_failures(
    lake: &Lake,
    result: &DetectionResult,
    truth: &CellMask,
    typed_errors: &[(String, CellMask)],
    artifacts: &RunArtifacts,
    max_exemplars_per_kind: usize,
) -> FailureReport {
    let quarantined = &result.quarantine.tables;
    let predicted = &result.predicted.without_tables(quarantined);
    let truth = &truth.without_tables(quarantined);
    // Cell → quality-fold index, and quality-fold index → (anchor,
    // verdict) for labeled folds.
    let fold_of: HashMap<CellId, usize> = artifacts.quality.cells(lake).collect();
    let anchor_of: HashMap<usize, (CellId, bool)> = artifacts
        .propagated
        .labeled_folds
        .iter()
        .map(|lf| (lf.fold, (lf.anchor, lf.verdict)))
        .collect();

    let diagnose = |id: CellId, kind: Misclass| -> CellDiagnosis {
        let table = &lake[id.table];
        let fold = fold_of.get(&id).copied();
        let n_cols = table.n_cols();
        CellDiagnosis {
            id,
            kind,
            table: table.name.clone(),
            column: table.columns[id.col].name.clone(),
            value: table.columns[id.col].values[id.row].clone(),
            truth_type: match kind {
                Misclass::FalsePositive => None,
                Misclass::FalseNegative => {
                    typed_errors.iter().find(|(_, mask)| mask.get(id)).map(|(name, _)| name.clone())
                }
            },
            fired: matelda_detect::fired_features(artifacts.featurized.of(id)),
            quality_fold: fold,
            anchor: fold.and_then(|f| anchor_of.get(&f).copied()),
            propagated: artifacts.propagated.labels[id.table][id.row * n_cols + id.col],
        }
    };

    let fns: Vec<CellId> = truth.iter_set().filter(|&id| !predicted.get(id)).collect();
    let fps: Vec<CellId> = predicted.iter_set().filter(|&id| !truth.get(id)).collect();
    let mut exemplars = Vec::new();
    for &id in fns.iter().take(max_exemplars_per_kind) {
        exemplars.push(diagnose(id, Misclass::FalseNegative));
    }
    for &id in fps.iter().take(max_exemplars_per_kind) {
        exemplars.push(diagnose(id, Misclass::FalsePositive));
    }
    FailureReport { n_false_negatives: fns.len(), n_false_positives: fps.len(), exemplars }
}

impl FailureReport {
    /// Renders the report as markdown: a summary line plus one table per
    /// misclassification kind.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Matelda failure analysis\n\n");
        let _ = writeln!(
            out,
            "{} false negative(s), {} false positive(s); {} exemplar(s) below.\n",
            self.n_false_negatives,
            self.n_false_positives,
            self.exemplars.len()
        );
        for (kind, title, note) in [
            (
                Misclass::FalseNegative,
                "False negatives (missed errors)",
                "True errors the pipeline did not flag.",
            ),
            (
                Misclass::FalsePositive,
                "False positives (spurious flags)",
                "Clean cells the pipeline flagged.",
            ),
        ] {
            let rows: Vec<&CellDiagnosis> =
                self.exemplars.iter().filter(|d| d.kind == kind).collect();
            let _ = writeln!(out, "## {title}\n\n{note}\n");
            if rows.is_empty() {
                out.push_str("None.\n\n");
                continue;
            }
            out.push_str(
                "| cell | table | column | value | truth type | fired features | \
                 quality fold | anchor verdict | propagated |\n",
            );
            out.push_str("|---|---|---|---|---|---|---|---|---|\n");
            for d in rows {
                let _ = writeln!(
                    out,
                    "| ({},{},{}) | {} | {} | `{}` | {} | {} | {} | {} | {} |",
                    d.id.table,
                    d.id.row,
                    d.id.col,
                    md_cell(&d.table),
                    md_cell(&d.column),
                    md_cell(&d.value),
                    d.truth_type.as_deref().unwrap_or("—"),
                    if d.fired.is_empty() { "(none)".to_string() } else { d.fired.join(", ") },
                    d.quality_fold.map_or("—".to_string(), |f| f.to_string()),
                    match d.anchor {
                        Some((a, v)) => format!(
                            "({},{},{}) → {}",
                            a.table,
                            a.row,
                            a.col,
                            if v { "error" } else { "clean" }
                        ),
                        None => "—".to_string(),
                    },
                    match d.propagated {
                        Some(true) => "error",
                        Some(false) => "clean",
                        None => "—",
                    },
                );
            }
            out.push('\n');
        }
        out
    }

    /// Renders the report as JSON (hand-rolled; strings go through
    /// [`matelda_obs::json_string`]).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"report\":\"matelda-failures\",\"false_negatives\":{},\"false_positives\":{},\
             \"exemplars\":[",
            self.n_false_negatives, self.n_false_positives
        );
        for (i, d) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":{},\"cell\":[{},{},{}],\"table\":{},\"column\":{},\"value\":{},\
                 \"truth_type\":{},\"fired\":[{}],\"quality_fold\":{},\"anchor\":{},\
                 \"propagated\":{}}}",
                json_string(d.kind.label()),
                d.id.table,
                d.id.row,
                d.id.col,
                json_string(&d.table),
                json_string(&d.column),
                json_string(&d.value),
                d.truth_type.as_deref().map_or("null".to_string(), json_string),
                d.fired.iter().map(|f| json_string(f)).collect::<Vec<_>>().join(","),
                d.quality_fold.map_or("null".to_string(), |f| f.to_string()),
                match d.anchor {
                    Some((a, v)) =>
                        format!("{{\"cell\":[{},{},{}],\"verdict\":{}}}", a.table, a.row, a.col, v),
                    None => "null".to_string(),
                },
                match d.propagated {
                    Some(v) => v.to_string(),
                    None => "null".to_string(),
                },
            );
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a value for a markdown table cell (pipes and newlines would
/// break the row).
fn md_cell(s: &str) -> String {
    let escaped = s.replace('|', "\\|").replace('\n', " ");
    if escaped.is_empty() {
        "(empty)".to_string()
    } else {
        escaped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Matelda, MateldaConfig};
    use matelda_lakegen::QuintetLake;
    use matelda_table::oracle::Oracle;

    fn run() -> (matelda_lakegen::GeneratedLake, crate::DetectionResult, RunArtifacts) {
        let lake = QuintetLake { rows_per_table: 60, error_rate: 0.09 }.generate(42);
        let mut oracle = Oracle::new(&lake.errors);
        let (result, artifacts) = Matelda::new(MateldaConfig::default())
            .detect_explained(&lake.dirty, &mut oracle, 60, &crate::Durability::default())
            .expect("no checkpoint store");
        (lake, result, artifacts)
    }

    #[test]
    fn report_names_misclassified_cells_with_evidence() {
        let (lake, result, artifacts) = run();
        let report =
            analyze_failures(&lake.dirty, &result, &lake.errors, &lake.typed_errors, &artifacts, 5);
        // An imperfect detector at 9% error rate always leaves both kinds.
        assert!(report.n_false_negatives > 0);
        assert!(!report.exemplars.is_empty());
        assert!(report.exemplars.len() <= 10);
        for d in &report.exemplars {
            match d.kind {
                Misclass::FalseNegative => {
                    assert!(lake.errors.get(d.id) && !result.predicted.get(d.id));
                    assert!(d.truth_type.is_some(), "typed masks cover every injected error");
                }
                Misclass::FalsePositive => {
                    assert!(!lake.errors.get(d.id) && result.predicted.get(d.id));
                    assert!(d.truth_type.is_none());
                }
            }
            assert_eq!(d.table, lake.dirty[d.id.table].name);
            assert_eq!(d.value, lake.dirty[d.id.table].columns[d.id.col].values[d.id.row]);
        }
    }

    #[test]
    fn renders_cover_both_formats() {
        let (lake, result, artifacts) = run();
        let report =
            analyze_failures(&lake.dirty, &result, &lake.errors, &lake.typed_errors, &artifacts, 3);
        let md = report.render_markdown();
        assert!(md.starts_with("# Matelda failure analysis"));
        assert!(md.contains("False negatives"));
        let first = &report.exemplars[0];
        assert!(md.contains(&first.column), "markdown names the column");
        let json = report.render_json();
        assert!(json.starts_with("{\"report\":\"matelda-failures\""));
        assert!(json.contains("\"truth_type\""));
        // Round-trippable by any JSON parser: balanced and quoted.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_typed_truth_leaves_types_unknown() {
        let (lake, result, artifacts) = run();
        let report = analyze_failures(&lake.dirty, &result, &lake.errors, &[], &artifacts, 2);
        for d in &report.exemplars {
            assert!(d.truth_type.is_none());
        }
    }
}
