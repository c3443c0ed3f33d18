//! The Uni-Detect-style baseline (Wang & He, SIGMOD 2019; §4.1.4): an
//! unsupervised detector pre-trained on a *clean* corpus.
//!
//! Uni-Detect runs "what-if" perturbation tests: a value is suspicious if
//! hypothetically removing it would make the column look statistically
//! much more regular, with test thresholds tuned on a clean corpus so that
//! clean data almost never fires. The reproduced profile matches the
//! paper: precision-oriented, very low recall, flags only *globally*
//! inconsistent values ("it captures only values that are globally
//! inconsistent"), and fails on semantic errors.
//!
//! Three tests are implemented:
//!
//! * **spelling** — an out-of-dictionary word in a column whose other
//!   values are overwhelmingly in-dictionary;
//! * **numeric** — a z-score beyond a threshold calibrated as the maximum
//!   z observed anywhere in the pre-training corpus (plus margin);
//! * **uniqueness** — a duplicated value in a column that is otherwise a
//!   perfect key.

use crate::{Budget, ErrorDetector};
use matelda_table::value::as_f64;
use matelda_table::{CellId, CellMask, DataType, Labeler, Lake};
use matelda_text::SpellChecker;

/// The Uni-Detect baseline.
#[derive(Debug, Clone)]
pub struct UniDetect {
    spell: SpellChecker,
    /// z-score above which the numeric what-if test fires.
    pub z_threshold: f64,
    /// Minimum fraction of dictionary-clean neighbours for the spelling
    /// test to trust a column.
    pub min_clean_fraction: f64,
}

impl Default for UniDetect {
    fn default() -> Self {
        // Conservative defaults for use without pre-training.
        Self { spell: SpellChecker::english(), z_threshold: 6.0, min_clean_fraction: 0.97 }
    }
}

impl UniDetect {
    /// Calibrates the numeric threshold on a clean corpus: the largest
    /// z-score any clean value reaches, plus a 10% margin — so the test
    /// (approximately) never fires on data that looks like the corpus.
    pub fn pretrain(corpus: &[&Lake]) -> Self {
        let mut max_z: f64 = 0.0;
        for lake in corpus {
            for table in &lake.tables {
                for col in &table.columns {
                    if !matches!(col.data_type(), DataType::Integer | DataType::Float) {
                        continue;
                    }
                    let nums: Vec<f64> = col.values.iter().filter_map(|v| as_f64(v)).collect();
                    if nums.len() < 3 {
                        continue;
                    }
                    let mean = nums.iter().sum::<f64>() / nums.len() as f64;
                    let var = nums.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                        / nums.len() as f64;
                    let sd = var.sqrt();
                    if sd <= 0.0 {
                        continue;
                    }
                    for x in &nums {
                        max_z = max_z.max((x - mean).abs() / sd);
                    }
                }
            }
        }
        // A generous margin over the worst clean z keeps the what-if test
        // precision-first, matching Uni-Detect's design goal.
        let z_threshold = if max_z > 0.0 { max_z * 1.25 } else { 6.0 };
        Self { z_threshold, ..Self::default() }
    }
}

impl ErrorDetector for UniDetect {
    fn name(&self) -> String {
        "Uni-Detect".to_string()
    }

    fn detect(&self, lake: &Lake, _labeler: &mut dyn Labeler, _budget: Budget) -> CellMask {
        let mut mask = CellMask::empty(lake);
        for (t, table) in lake.tables.iter().enumerate() {
            for (c, col) in table.columns.iter().enumerate() {
                let n = col.len();
                if n == 0 {
                    continue;
                }
                // Spelling what-if test.
                let flagged: Vec<bool> =
                    col.values.iter().map(|v| self.spell.flags_cell(v)).collect();
                let clean_fraction = 1.0 - flagged.iter().filter(|f| **f).count() as f64 / n as f64;
                if clean_fraction >= self.min_clean_fraction {
                    for (r, &f) in flagged.iter().enumerate() {
                        if f {
                            mask.set(CellId::new(t, r, c), true);
                        }
                    }
                }

                // Numeric what-if test.
                if matches!(col.data_type(), DataType::Integer | DataType::Float) {
                    let nums: Vec<Option<f64>> = col.values.iter().map(|v| as_f64(v)).collect();
                    let parsed: Vec<f64> = nums.iter().flatten().copied().collect();
                    if parsed.len() >= 3 {
                        let mean = parsed.iter().sum::<f64>() / parsed.len() as f64;
                        let var = parsed.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                            / parsed.len() as f64;
                        let sd = var.sqrt();
                        if sd > 0.0 {
                            for (r, num) in nums.iter().enumerate() {
                                if let Some(x) = num {
                                    // Leave-one-out z: judge the value
                                    // against the column without it, which
                                    // defeats the masking effect that caps
                                    // plain z at (n-1)/√n.
                                    let n_f = parsed.len() as f64;
                                    if n_f <= 2.0 {
                                        continue;
                                    }
                                    let mean_wo = (mean * n_f - x) / (n_f - 1.0);
                                    let var_wo = ((var + mean * mean) * n_f - x * x) / (n_f - 1.0)
                                        - mean_wo * mean_wo;
                                    let sd_wo = var_wo.max(0.0).sqrt();
                                    if sd_wo > 0.0
                                        && ((x - mean_wo).abs() / sd_wo) > self.z_threshold
                                    {
                                        mask.set(CellId::new(t, r, c), true);
                                    }
                                }
                            }
                        }
                    }
                }

                // Uniqueness what-if test: a single duplicated value in an
                // otherwise perfect key column. Restricted to id-like
                // columns (digit-bearing values) — a text column with one
                // repeated word is ordinary, an id column with one
                // repeated id is not (Uni-Detect gates this test on
                // corpus priors about key-like columns).
                let id_like =
                    col.values.iter().filter(|v| v.chars().any(|ch| ch.is_ascii_digit())).count()
                        as f64
                        >= 0.9 * n as f64;
                if id_like {
                    let partition = matelda_fd::Partition::of_column(table, c);
                    if partition.n_groups() == 1 && partition.covered_rows() == 2 && n > 4 {
                        for &r in &partition.groups[0] {
                            mask.set(CellId::new(t, r, c), true);
                        }
                    }
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::{Column, Oracle, Table};

    fn no_labels(lake: &Lake) -> CellMask {
        CellMask::empty(lake)
    }

    #[test]
    fn spelling_test_requires_clean_context() {
        // 40 clean genre values + 1 typo: 97.5% clean context, so the
        // what-if spelling test trusts the column and the typo fires.
        let genres =
            ["drama", "crime", "comedy", "action", "horror", "romance", "musical", "western"];
        let mut col_a: Vec<String> =
            (0..40).map(|i| genres[i % genres.len()].to_string()).collect();
        col_a.push("derama".to_string());
        // A name-like column full of unknown words: never trusted.
        let col_b: Vec<String> = (0..41).map(|i| format!("Qzx{}", "w".repeat(i % 5 + 1))).collect();
        let lake = Lake::new(vec![Table::new(
            "t",
            vec![Column::new("a", col_a), Column::new("b", col_b)],
        )]);
        let truth = no_labels(&lake);
        let mut o = Oracle::new(&truth);
        let mask = UniDetect::default().detect(&lake, &mut o, Budget::per_table(0.0));
        assert!(mask.get(CellId::new(0, 40, 0)), "typo in trusted column fires");
        assert_eq!(
            (0..41).filter(|&r| mask.get(CellId::new(0, r, 1))).count(),
            0,
            "unknown-word columns are not trusted"
        );
    }

    #[test]
    fn numeric_test_fires_only_beyond_pretrained_threshold() {
        let clean = Lake::new(vec![Table::new(
            "t",
            vec![Column::new("x", (0..50).map(|i| format!("{}", 100 + i)))],
        )]);
        let ud = UniDetect::pretrain(&[&clean]);
        assert!(ud.z_threshold > 1.0 && ud.z_threshold < 3.0, "{}", ud.z_threshold);

        let mut dirty = clean.clone();
        *dirty.tables[0].cell_mut(10, 0) = "9000000".into();
        let truth = no_labels(&dirty);
        let mut o = Oracle::new(&truth);
        let mask = ud.detect(&dirty, &mut o, Budget::per_table(0.0));
        assert!(mask.get(CellId::new(0, 10, 0)), "big outlier fires");
        // Clean values do not fire.
        assert_eq!(mask.count(), 1, "{:?}", mask.iter_set().collect::<Vec<_>>());
    }

    #[test]
    fn uniqueness_test_flags_single_duplicate_in_key() {
        let lake = Lake::new(vec![Table::new(
            "t",
            vec![Column::new("id", ["1", "2", "3", "4", "5", "3"])],
        )]);
        let truth = no_labels(&lake);
        let mut o = Oracle::new(&truth);
        let mask = UniDetect::default().detect(&lake, &mut o, Budget::per_table(0.0));
        assert!(mask.get(CellId::new(0, 2, 0)));
        assert!(mask.get(CellId::new(0, 5, 0)));
        assert_eq!(mask.count(), 2);
    }

    #[test]
    fn semantic_errors_invisible() {
        // The paper: Uni-Detect "fails to identify semantic errors".
        let lake = Lake::new(vec![Table::new(
            "t",
            vec![
                Column::new("city", ["Paris", "Paris", "Berlin", "Rome", "Madrid", "London"]),
                Column::new("country", ["France", "Italy", "Germany", "Italy", "Spain", "England"]),
            ],
        )]);
        let truth = no_labels(&lake);
        let mut o = Oracle::new(&truth);
        let mask = UniDetect::default().detect(&lake, &mut o, Budget::per_table(0.0));
        // Row 1's France/Italy FD violation is a semantic error: missed.
        assert!(!mask.get(CellId::new(0, 1, 1)));
    }
}
