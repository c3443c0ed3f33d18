//! Rule-violation detectors (§3.3.1, Eqs. 5–6).
//!
//! Cross-table comparability of FD features is the paper's trickiest
//! design point: different tables have different FD sets, so per-FD
//! features cannot line up. The paper's answer (inspired by similarity
//! flooding) is *structural*: every column gets exactly three candidate
//! FDs anchored on its position —
//!
//! * `a₀ → aⱼ` — the first column is "typically the key of the table",
//! * `aⱼ₋₁ → aⱼ` and `aⱼ → aⱼ₊₁` — "relevant columns are positioned
//!   together in the table".
//!
//! plus ten aggregate features: the relative frequency of the cell's
//! participation in *any* rule violation, one-hot encoded into five 20%
//! quantile buckets per FD side (Eq. 6).
//!
//! Both come from one pass over the ordered column pairs through
//! `matelda-fd`'s pair kernel, over the table's interned codes: each
//! pair is scanned once, whether it is structural, a rule, or both.

use matelda_fd::{CodeGroups, PairKernel};
use matelda_table::InternedTable;

/// Rule-derived signals for every cell of one table.
#[derive(Debug, Clone)]
pub struct RuleSignals {
    /// `[col][row]` → the three structural FD flags of Eq. 5.
    pub structural: Vec<Vec<[bool; 3]>>,
    /// `[col][row]` → `nv_LHS` quantile bucket in `0..5`.
    pub nv_lhs_bucket: Vec<Vec<usize>>,
    /// `[col][row]` → `nv_RHS` quantile bucket in `0..5`.
    pub nv_rhs_bucket: Vec<Vec<usize>>,
}

/// Maps a relative frequency in `[0, 1]` to one of five 20%-wide buckets.
pub fn quantile_bucket(nv: f64) -> usize {
    debug_assert!((0.0..=1.0 + 1e-9).contains(&nv), "nv out of range: {nv}");
    ((nv * 5.0).floor() as usize).min(4)
}

/// Computes all rule signals of a table the caller already interned
/// (the featurizer interns once for its per-value detectors and this).
///
/// `g3_threshold` controls which unary FDs count as "rules" for the
/// aggregate `nv` statistics: a dependency is a rule if it holds on all
/// but at most that fraction of rows. The threshold must sit above the
/// expected error rate, otherwise genuinely-dirty FDs drop out of the
/// rule set and their violations become invisible. `whole_group`
/// switches from minority-row marking (the default) to whole-group
/// marking (Raha's column-local convention, kept for the deviation
/// ablation).
///
/// Each ordered column pair is scanned once by the FD [`PairKernel`],
/// and its marked rows stream straight into the structural flags (pairs
/// `0→j`, `j−1→j`, `j→j+1`) and, when its g3 error is within
/// `g3_threshold`, into the `nv` counts; no per-pair row list is kept.
pub fn interned_rule_signals(
    table: &InternedTable<'_>,
    g3_threshold: f64,
    whole_group: bool,
) -> RuleSignals {
    let (n, m) = (table.n_rows(), table.n_cols());

    // Violation marking uses the *minority* rows of each inconsistent
    // group: the tuples whose RHS disagrees with the group's majority are
    // the ones a repair would change. Marking whole groups (Raha's
    // column-local convention) would give clean majority cells the same
    // signature as the dirty minority and blur the quality folds the
    // labels propagate through.
    let mut structural = vec![vec![[false; 3]; n]; m];
    let mut lhs_counts = vec![vec![0u32; n]; m];
    let mut rhs_counts = vec![vec![0u32; n]; m];
    let mut lhs_rules = vec![0usize; m];
    let mut rhs_rules = vec![0usize; m];
    let mut kernel = PairKernel::new();
    for (lhs, lhs_col) in table.columns.iter().enumerate() {
        let groups = CodeGroups::of(lhs_col);
        for (rhs, rhs_col) in table.columns.iter().enumerate() {
            if lhs == rhs {
                continue;
            }
            let scan = kernel.scan(&groups, rhs_col);
            // --- Eq. 6: the pair is a rule of the aggregate set. ---
            let is_rule = scan.g3_error() <= g3_threshold;
            if is_rule {
                lhs_rules[lhs] += 1;
                rhs_rules[rhs] += 1;
            }
            // --- Eq. 5: d_{a0 -> aj} marks column rhs's slot 0; for
            // rhs == lhs + 1 the pair is both d_{a(j-1) -> aj} (slot 1 of
            // column rhs) and d_{aj -> a(j+1)} (slot 2 of column lhs).
            // For j == 1 slots 0 and 1 share the pair, exactly as Eq. 5
            // prescribes.
            let first = lhs == 0;
            let adjacent = rhs == lhs + 1;
            if !(is_rule || first || adjacent) {
                continue;
            }
            scan.for_each_marked(whole_group, |r| {
                if first {
                    structural[rhs][r][0] = true;
                }
                if adjacent {
                    structural[rhs][r][1] = true;
                    structural[lhs][r][2] = true;
                }
                if is_rule {
                    lhs_counts[lhs][r] += 1;
                    rhs_counts[rhs][r] += 1;
                }
            });
        }
    }

    let bucketize = |counts: &[Vec<u32>], totals: &[usize]| -> Vec<Vec<usize>> {
        (0..m)
            .map(|j| {
                (0..n)
                    .map(|r| {
                        if totals[j] == 0 {
                            0
                        } else {
                            quantile_bucket(counts[j][r] as f64 / totals[j] as f64)
                        }
                    })
                    .collect()
            })
            .collect()
    };
    let nv_lhs_bucket = bucketize(&lhs_counts, &lhs_rules);
    let nv_rhs_bucket = bucketize(&rhs_counts, &rhs_rules);

    RuleSignals { structural, nv_lhs_bucket, nv_rhs_bucket }
}

/// [`interned_rule_signals`] of a table interned here, for tests.
#[cfg(test)]
pub(crate) fn rule_signals_with(
    table: &matelda_table::Table,
    g3_threshold: f64,
    whole_group: bool,
) -> RuleSignals {
    interned_rule_signals(&InternedTable::build(table), g3_threshold, whole_group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::{Column, Table};

    /// Clubs table shaped like the running example: the FD
    /// club -> country is violated by one Real Madrid row.
    fn clubs() -> Table {
        Table::new(
            "clubs",
            vec![
                Column::new("id", ["1", "2", "3", "4", "5", "6"]),
                Column::new("club", ["Real", "Real", "Real", "City", "City", "Ajax"]),
                Column::new("country", ["Spain", "Spain", "France", "England", "England", "NL"]),
            ],
        )
    }

    #[test]
    fn quantile_buckets_cover_unit_interval() {
        assert_eq!(quantile_bucket(0.0), 0);
        assert_eq!(quantile_bucket(0.19), 0);
        assert_eq!(quantile_bucket(0.2), 1);
        assert_eq!(quantile_bucket(0.5), 2);
        assert_eq!(quantile_bucket(0.99), 4);
        assert_eq!(quantile_bucket(1.0), 4);
    }

    #[test]
    fn structural_flags_catch_neighbor_fd_violation() {
        let s = rule_signals_with(&clubs(), 0.3, false);
        // Column 2 (country): d_{a1->a2} fires for the *minority* row of
        // the Real group (France, row 2) — not for the consistent
        // majority (Spain, rows 0-1).
        assert!(!s.structural[2][0][1]);
        assert!(!s.structural[2][1][1]);
        assert!(s.structural[2][2][1]);
        assert!(!s.structural[2][3][1], "City group is consistent");
        // Column 1 (club): detector d_{a1->a2} (its own LHS role, slot 2)
        // fires for the LHS cell of the minority row.
        assert!(s.structural[1][2][2]);
        assert!(!s.structural[1][5][2], "Ajax is a singleton group");
        // Column 0 is a key: nothing fires in its LHS-role slot.
        assert!(!s.structural[0].iter().any(|f| f[2]));
    }

    #[test]
    fn first_column_detector_is_separate_from_neighbor() {
        // Table where a0->a2 is violated but a1->a2 is not. The 1-vs-1
        // tie breaks to the lexicographically smaller RHS ("1"), so row 1
        // is the minority.
        let t = Table::new(
            "t",
            vec![
                Column::new("k", ["a", "a"]),
                Column::new("x", ["p", "q"]),
                Column::new("v", ["1", "2"]),
            ],
        );
        let s = rule_signals_with(&t, 1.0, false);
        assert!(s.structural[2][1][0], "a0->a2 violated (minority row)");
        assert!(!s.structural[2][1][1], "a1->a2 holds (x is key)");
    }

    #[test]
    fn nv_buckets_rise_with_violation_participation() {
        let s = rule_signals_with(&clubs(), 0.3, false);
        // Row 2's country cell is RHS of the violated club->country rule.
        let dirty_bucket = s.nv_rhs_bucket[2][2];
        let clean_bucket = s.nv_rhs_bucket[2][5];
        assert!(dirty_bucket > clean_bucket, "dirty {dirty_bucket} vs clean {clean_bucket}");
    }

    #[test]
    fn single_column_table_has_all_zero_signals() {
        let t = Table::new("t", vec![Column::new("a", ["1", "1", "2"])]);
        let s = rule_signals_with(&t, 0.5, false);
        assert!(s.structural[0].iter().all(|f| *f == [false; 3]));
        assert!(s.nv_lhs_bucket[0].iter().all(|&b| b == 0));
        assert!(s.nv_rhs_bucket[0].iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_table_is_fine() {
        let t = Table::new("t", vec![]);
        let s = rule_signals_with(&t, 0.5, false);
        assert!(s.structural.is_empty());
    }

    /// The per-pair `rule_signals_with` the single-pass version replaced,
    /// kept verbatim as the reference: one `violation_stats` call per
    /// structural detector, `mine_approximate` for the rule set, and one
    /// more `violation_stats` per rule.
    fn reference_rule_signals(table: &Table, g3_threshold: f64, whole_group: bool) -> RuleSignals {
        use matelda_fd::{mine_approximate, violation_stats};
        use std::collections::HashSet;
        let m = table.n_cols();
        let n = table.n_rows();
        let marked = |lhs: usize, rhs: usize| -> Vec<usize> {
            let stats = violation_stats(table, lhs, rhs);
            if whole_group {
                stats.violating_rows
            } else {
                stats.minority_rows
            }
        };
        let mut structural = vec![vec![[false; 3]; n]; m];
        for j in 0..m {
            if j > 0 {
                for r in marked(0, j) {
                    structural[j][r][0] = true;
                }
            }
            if j > 0 {
                for r in marked(j - 1, j) {
                    structural[j][r][1] = true;
                }
            }
            if j + 1 < m {
                for r in marked(j, j + 1) {
                    structural[j][r][2] = true;
                }
            }
        }
        let rules = mine_approximate(table, g3_threshold);
        let mut lhs_counts = vec![vec![0usize; n]; m];
        let mut rhs_counts = vec![vec![0usize; n]; m];
        let mut lhs_rules = vec![0usize; m];
        let mut rhs_rules = vec![0usize; m];
        for fd in &rules {
            lhs_rules[fd.lhs] += 1;
            rhs_rules[fd.rhs] += 1;
            let stats = violation_stats(table, fd.lhs, fd.rhs);
            let viol: HashSet<usize> =
                if whole_group { stats.violating_rows } else { stats.minority_rows }
                    .into_iter()
                    .collect();
            for &r in &viol {
                lhs_counts[fd.lhs][r] += 1;
                rhs_counts[fd.rhs][r] += 1;
            }
        }
        let bucketize = |counts: &[Vec<usize>], totals: &[usize]| -> Vec<Vec<usize>> {
            (0..m)
                .map(|j| {
                    (0..n)
                        .map(|r| {
                            if totals[j] == 0 {
                                0
                            } else {
                                quantile_bucket(counts[j][r] as f64 / totals[j] as f64)
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let nv_lhs_bucket = bucketize(&lhs_counts, &lhs_rules);
        let nv_rhs_bucket = bucketize(&rhs_counts, &rhs_rules);
        RuleSignals { structural, nv_lhs_bucket, nv_rhs_bucket }
    }

    fn assert_matches_reference(table: &Table, g3_threshold: f64) {
        for whole_group in [false, true] {
            let got = rule_signals_with(table, g3_threshold, whole_group);
            let want = reference_rule_signals(table, g3_threshold, whole_group);
            assert_eq!(got.structural, want.structural, "whole_group={whole_group}");
            assert_eq!(got.nv_lhs_bucket, want.nv_lhs_bucket, "whole_group={whole_group}");
            assert_eq!(got.nv_rhs_bucket, want.nv_rhs_bucket, "whole_group={whole_group}");
        }
    }

    #[test]
    fn single_pass_matches_the_per_pair_reference_on_fixed_tables() {
        for g3 in [0.0, 0.3, 1.0] {
            assert_matches_reference(&clubs(), g3);
            assert_matches_reference(&Table::new("t", vec![Column::new("a", ["1", "1", "2"])]), g3);
            assert_matches_reference(&Table::new("t", vec![]), g3);
            let empty = vec![
                Column::new("a", Vec::<String>::new()),
                Column::new("b", Vec::<String>::new()),
            ];
            assert_matches_reference(&Table::new("t", empty), g3);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // Random tables over small palettes whose first-occurrence order
        // disagrees with their string order (so majority ties exercise
        // the tie-break), with an optional all-distinct key column in
        // front, at thresholds that make no pair, some pairs and every
        // pair a rule: both marking modes equal the per-pair reference.
        #[test]
        fn single_pass_matches_the_per_pair_reference(
            cols in proptest::collection::vec(proptest::collection::vec(0usize..4, 0..20), 1..5),
            with_key in 0u8..2,
            threshold in 0usize..4,
        ) {
            const PALETTE: [&str; 4] = ["y", "x", "w", "v"];
            let n_rows = cols.iter().map(Vec::len).min().unwrap_or(0);
            let mut columns: Vec<Column> = cols
                .iter()
                .enumerate()
                .map(|(j, rows)| {
                    Column::new(format!("c{j}"), rows[..n_rows].iter().map(|&v| PALETTE[v]))
                })
                .collect();
            if with_key == 1 {
                columns.insert(0, Column::new("id", (0..n_rows).map(|r| r.to_string())));
            }
            let g3 = [0.0, 0.1, 0.3, 1.0][threshold];
            assert_matches_reference(&Table::new("p", columns), g3);
        }
    }
}
