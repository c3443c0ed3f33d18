//! Per-cell violation marking for a unary FD `A → B`: one pair through
//! the [`crate::kernel`], its marked rows collected and sorted.

use crate::kernel::{CodeGroups, PairKernel};
use matelda_table::{InternedColumn, Table};

/// Violation summary of one candidate FD on one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViolationStats {
    /// Rows participating in any violating LHS group (both the majority
    /// and minority rows — every tuple of an inconsistent group witnesses
    /// the violation, which is how Raha marks FD violations).
    pub violating_rows: Vec<usize>,
    /// The subset of `violating_rows` holding a *minority* RHS value in
    /// their group — the most likely culprits.
    pub minority_rows: Vec<usize>,
    /// g3-style approximation error: fraction of rows that must be removed
    /// for the FD to hold exactly (0.0 = exact FD).
    pub g3_error: f64,
}

/// Computes the violation statistics of `lhs → rhs` on `table`,
/// interning only those two columns. Majority ties go to the
/// lexicographically smallest RHS value.
pub fn violation_stats(table: &Table, lhs: usize, rhs: usize) -> ViolationStats {
    let groups = CodeGroups::of(&InternedColumn::build(&table.columns[lhs].values));
    let rhs_col = InternedColumn::build(&table.columns[rhs].values);
    let mut kernel = PairKernel::new();
    let scan = kernel.scan(&groups, &rhs_col);
    let mut violating = Vec::new();
    let mut minority = Vec::new();
    scan.for_each_marked(true, |r| violating.push(r));
    scan.for_each_marked(false, |r| minority.push(r));
    violating.sort_unstable();
    minority.sort_unstable();
    ViolationStats { violating_rows: violating, minority_rows: minority, g3_error: scan.g3_error() }
}

/// Convenience: just the rows in violating groups of `lhs → rhs`.
pub fn violating_rows(table: &Table, lhs: usize, rhs: usize) -> Vec<usize> {
    violation_stats(table, lhs, rhs).violating_rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::Column;

    /// The running example of the paper: Real Madrid appears twice, once
    /// with Country=Spain and once (wrongly) with Country=France.
    fn clubs() -> Table {
        Table::new(
            "clubs",
            vec![
                Column::new(
                    "Club Name",
                    [
                        "Manchester City",
                        "Liverpool MC",
                        "Manchester City",
                        "Real Madrid",
                        "Real Madrid",
                    ],
                ),
                Column::new("Country", ["Germany", "England", "England", "France", "Spain"]),
            ],
        )
    }

    #[test]
    fn detects_running_example_violation() {
        let stats = violation_stats(&clubs(), 0, 1);
        // Manchester City group {0,2} disagrees (Germany vs England) and
        // Real Madrid group {3,4} disagrees (France vs Spain).
        assert_eq!(stats.violating_rows, vec![0, 2, 3, 4]);
        // Within each 2-group, ties break lexicographically: "England" and
        // "France" are the deterministic majority values.
        assert_eq!(stats.minority_rows, vec![0, 4]);
        assert!((stats.g3_error - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn exact_fd_has_no_violations() {
        let t = Table::new(
            "t",
            vec![
                Column::new("city", ["Paris", "Paris", "Berlin"]),
                Column::new("country", ["France", "France", "Germany"]),
            ],
        );
        let stats = violation_stats(&t, 0, 1);
        assert!(stats.violating_rows.is_empty());
        assert_eq!(stats.g3_error, 0.0);
    }

    #[test]
    fn clear_majority_flags_only_minority() {
        let t = Table::new(
            "t",
            vec![Column::new("k", ["a", "a", "a", "a"]), Column::new("v", ["1", "1", "1", "2"])],
        );
        let stats = violation_stats(&t, 0, 1);
        assert_eq!(stats.violating_rows, vec![0, 1, 2, 3]);
        assert_eq!(stats.minority_rows, vec![3]);
        assert!((stats.g3_error - 0.25).abs() < 1e-12);
    }

    #[test]
    fn key_lhs_never_violates() {
        let t = Table::new(
            "t",
            vec![Column::new("id", ["1", "2", "3"]), Column::new("v", ["x", "x", "y"])],
        );
        assert!(violating_rows(&t, 0, 1).is_empty());
    }

    #[test]
    fn empty_table() {
        let t = Table::new(
            "t",
            vec![Column::new("a", Vec::<String>::new()), Column::new("b", Vec::<String>::new())],
        );
        let stats = violation_stats(&t, 0, 1);
        assert!(stats.violating_rows.is_empty());
        assert_eq!(stats.g3_error, 0.0);
    }
}
