//! Unary FD mining over column pairs (the HyFD substitute — see crate
//! docs: the paper only consumes single-attribute-LHS dependencies).
//! The table is interned once and every ordered pair goes through one
//! [`PairKernel`] scan.

use crate::kernel::{CodeGroups, PairKernel};
use matelda_table::{InternedTable, Table};

/// A unary functional dependency `lhs → rhs` (column indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd {
    /// Determining column.
    pub lhs: usize,
    /// Determined column.
    pub rhs: usize,
}

impl Fd {
    /// Convenience constructor.
    pub fn new(lhs: usize, rhs: usize) -> Self {
        Self { lhs, rhs }
    }
}

/// The ordered pairs `lhs → rhs` (LHS-major, `lhs ≠ rhs`) whose scan
/// `keep` accepts, skipping LHS columns `skip_lhs` rejects.
fn mine_pairs(
    table: &Table,
    skip_lhs: impl Fn(&CodeGroups) -> bool,
    keep: impl Fn(f64) -> bool,
) -> Vec<Fd> {
    let interned = InternedTable::build(table);
    let mut kernel = PairKernel::new();
    let mut out = Vec::new();
    for (lhs, col) in interned.columns.iter().enumerate() {
        let groups = CodeGroups::of(col);
        if skip_lhs(&groups) {
            continue;
        }
        for (rhs, rhs_col) in interned.columns.iter().enumerate() {
            if lhs != rhs && keep(kernel.scan(&groups, rhs_col).g3_error()) {
                out.push(Fd::new(lhs, rhs));
            }
        }
    }
    out
}

/// Mines all unary FDs whose g3 error on `table` is at most `max_error`.
/// `max_error = 0.0` yields exact dependencies. Results are sorted.
///
/// Key columns (all-distinct LHS) trivially satisfy every FD; they are
/// *included* — the `nv` features of the paper normalize by "#rules where
/// col j appears on (L/R)HS", and trivially satisfied rules are rules.
pub fn mine_approximate(table: &Table, max_error: f64) -> Vec<Fd> {
    mine_pairs(table, |_| false, |g3| g3 <= max_error)
}

/// Mines exact unary FDs into which a violation can actually be injected:
/// the LHS must have at least one duplicated value (group of size ≥ 2),
/// otherwise perturbing an RHS cell cannot create a detectable
/// inconsistency. This mirrors the paper's benchmark pipeline (HyFD
/// discovery + BART injection "on both sides of a functional dependency").
pub fn mine_exact_injectable(table: &Table) -> Vec<Fd> {
    // No duplicated LHS values -> nothing to violate.
    mine_pairs(table, CodeGroups::is_empty, |g3| g3 == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::Column;

    fn cities() -> Table {
        Table::new(
            "t",
            vec![
                Column::new("id", ["1", "2", "3", "4"]),
                Column::new("city", ["Paris", "Paris", "Berlin", "Rome"]),
                Column::new("country", ["France", "France", "Germany", "Italy"]),
            ],
        )
    }

    #[test]
    fn exact_mining_finds_city_country() {
        let fds = mine_approximate(&cities(), 0.0);
        assert!(fds.contains(&Fd::new(1, 2)), "{fds:?}");
        assert!(fds.contains(&Fd::new(2, 1)), "country -> city also exact here");
        // id is a key: it determines everything.
        assert!(fds.contains(&Fd::new(0, 1)));
        assert!(fds.contains(&Fd::new(0, 2)));
        // city does NOT determine id (Paris maps to ids 1 and 2).
        assert!(!fds.contains(&Fd::new(1, 0)));
    }

    #[test]
    fn approximate_mining_tolerates_noise() {
        let t = Table::new(
            "t",
            vec![
                Column::new("city", ["Paris", "Paris", "Paris", "Paris", "Berlin"]),
                Column::new("country", ["France", "France", "France", "Frankreich", "Germany"]),
            ],
        );
        assert!(!mine_approximate(&t, 0.0).contains(&Fd::new(0, 1)));
        assert!(mine_approximate(&t, 0.25).contains(&Fd::new(0, 1)));
    }

    #[test]
    fn injectable_excludes_key_lhs() {
        let fds = mine_exact_injectable(&cities());
        assert!(fds.contains(&Fd::new(1, 2)));
        assert!(!fds.iter().any(|fd| fd.lhs == 0), "key LHS not injectable: {fds:?}");
    }

    #[test]
    fn single_column_table_has_no_fds() {
        let t = Table::new("t", vec![Column::new("a", ["1", "2"])]);
        assert!(mine_approximate(&t, 1.0).is_empty());
        assert!(mine_exact_injectable(&t).is_empty());
    }
}
