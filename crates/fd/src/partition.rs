//! Stripped partitions: the classic FD-mining representation of a column
//! (TANE / HyFD). A partition groups row indices by cell value and keeps
//! only groups of size ≥ 2 — singleton groups can never witness or violate
//! a unary FD. Built by the [`crate::kernel`]'s counting sort of the
//! column's interned codes.

use crate::kernel::CodeGroups;
use matelda_table::{InternedColumn, Table};

/// The stripped partition of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Row-index groups (size ≥ 2), each sorted ascending; groups sorted by
    /// first member for determinism.
    pub groups: Vec<Vec<usize>>,
    /// Total number of rows in the column the partition was built from.
    pub n_rows: usize,
}

impl Partition {
    /// Builds the stripped partition of column `col` of `table`.
    pub fn of_column(table: &Table, col: usize) -> Self {
        let col = InternedColumn::build(&table.columns[col].values);
        let groups = CodeGroups::of(&col);
        let groups = groups.iter().map(|g| g.iter().map(|&r| r as usize).collect()).collect();
        Self { groups, n_rows: col.n_rows() }
    }

    /// Number of non-singleton groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// `true` if every value is unique (a key column).
    pub fn is_key(&self) -> bool {
        self.groups.is_empty()
    }

    /// Rows covered by non-singleton groups.
    pub fn covered_rows(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::Column;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::new("club", ["Real", "Real", "City", "City", "Ajax"]),
                Column::new("id", ["1", "2", "3", "4", "5"]),
            ],
        )
    }

    #[test]
    fn groups_rows_by_value() {
        let p = Partition::of_column(&table(), 0);
        assert_eq!(p.n_rows, 5);
        assert_eq!(p.groups, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.covered_rows(), 4);
        assert!(!p.is_key());
    }

    #[test]
    fn key_column_has_empty_partition() {
        let p = Partition::of_column(&table(), 1);
        assert!(p.is_key());
        assert_eq!(p.n_groups(), 0);
        assert_eq!(p.covered_rows(), 0);
    }

    #[test]
    fn empty_column() {
        let t = Table::new("t", vec![Column::new("a", Vec::<String>::new())]);
        let p = Partition::of_column(&t, 0);
        assert_eq!(p.n_rows, 0);
        assert!(p.is_key());
    }

    #[test]
    fn all_identical_single_group() {
        let t = Table::new("t", vec![Column::new("a", ["x", "x", "x"])]);
        assert_eq!(Partition::of_column(&t, 0).groups, vec![vec![0, 1, 2]]);
    }
}
