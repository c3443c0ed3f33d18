//! Lakes: ordered sets of tables with global cell addressing.

use crate::table::Table;

/// Globally addresses one cell inside a [`Lake`]: `(table, row, col)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Index of the table within the lake.
    pub table: usize,
    /// Row (tuple) index within the table.
    pub row: usize,
    /// Column (attribute) index within the table.
    pub col: usize,
}

impl CellId {
    /// Convenience constructor.
    pub fn new(table: usize, row: usize, col: usize) -> Self {
        Self { table, row, col }
    }
}

/// A set of tables — the unit the multi-table error detection problem
/// (paper §2.2) is defined over.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lake {
    /// The member tables, in a stable order.
    pub tables: Vec<Table>,
}

impl Lake {
    /// Creates a lake from tables.
    pub fn new(tables: Vec<Table>) -> Self {
        Self { tables }
    }

    /// Number of tables `|S|`.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total number of cells across all tables.
    pub fn n_cells(&self) -> usize {
        self.tables.iter().map(Table::n_cells).sum()
    }

    /// Total number of columns across all tables — the denominator of the
    /// per-domain-fold budget split (Alg. 1 line 12).
    pub fn n_columns(&self) -> usize {
        self.tables.iter().map(Table::n_cols).sum()
    }

    /// Total number of rows (tuples) across all tables.
    pub fn n_rows(&self) -> usize {
        self.tables.iter().map(Table::n_rows).sum()
    }

    /// The cell value addressed by `id`.
    pub fn cell(&self, id: CellId) -> &str {
        self.tables[id.table].cell(id.row, id.col)
    }

    /// Looks up a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }
}

impl std::ops::Index<usize> for Lake {
    type Output = Table;
    fn index(&self, i: usize) -> &Table {
        &self.tables[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;

    fn lake() -> Lake {
        Lake::new(vec![
            Table::new("a", vec![Column::new("x", ["1", "2"]), Column::new("y", ["3", "4"])]),
            Table::new("b", vec![Column::new("z", ["5"])]),
        ])
    }

    #[test]
    fn counts() {
        let l = lake();
        assert_eq!(l.n_tables(), 2);
        assert_eq!(l.n_cells(), 5);
        assert_eq!(l.n_columns(), 3);
        assert_eq!(l.n_rows(), 3);
    }

    #[test]
    fn cell_addressing() {
        let l = lake();
        assert_eq!(l.cell(CellId::new(0, 1, 1)), "4");
        assert_eq!(l.cell(CellId::new(1, 0, 0)), "5");
        assert_eq!(l[1].name, "b");
    }

    #[test]
    fn lookup_by_name() {
        let l = lake();
        assert!(l.table_by_name("a").is_some());
        assert!(l.table_by_name("missing").is_none());
    }
}
