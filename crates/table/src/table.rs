//! Column-major relational tables of string cells.

use crate::value::{infer_column_type, DataType};

/// A named column holding the serialized cell values of one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Attribute name (header).
    pub name: String,
    /// Cell values, one per row, in row order.
    pub values: Vec<String>,
}

impl Column {
    /// Creates a column from anything convertible to strings.
    pub fn new(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Self { name: name.into(), values: values.into_iter().map(Into::into).collect() }
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Dominant [`DataType`] of the column (majority vote over non-nulls).
    pub fn data_type(&self) -> DataType {
        infer_column_type(self.values.iter().map(String::as_str))
    }
}

/// A relational instance: an ordered list of equally long [`Column`]s.
///
/// Tables are column-major because every base detector in the paper
/// (outliers, typo checks, FD checks) is column-local; row views are
/// materialized on demand for tuple-at-a-time labeling (Raha-Standard /
/// Raha-RT budgets), and domain folding (§3.2) streams the cells
/// row-major into its encoder without building them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table name (file stem in a lake on disk).
    pub name: String,
    /// The columns; all share the same length.
    pub columns: Vec<Column>,
}

impl Table {
    /// Builds a table, checking that all columns have equal length.
    ///
    /// # Panics
    /// Panics if column lengths disagree — a table with ragged columns is a
    /// construction bug, not a data error.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        if let Some(first) = columns.first() {
            for c in &columns {
                assert_eq!(
                    c.len(),
                    first.len(),
                    "ragged table: column {:?} has {} rows, expected {}",
                    c.name,
                    c.len(),
                    first.len()
                );
            }
        }
        Self { name: name.into(), columns }
    }

    /// Builds a table from a header and row-major string data.
    pub fn from_rows(name: impl Into<String>, header: &[&str], rows: &[Vec<String>]) -> Self {
        let mut columns: Vec<Column> = header
            .iter()
            .map(|h| Column { name: (*h).to_string(), values: Vec::with_capacity(rows.len()) })
            .collect();
        for row in rows {
            assert_eq!(row.len(), header.len(), "row width mismatch in table");
            for (c, v) in columns.iter_mut().zip(row) {
                c.values.push(v.clone());
            }
        }
        Self { name: name.into(), columns }
    }

    /// Number of rows (tuples).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns (attributes).
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Total number of cells.
    pub fn n_cells(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    /// The cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.columns[col].values[row]
    }

    /// Mutable access to the cell at `(row, col)`.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut String {
        &mut self.columns[col].values[row]
    }

    /// Materializes row `i` as a vector of cell references.
    pub fn row(&self, i: usize) -> Vec<&str> {
        self.columns.iter().map(|c| c.values[i].as_str()).collect()
    }

    /// Iterates over rows as vectors of cell references.
    pub fn rows(&self) -> impl Iterator<Item = Vec<&str>> + '_ {
        (0..self.n_rows()).map(|i| self.row(i))
    }

    /// The header as a vector of attribute names.
    pub fn header(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn players() -> Table {
        Table::new(
            "players",
            vec![
                Column::new("Name", ["Mbappé", "Haaland", "Kane"]),
                Column::new("Age", ["24", "23", "30"]),
                Column::new("Club", ["PSG", "Man City", "Bayern"]),
            ],
        )
    }

    #[test]
    fn dimensions_and_access() {
        let t = players();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.n_cells(), 9);
        assert_eq!(t.cell(1, 0), "Haaland");
        assert_eq!(t.row(2), vec!["Kane", "30", "Bayern"]);
        assert_eq!(t.header(), vec!["Name", "Age", "Club"]);
    }

    #[test]
    #[should_panic(expected = "ragged table")]
    fn ragged_columns_rejected() {
        Table::new("bad", vec![Column::new("a", ["1", "2"]), Column::new("b", ["x"])]);
    }

    #[test]
    fn from_rows_round_trip() {
        let rows =
            vec![vec!["a".to_string(), "1".to_string()], vec!["b".to_string(), "2".to_string()]];
        let t = Table::from_rows("t", &["k", "v"], &rows);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.cell(1, 1), "2");
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", vec![]);
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.n_cells(), 0);
    }

    #[test]
    fn cell_mut_edits_in_place() {
        let mut t = players();
        *t.cell_mut(0, 1) = "1995".to_string();
        assert_eq!(t.cell(0, 1), "1995");
    }
}
