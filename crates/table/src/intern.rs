//! Per-table string interning: each column's strings hashed once.
//!
//! Every per-cell signal of the featurizer is a pure function of a
//! cell's *string value* (plus column-level aggregates), and every
//! functional-dependency question is a question about *equal* values —
//! yet real columns hold few distinct values. Interning builds, once per
//! column, the list of distinct values in first-occurrence order
//! (borrowed from the table's own string storage — the table *is* the
//! arena, nothing is copied) plus a `u32` code per row and a count per
//! distinct value. Detectors then run once per distinct value and
//! scatter their flags through the codes, and the FD pair kernel
//! (`matelda-fd`) groups and compares rows by code, never by string.
//! Featurize interns a table once and hands the same view to both.
//!
//! Exactness: codes are a pure re-indexing — the multiset of values, the
//! per-value counts, and the row order all survive unchanged, and code
//! order is first-occurrence order, so anything computed through the
//! intern is bit-identical to the per-string reference (pinned by the
//! equivalence proptests in `matelda-detect`'s featurize and
//! `matelda-fd`).

use crate::table::Table;
use std::collections::HashMap;

/// One column's interned view: distinct values, per-row codes, and
/// per-distinct occurrence counts.
#[derive(Debug, Clone)]
pub struct InternedColumn<'a> {
    /// Distinct cell values in first-occurrence order.
    pub distinct: Vec<&'a str>,
    /// `codes[row]` indexes into `distinct`.
    pub codes: Vec<u32>,
    /// `counts[code]` = number of rows holding that value.
    pub counts: Vec<usize>,
}

impl<'a> InternedColumn<'a> {
    /// Interns one column's values, hashing each string once. The
    /// lookup table is never iterated, so its seeded hash (which keeps
    /// crafted cell values from colliding) cannot reach the codes.
    pub fn build(values: &'a [String]) -> Self {
        let mut lookup: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<&'a str> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(values.len());
        for v in values {
            let code = *lookup.entry(v.as_str()).or_insert_with(|| {
                distinct.push(v.as_str());
                counts.push(0);
                (distinct.len() - 1) as u32
            });
            counts[code as usize] += 1;
            codes.push(code);
        }
        Self { distinct, codes, counts }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.codes.len()
    }

    /// Number of distinct values.
    pub fn n_distinct(&self) -> usize {
        self.distinct.len()
    }
}

/// All columns of a table, interned.
#[derive(Debug, Clone)]
pub struct InternedTable<'a> {
    /// One interned view per table column.
    pub columns: Vec<InternedColumn<'a>>,
}

impl<'a> InternedTable<'a> {
    /// Interns every column of `table`.
    pub fn build(table: &'a Table) -> Self {
        Self { columns: table.columns.iter().map(|c| InternedColumn::build(&c.values)).collect() }
    }

    /// Number of rows (0 for a table without columns, as
    /// [`Table::n_rows`]).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, InternedColumn::n_rows)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn codes_round_trip_the_column() {
        let vals = strings(&["a", "b", "a", "c", "b", "a"]);
        let ic = InternedColumn::build(&vals);
        assert_eq!(ic.distinct, vec!["a", "b", "c"]);
        assert_eq!(ic.codes, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(ic.counts, vec![3, 2, 1]);
        let back: Vec<&str> = ic.codes.iter().map(|&c| ic.distinct[c as usize]).collect();
        assert_eq!(back, vals.iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn empty_column() {
        let ic = InternedColumn::build(&[]);
        assert_eq!(ic.n_rows(), 0);
        assert_eq!(ic.n_distinct(), 0);
    }

    #[test]
    fn table_shape_matches_the_table() {
        use crate::table::Column;
        let t = Table::new("t", vec![Column::new("a", ["1", "2"]), Column::new("b", ["x", "x"])]);
        let it = InternedTable::build(&t);
        assert_eq!((it.n_rows(), it.n_cols()), (t.n_rows(), t.n_cols()));
        let empty = Table::new("e", vec![]);
        assert_eq!(InternedTable::build(&empty).n_rows(), empty.n_rows());
    }
}
