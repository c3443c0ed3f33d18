//! The FD pair kernel: every unary-FD question of the crate, answered
//! over interned column codes instead of strings.
//!
//! A column is interned once ([`InternedColumn`]: distinct values in
//! first-occurrence order, one `u32` code per row). Its stripped
//! partition is then a counting sort of those codes ([`CodeGroups`]):
//! one group per code held by at least two rows, groups in code order —
//! which is first-occurrence order, the order [`crate::Partition`]
//! sorts its groups into — and rows ascending within each group.
//!
//! [`PairKernel::scan`] checks one ordered pair `lhs → rhs`: for each
//! LHS group it counts the RHS codes in a dense scratch array, and a
//! group holding more than one RHS code is inconsistent. The scan
//! returns the g3 numerator (rows to remove so the FD holds exactly:
//! each inconsistent group minus its majority) and remembers each
//! inconsistent group's majority code, so the caller can then stream
//! the pair's marked rows — the minority rows or the whole groups —
//! without a row list ever being built. Majority ties go to the
//! lexicographically smallest RHS *string*, as the string-keyed
//! reference breaks them; codes compare equal exactly when strings do,
//! so the kernel marks the same rows (pinned in this module's tests
//! against that reference).

use matelda_table::InternedColumn;

/// The stripped partition of one interned column in compressed form:
/// group `g` is `rows[bounds[g]..bounds[g + 1]]`.
#[derive(Debug)]
pub struct CodeGroups {
    bounds: Vec<u32>,
    rows: Vec<u32>,
}

impl CodeGroups {
    /// Groups `col`'s rows by code with one counting sort: codes held by
    /// at least two rows, in code order, each group's rows ascending.
    pub fn of(col: &InternedColumn<'_>) -> Self {
        let mut slot = vec![u32::MAX; col.n_distinct()];
        let mut bounds = vec![0u32];
        for (code, &count) in col.counts.iter().enumerate() {
            if count >= 2 {
                slot[code] = (bounds.len() - 1) as u32;
                bounds.push(bounds[bounds.len() - 1] + count as u32);
            }
        }
        let mut fill: Vec<u32> = bounds[..bounds.len() - 1].to_vec();
        let mut rows = vec![0u32; bounds[bounds.len() - 1] as usize];
        for (r, &code) in col.codes.iter().enumerate() {
            let g = slot[code as usize];
            if g != u32::MAX {
                rows[fill[g as usize] as usize] = r as u32;
                fill[g as usize] += 1;
            }
        }
        Self { bounds, rows }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// `true` if no value repeats (a key column, or no rows).
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group `g`'s rows, ascending.
    fn group(&self, g: usize) -> &[u32] {
        &self.rows[self.bounds[g] as usize..self.bounds[g + 1] as usize]
    }

    /// The groups in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|g| self.group(g))
    }
}

/// Reusable scratch for scanning column pairs. Its dense count array is
/// all zeros between scans, so one kernel serves every pair of a table.
#[derive(Debug, Default)]
pub struct PairKernel {
    counts: Vec<u32>,
    touched: Vec<u32>,
    inconsistent: Vec<(u32, u32)>,
}

/// One scanned pair `lhs → rhs`: its g3 numerator, and its marked rows
/// on demand.
#[derive(Debug)]
pub struct PairScan<'k> {
    /// Rows that must be removed for the FD to hold exactly: for every
    /// inconsistent LHS group, its size minus its majority count.
    removed: usize,
    n_rows: usize,
    lhs: &'k CodeGroups,
    rhs_codes: &'k [u32],
    /// `(group, majority RHS code)` of each inconsistent group, in
    /// group order.
    inconsistent: &'k [(u32, u32)],
}

impl PairKernel {
    /// A kernel with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scans `lhs → rhs`, where `lhs` is the LHS column's [`CodeGroups`]
    /// and `rhs` the RHS column, both of one table.
    pub fn scan<'k>(
        &'k mut self,
        lhs: &'k CodeGroups,
        rhs: &'k InternedColumn<'_>,
    ) -> PairScan<'k> {
        let codes = rhs.codes.as_slice();
        if self.counts.len() < rhs.n_distinct() {
            self.counts.resize(rhs.n_distinct(), 0);
        }
        self.inconsistent.clear();
        let mut removed = 0usize;
        for (g, group) in lhs.iter().enumerate() {
            let first = codes[group[0] as usize];
            if group.iter().all(|&r| codes[r as usize] == first) {
                continue;
            }
            for &r in group {
                let c = codes[r as usize];
                if self.counts[c as usize] == 0 {
                    self.touched.push(c);
                }
                self.counts[c as usize] += 1;
            }
            // Majority: the largest count, ties to the smallest string.
            let mut best = self.touched[0];
            for &c in &self.touched[1..] {
                let (nc, nb) = (self.counts[c as usize], self.counts[best as usize]);
                if nc > nb || (nc == nb && rhs.distinct[c as usize] < rhs.distinct[best as usize]) {
                    best = c;
                }
            }
            removed += group.len() - self.counts[best as usize] as usize;
            self.inconsistent.push((g as u32, best));
            for c in self.touched.drain(..) {
                self.counts[c as usize] = 0;
            }
        }
        PairScan {
            removed,
            n_rows: rhs.n_rows(),
            lhs,
            rhs_codes: codes,
            inconsistent: &self.inconsistent,
        }
    }
}

impl PairScan<'_> {
    /// g3 approximation error: the fraction of rows that must be removed
    /// for the FD to hold exactly (0.0 for an exact FD or no rows).
    pub fn g3_error(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.removed as f64 / self.n_rows as f64
        }
    }

    /// Calls `mark` on each marked row, group by group (ascending within
    /// a group): every row of an inconsistent group if `whole_group`,
    /// otherwise only the rows off their group's majority value.
    pub fn for_each_marked(&self, whole_group: bool, mut mark: impl FnMut(usize)) {
        for &(g, majority) in self.inconsistent {
            for &r in self.lhs.group(g as usize) {
                if whole_group || self.rhs_codes[r as usize] != majority {
                    mark(r as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mine_approximate, mine_exact_injectable, violation_stats, Fd, Partition};
    use matelda_table::{Column, Table};
    use std::collections::HashMap;

    /// The string-keyed `violation_stats` the kernel replaced, kept
    /// verbatim as the reference: a `HashMap` partition of the LHS
    /// strings and a string-count map per group.
    fn reference_violation_stats(
        table: &Table,
        lhs: usize,
        rhs: usize,
    ) -> (Vec<usize>, Vec<usize>, f64) {
        let part = reference_partition(table.columns[lhs].values.iter().map(String::as_str));
        let rhs_values = &table.columns[rhs].values;
        let n = table.n_rows();
        let mut violating = Vec::new();
        let mut minority = Vec::new();
        let mut removed = 0usize;
        for group in &part.groups {
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for &r in group {
                *counts.entry(rhs_values[r].as_str()).or_insert(0) += 1;
            }
            if counts.len() <= 1 {
                continue;
            }
            let majority = counts.values().copied().max().expect("non-empty group");
            let majority_value = counts
                .iter()
                .filter(|(_, c)| **c == majority)
                .map(|(v, _)| *v)
                .min()
                .expect("non-empty");
            removed += group.len() - majority;
            for &r in group {
                violating.push(r);
                if rhs_values[r] != majority_value {
                    minority.push(r);
                }
            }
        }
        violating.sort_unstable();
        minority.sort_unstable();
        let g3_error = if n == 0 { 0.0 } else { removed as f64 / n as f64 };
        (violating, minority, g3_error)
    }

    /// The string-keyed `Partition::from_values` the kernel replaced.
    fn reference_partition<'a>(values: impl Iterator<Item = &'a str>) -> Partition {
        let mut by_value: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut n_rows = 0;
        for (i, v) in values.enumerate() {
            by_value.entry(v).or_default().push(i);
            n_rows += 1;
        }
        let mut groups: Vec<Vec<usize>> = by_value.into_values().filter(|g| g.len() >= 2).collect();
        groups.sort_by_key(|g| g[0]);
        Partition { groups, n_rows }
    }

    /// The per-pair `mine_approximate` over the reference.
    fn reference_mine_approximate(table: &Table, max_error: f64) -> Vec<Fd> {
        let m = table.n_cols();
        let mut out = Vec::new();
        for lhs in 0..m {
            for rhs in 0..m {
                if lhs != rhs && reference_violation_stats(table, lhs, rhs).2 <= max_error {
                    out.push(Fd::new(lhs, rhs));
                }
            }
        }
        out
    }

    /// The per-pair `mine_exact_injectable` over the reference.
    fn reference_mine_exact_injectable(table: &Table) -> Vec<Fd> {
        let m = table.n_cols();
        let mut out = Vec::new();
        for lhs in 0..m {
            let values = table.columns[lhs].values.iter().map(String::as_str);
            if reference_partition(values).groups.is_empty() {
                continue;
            }
            for rhs in 0..m {
                if lhs != rhs && reference_violation_stats(table, lhs, rhs).2 == 0.0 {
                    out.push(Fd::new(lhs, rhs));
                }
            }
        }
        out
    }

    fn table_of(cols: &[Vec<&str>]) -> Table {
        Table::new(
            "p",
            cols.iter()
                .enumerate()
                .map(|(j, v)| Column::new(format!("c{j}"), v.iter().copied()))
                .collect(),
        )
    }

    /// Every ordered pair through one kernel, against the reference:
    /// removed count (as g3), whole-group and minority rows.
    fn assert_pairs_match_reference(table: &Table) {
        let interned = matelda_table::InternedTable::build(table);
        let groups: Vec<CodeGroups> = interned.columns.iter().map(CodeGroups::of).collect();
        let mut kernel = PairKernel::new();
        for lhs in 0..table.n_cols() {
            for rhs in 0..table.n_cols() {
                if lhs == rhs {
                    continue;
                }
                let (violating, minority, g3) = reference_violation_stats(table, lhs, rhs);
                let scan = kernel.scan(&groups[lhs], &interned.columns[rhs]);
                assert_eq!(scan.g3_error().to_bits(), g3.to_bits(), "g3 of {lhs}->{rhs}");
                for (whole_group, want) in [(true, &violating), (false, &minority)] {
                    let mut got = Vec::new();
                    scan.for_each_marked(whole_group, |r| got.push(r));
                    got.sort_unstable();
                    assert_eq!(&got, want, "{lhs}->{rhs} whole_group={whole_group}");
                }
                let stats = violation_stats(table, lhs, rhs);
                assert_eq!(stats.violating_rows, violating);
                assert_eq!(stats.minority_rows, minority);
                assert_eq!(stats.g3_error.to_bits(), g3.to_bits());
            }
        }
        for c in 0..table.n_cols() {
            let values = table.columns[c].values.iter().map(String::as_str);
            assert_eq!(Partition::of_column(table, c), reference_partition(values), "column {c}");
        }
        for max_error in [0.0, 0.1, 0.3, 1.0] {
            assert_eq!(
                mine_approximate(table, max_error),
                reference_mine_approximate(table, max_error)
            );
        }
        assert_eq!(mine_exact_injectable(table), reference_mine_exact_injectable(table));
    }

    #[test]
    fn ties_break_by_string_not_by_first_occurrence() {
        // "b" is seen before "a" in every group, so code order and
        // string order disagree; the 1-vs-1 and 2-vs-2 ties must still go
        // to "a", making the "b" rows the minority.
        let t = table_of(&[vec!["k", "k", "j", "j", "j", "j"], vec!["b", "a", "b", "a", "b", "a"]]);
        let interned = matelda_table::InternedTable::build(&t);
        let groups = CodeGroups::of(&interned.columns[0]);
        let mut kernel = PairKernel::new();
        let scan = kernel.scan(&groups, &interned.columns[1]);
        assert_eq!(scan.removed, 3);
        let mut minority = Vec::new();
        scan.for_each_marked(false, |r| minority.push(r));
        assert_eq!(minority, vec![0, 2, 4]);
        assert_pairs_match_reference(&t);
    }

    #[test]
    fn degenerate_tables_match_the_reference() {
        assert_pairs_match_reference(&table_of(&[vec![], vec![]]));
        assert_pairs_match_reference(&table_of(&[vec!["x", "x", "y"]]));
        assert_pairs_match_reference(&table_of(&[vec!["1", "2", "3"], vec!["a", "a", "b"]]));
        assert_pairs_match_reference(&Table::new("e", vec![]));
    }

    #[test]
    fn code_groups_are_the_stripped_partition() {
        let t = table_of(&[vec!["Real", "Real", "City", "Ajax", "City", "Real"]]);
        let interned = matelda_table::InternedTable::build(&t);
        let groups = CodeGroups::of(&interned.columns[0]);
        let got: Vec<Vec<u32>> = groups.iter().map(<[u32]>::to_vec).collect();
        assert_eq!(got, vec![vec![0, 1, 5], vec![2, 4]]);
        assert!(CodeGroups::of(&matelda_table::InternedColumn::build(&[])).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        // Random tables over small palettes (so groups repeat, ties and
        // majorities both occur), with the palette's first-occurrence
        // order shuffled against its string order, plus an all-distinct
        // key column: every pair, partition and miner equals the
        // string-keyed reference.
        #[test]
        fn kernel_matches_the_string_keyed_reference(
            cols in proptest::collection::vec(proptest::collection::vec(0usize..4, 0..24), 1..5),
            palette_shift in 0usize..4,
            with_key in 0u8..2,
        ) {
            const PALETTE: [&str; 4] = ["b", "a", "d", "c"];
            let n_rows = cols.iter().map(Vec::len).min().unwrap_or(0);
            let mut columns: Vec<Column> = cols
                .iter()
                .enumerate()
                .map(|(j, rows)| {
                    let values = rows[..n_rows].iter().map(|&v| PALETTE[(v + palette_shift) % 4]);
                    Column::new(format!("c{j}"), values)
                })
                .collect();
            if with_key == 1 {
                columns.insert(0, Column::new("id", (0..n_rows).map(|r| format!("r{r}"))));
            }
            assert_pairs_match_reference(&Table::new("p", columns));
        }
    }
}
