//! Column profiling: the descriptive statistics layer used by constraint
//! suggestion (Deequ/GX baselines), the CLI's `profile` command and ad-hoc
//! lake exploration.

use crate::table::{Column, Table};
use crate::value::{as_f64, is_null, DataType};
use std::collections::HashMap;

/// Descriptive statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Dominant data type.
    pub data_type: DataType,
    /// Number of rows.
    pub n_rows: usize,
    /// Number of missing values.
    pub n_nulls: usize,
    /// Number of distinct values (nulls collapse to one value).
    pub n_distinct: usize,
    /// Shannon entropy of the value distribution, in bits.
    pub entropy_bits: f64,
    /// Most frequent values with counts, descending, capped at 5.
    pub top_values: Vec<(String, usize)>,
    /// Numeric summary, when the column is majority-numeric.
    pub numeric: Option<NumericSummary>,
    /// Mean character length of the serialized values.
    pub mean_length: f64,
}

/// Min / max / mean / standard deviation / quartiles of the parseable
/// numeric values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericSummary {
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// 25th / 50th / 75th percentiles.
    pub quartiles: [f64; 3],
}

impl ColumnProfile {
    /// Profiles one column.
    pub fn of(column: &Column) -> Self {
        let n_rows = column.len();
        let n_nulls = column.values.iter().filter(|v| is_null(v)).count();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let mut total_len = 0usize;
        for v in &column.values {
            *counts.entry(v.as_str()).or_insert(0) += 1;
            total_len += v.chars().count();
        }
        let n_distinct = counts.len();

        let entropy_bits = if n_rows == 0 {
            0.0
        } else {
            counts
                .values()
                .map(|&c| {
                    let p = c as f64 / n_rows as f64;
                    -p * p.log2()
                })
                .sum()
        };

        let mut top: Vec<(String, usize)> =
            counts.iter().map(|(v, &c)| (v.to_string(), c)).collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(5);

        let data_type = column.data_type();
        let numeric = if matches!(data_type, DataType::Integer | DataType::Float) {
            let mut nums: Vec<f64> = column.values.iter().filter_map(|v| as_f64(v)).collect();
            if nums.is_empty() {
                None
            } else {
                // total_cmp: a NaN cell value must never panic profiling.
                nums.sort_by(f64::total_cmp);
                let mean = nums.iter().sum::<f64>() / nums.len() as f64;
                let var =
                    nums.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / nums.len() as f64;
                let q = |frac: f64| nums[((nums.len() - 1) as f64 * frac).round() as usize];
                Some(NumericSummary {
                    min: nums[0],
                    max: *nums.last().expect("non-empty"),
                    mean,
                    std: var.sqrt(),
                    quartiles: [q(0.25), q(0.5), q(0.75)],
                })
            }
        } else {
            None
        };

        Self {
            name: column.name.clone(),
            data_type,
            n_rows,
            n_nulls,
            n_distinct,
            entropy_bits,
            top_values: top,
            numeric,
            mean_length: if n_rows == 0 { 0.0 } else { total_len as f64 / n_rows as f64 },
        }
    }

    /// Fraction of non-null rows.
    pub fn completeness(&self) -> f64 {
        if self.n_rows == 0 {
            1.0
        } else {
            1.0 - self.n_nulls as f64 / self.n_rows as f64
        }
    }
}

/// Profiles every column of a table.
pub fn profile_table(table: &Table) -> Vec<ColumnProfile> {
    table.columns.iter().map(ColumnProfile::of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[&str]) -> Column {
        Column::new("c", vals.to_vec())
    }

    #[test]
    fn counts_and_completeness() {
        let p = ColumnProfile::of(&col(&["a", "b", "a", "", "a"]));
        assert_eq!(p.n_rows, 5);
        assert_eq!(p.n_nulls, 1);
        assert_eq!(p.n_distinct, 3);
        assert!((p.completeness() - 0.8).abs() < 1e-12);
        assert_eq!(p.top_values[0], ("a".to_string(), 3));
    }

    #[test]
    fn entropy_behaves() {
        // Uniform over 4 values = 2 bits; constant = 0 bits.
        let uniform = ColumnProfile::of(&col(&["a", "b", "c", "d"]));
        assert!((uniform.entropy_bits - 2.0).abs() < 1e-9);
        let constant = ColumnProfile::of(&col(&["x", "x", "x", "x"]));
        assert!(constant.entropy_bits.abs() < 1e-12);
    }

    #[test]
    fn numeric_summary_quartiles() {
        let p = ColumnProfile::of(&col(&["1", "2", "3", "4", "5"]));
        let s = p.numeric.expect("numeric column");
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.quartiles, [2.0, 3.0, 4.0]);
        assert!((s.std - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn text_column_has_no_numeric_summary() {
        let p = ColumnProfile::of(&col(&["alpha", "beta"]));
        assert!(p.numeric.is_none());
        assert_eq!(p.data_type, DataType::Text);
        assert!((p.mean_length - 4.5).abs() < 1e-12);
    }

    #[test]
    fn empty_column() {
        let p = ColumnProfile::of(&Column::new("e", Vec::<String>::new()));
        assert_eq!(p.n_rows, 0);
        assert_eq!(p.completeness(), 1.0);
        assert_eq!(p.entropy_bits, 0.0);
        assert!(p.top_values.is_empty());
    }

    #[test]
    fn profile_table_covers_all_columns() {
        let t = Table::new("t", vec![Column::new("a", ["1", "2"]), Column::new("b", ["x", "y"])]);
        let profiles = profile_table(&t);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].name, "a");
        assert!(profiles[0].numeric.is_some());
    }
}
