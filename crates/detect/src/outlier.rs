//! Outlier detectors: TF-histogram (Eq. 2) and Gaussian (Eq. 3) sweeps.
//!
//! Both are evaluated strictly within a cell's own column ("we evaluate
//! the outlier/inlier property of a cell only with regard to the cell
//! values that occur in the same column", §3.3.1), but emit flags at fixed
//! threshold grids so the resulting bits mean the same thing in every
//! table.

use matelda_table::value::as_f64;
use matelda_table::DataType;
use std::collections::HashMap;

/// The paper's TF-histogram threshold grid Θ_tf.
pub const TF_THRESHOLDS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// The paper's Gaussian threshold grid Θ_dist.
pub const DIST_THRESHOLDS: [f64; 9] = [1.0, 1.3, 1.5, 1.7, 2.0, 2.3, 2.5, 2.7, 3.0];

/// TF-histogram flags for every cell of a column: flag at threshold `θ` if
/// the cell's *relative term frequency* is below `θ` (Eq. 2).
///
/// Normalization deviation (documented in DESIGN.md): Eq. 2 normalizes a
/// value's count by `Σ_i' TF(t[i',j])`, which for realistic row counts
/// pushes every ratio far below the smallest threshold (0.1) — the flags
/// degenerate to all-ones and carry no signal. We normalize by the
/// column's *maximum* term count instead: the most frequent value scores
/// 1.0, a singleton in a repetitive column scores near 0, and the score
/// is scale-invariant across columns of different lengths — exactly what
/// the unified multi-table feature space needs. Columns where every value
/// is unique score 1.0 everywhere and the detector abstains (instead of
/// flagging everything).
///
/// Returns, row-major, one `[bool; 9]` per row.
pub fn histogram_flags(values: &[String]) -> Vec<[bool; 9]> {
    let n = values.len();
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for v in values {
        *counts.entry(v.as_str()).or_insert(0) += 1;
    }
    let max_count = counts.values().copied().max().unwrap_or(0);
    let mut out = Vec::with_capacity(n);
    for v in values {
        let ratio = if max_count == 0 { 1.0 } else { counts[v.as_str()] as f64 / max_count as f64 };
        let mut flags = [false; 9];
        for (k, &theta) in TF_THRESHOLDS.iter().enumerate() {
            flags[k] = ratio < theta;
        }
        out.push(flags);
    }
    out
}

/// Gaussian flags for every cell of a column: for a majority-numeric
/// column, flag at threshold `θ` if `|x - μ| / σ > θ` (Eq. 3).
///
/// Two deliberate extensions for the multi-table feature space:
/// * cells of a numeric column that do **not** parse as numbers (the
///   `$83,320,000` formatting errors of the running example) saturate all
///   nine flags — they are "infinitely far" from the distribution;
/// * non-numeric columns emit all-zero flags (the detector abstains).
pub fn gaussian_flags(values: &[String], column_type: DataType) -> Vec<[bool; 9]> {
    let n = values.len();
    // Date columns get the same "does not fit the column's shape"
    // saturation treatment: a date column's distribution is its format,
    // and a cell that no longer parses as a date is maximally outlying.
    if column_type == DataType::Date {
        return values
            .iter()
            .map(|v| if matelda_table::value::looks_like_date(v) { [false; 9] } else { [true; 9] })
            .collect();
    }
    let numeric_column = matches!(column_type, DataType::Integer | DataType::Float);
    if !numeric_column {
        return vec![[false; 9]; n];
    }
    let nums: Vec<Option<f64>> = values.iter().map(|v| as_f64(v)).collect();
    let parsed: Vec<f64> = nums.iter().flatten().copied().collect();
    if parsed.is_empty() {
        return vec![[true; 9]; n];
    }
    let mean = parsed.iter().sum::<f64>() / parsed.len() as f64;
    let var = parsed.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / parsed.len() as f64;
    let std = var.sqrt();
    let mut out = Vec::with_capacity(n);
    for num in &nums {
        let mut flags = [false; 9];
        match num {
            None => flags = [true; 9],
            Some(x) => {
                // σ = 0 means a constant column: everything is an inlier.
                if std > 0.0 {
                    let z = (x - mean).abs() / std;
                    for (k, &theta) in DIST_THRESHOLDS.iter().enumerate() {
                        flags[k] = z > theta;
                    }
                }
            }
        }
        out.push(flags);
    }
    out
}

/// [`histogram_flags`] evaluated once per *distinct* value: entry `d` is
/// the flag row every cell holding distinct value `d` receives. `counts`
/// come from an [`matelda_table::InternedColumn`]; the ratio arithmetic
/// is identical to the per-cell version (same counts, same `max_count`),
/// so scattering through the codes is bit-exact.
pub fn histogram_flags_distinct(counts: &[usize]) -> Vec<[bool; 9]> {
    let max_count = counts.iter().copied().max().unwrap_or(0);
    counts
        .iter()
        .map(|&c| {
            let ratio = if max_count == 0 { 1.0 } else { c as f64 / max_count as f64 };
            let mut flags = [false; 9];
            for (k, &theta) in TF_THRESHOLDS.iter().enumerate() {
                flags[k] = ratio < theta;
            }
            flags
        })
        .collect()
}

/// [`histogram_flags_eq2_literal`] per distinct value. The reference's
/// denominator `Σ_rows counts[value(row)]` equals `Σ_distinct counts²`
/// exactly (integer arithmetic, order-free).
pub fn histogram_flags_eq2_literal_distinct(counts: &[usize]) -> Vec<[bool; 9]> {
    let denom: usize = counts.iter().map(|&c| c * c).sum();
    counts
        .iter()
        .map(|&c| {
            let ratio = if denom == 0 { 0.0 } else { c as f64 / denom as f64 };
            let mut flags = [false; 9];
            for (k, &theta) in TF_THRESHOLDS.iter().enumerate() {
                flags[k] = ratio < theta;
            }
            flags
        })
        .collect()
}

/// [`gaussian_flags`] evaluated once per distinct value.
///
/// The distribution moments still accumulate in *row order* over the
/// parsed values (`codes` reconstructs the exact f64 addition sequence of
/// the per-cell reference — f64 addition is not associative, so summing
/// per-distinct would change bits). Only the per-value work — numeric
/// parsing, date detection, the z-test per threshold — collapses to once
/// per distinct value.
pub fn gaussian_flags_distinct(
    distinct: &[&str],
    codes: &[u32],
    column_type: DataType,
) -> Vec<[bool; 9]> {
    if column_type == DataType::Date {
        return distinct
            .iter()
            .map(|v| if matelda_table::value::looks_like_date(v) { [false; 9] } else { [true; 9] })
            .collect();
    }
    let numeric_column = matches!(column_type, DataType::Integer | DataType::Float);
    if !numeric_column {
        return vec![[false; 9]; distinct.len()];
    }
    let nums: Vec<Option<f64>> = distinct.iter().map(|v| as_f64(v)).collect();
    let any_parsed = codes.iter().any(|&c| nums[c as usize].is_some());
    if !any_parsed {
        return vec![[true; 9]; distinct.len()];
    }
    // Row-order accumulation through the codes: identical f64 sequence to
    // the reference's `values.iter().map(as_f64).flatten()` sums.
    let mut sum = 0.0f64;
    let mut n_parsed = 0usize;
    for &c in codes {
        if let Some(x) = nums[c as usize] {
            sum += x;
            n_parsed += 1;
        }
    }
    let mean = sum / n_parsed as f64;
    let mut var_sum = 0.0f64;
    for &c in codes {
        if let Some(x) = nums[c as usize] {
            var_sum += (x - mean) * (x - mean);
        }
    }
    let var = var_sum / n_parsed as f64;
    let std = var.sqrt();
    nums.iter()
        .map(|num| {
            let mut flags = [false; 9];
            match num {
                None => flags = [true; 9],
                Some(x) => {
                    if std > 0.0 {
                        let z = (x - mean).abs() / std;
                        for (k, &theta) in DIST_THRESHOLDS.iter().enumerate() {
                            flags[k] = z > theta;
                        }
                    }
                }
            }
            flags
        })
        .collect()
}

/// The *literal* Eq. 2 histogram detector, kept for the deviation
/// ablation (`cargo run -p matelda-bench --bin ablation_deviations`):
/// normalize a value's term count by `Σ_i' TF(t[i',j])` — the sum of every
/// row's value-count. At realistic row counts every ratio lands far below
/// θ = 0.1 and the flags saturate; the ablation quantifies the damage.
pub fn histogram_flags_eq2_literal(values: &[String]) -> Vec<[bool; 9]> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for v in values {
        *counts.entry(v.as_str()).or_insert(0) += 1;
    }
    let denom: usize = values.iter().map(|v| counts[v.as_str()]).sum();
    values
        .iter()
        .map(|v| {
            let ratio = if denom == 0 { 0.0 } else { counts[v.as_str()] as f64 / denom as f64 };
            let mut flags = [false; 9];
            for (k, &theta) in TF_THRESHOLDS.iter().enumerate() {
                flags[k] = ratio < theta;
            }
            flags
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn histogram_flags_rare_values_at_low_thresholds() {
        // "x" appears 9 times, "y" once: ratios 1.0 and 1/9 ≈ 0.11.
        let mut vals = vec!["x"; 9];
        vals.push("y");
        let flags = histogram_flags(&strings(&vals));
        // rare value: 0.11 — not flagged at θ = 0.1, flagged above.
        assert!(!flags[9][0]);
        assert_eq!(flags[9][1..], [true; 8]);
        // most frequent value: ratio 1.0, never flagged.
        assert_eq!(flags[0], [false; 9]);
    }

    #[test]
    fn histogram_abstains_on_all_distinct_columns() {
        // All-distinct column: every ratio is 1.0 — no signal, no flags.
        let vals: Vec<String> = (0..20).map(|i| format!("v{i}")).collect();
        let flags = histogram_flags(&vals);
        assert!(flags.iter().all(|f| *f == [false; 9]));
    }

    #[test]
    fn histogram_scale_invariant_across_column_lengths() {
        // A singleton among 9 repeats scores the same whether the column
        // has 10 or 1000 rows — the cross-table comparability property.
        let short: Vec<String> =
            (0..10).map(|i| if i == 0 { "odd".into() } else { "common".to_string() }).collect();
        let long: Vec<String> =
            (0..1000).map(|i| if i == 0 { "odd".into() } else { "common".to_string() }).collect();
        let fs = histogram_flags(&short);
        let fl = histogram_flags(&long);
        // Both singletons are flagged from θ = 0.2 upward at least.
        assert!(fs[0][2..].iter().all(|&b| b));
        assert!(fl[0][2..].iter().all(|&b| b));
        // Both majorities are never flagged.
        assert_eq!(fs[5], [false; 9]);
        assert_eq!(fl[5], [false; 9]);
    }

    #[test]
    fn gaussian_flags_numeric_outlier() {
        // Ages ~20-35 with one 1995 (the running example's Jack Grealish).
        // A single outlier among n=10 points is bounded at z = 9/√10 ≈
        // 2.85 (it inflates σ itself), so it fires every threshold except
        // θ = 3.
        let vals = strings(&["24", "23", "30", "1995", "31", "30", "28", "27", "26", "25"]);
        let flags = gaussian_flags(&vals, DataType::Integer);
        assert_eq!(flags[3][..8], [true; 8], "1995 is far out: {:?}", flags[3]);
        assert_eq!(flags[0], [false; 9], "24 is an inlier");
    }

    #[test]
    fn gaussian_saturates_on_unparsable_in_numeric_column() {
        let vals = strings(&["10", "12", "11", "$13", "9", "10", "12"]);
        let flags = gaussian_flags(&vals, DataType::Integer);
        assert_eq!(flags[3], [true; 9]);
        assert_eq!(flags[0], [false; 9]);
    }

    #[test]
    fn gaussian_abstains_on_text_columns() {
        let vals = strings(&["alpha", "beta", "gamma"]);
        let flags = gaussian_flags(&vals, DataType::Text);
        assert!(flags.iter().all(|f| *f == [false; 9]));
    }

    #[test]
    fn gaussian_constant_column_all_inliers() {
        let vals = strings(&["5", "5", "5", "5"]);
        let flags = gaussian_flags(&vals, DataType::Integer);
        assert!(flags.iter().all(|f| *f == [false; 9]));
    }

    #[test]
    fn empty_column() {
        assert!(histogram_flags(&[]).is_empty());
        assert!(gaussian_flags(&[], DataType::Integer).is_empty());
    }
}
