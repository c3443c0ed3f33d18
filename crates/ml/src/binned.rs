//! Lossless bin codes of a feature matrix, the input of the memoized
//! tree grower (`NodeMemo`, which boosting uses).
//!
//! Our detector feature space (33 mostly-binary flags per cell) has very
//! few distinct values per column, so binning is *lossless* here: a bin
//! is simply the rank of the value among the column's sorted distinct
//! values. Bin-code comparison is therefore order-isomorphic to
//! raw-value comparison, which is what lets the memoized split search
//! reproduce the exact-split reference [`crate::RegressionTree::fit`]
//! bit for bit (see DESIGN.md "Performance contract").
//!
//! Columns with more than [`MAX_BINS`] distinct values or any NaN are not
//! representable; [`BinnedDataset::build`] returns `None` and callers fall
//! back to the exact reference path.

/// Maximum number of distinct values a feature may have to be binnable
/// (bin codes are `u8`).
pub const MAX_BINS: usize = 256;

/// A feature matrix as per-feature bin codes.
///
/// Codes are stored feature-major (SoA): `codes[f * n_rows + i]` is the
/// bin of row `i` in feature `f`, so per-feature scans are contiguous.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    n_features: usize,
    /// Feature-major bin codes, `n_features × n_rows`.
    codes: Vec<u8>,
    /// Per-feature ascending distinct values; `bin_values[f][b]` is the raw
    /// value every row with code `b` holds in feature `f`.
    bin_values: Vec<Vec<f32>>,
}

impl BinnedDataset {
    /// Bins `x` (row-major). Returns `None` when any feature column is not
    /// losslessly binnable: more than [`MAX_BINS`] distinct values, or a
    /// NaN (the exact path's ordering contract rejects NaN too, by
    /// panicking — the fallback preserves that behavior).
    pub fn build<R: AsRef<[f32]>>(x: &[R]) -> Option<Self> {
        let n_rows = x.len();
        if n_rows == 0 {
            return None;
        }
        let n_features = x[0].as_ref().len();
        let mut codes = vec![0u8; n_features * n_rows];
        let mut bin_values: Vec<Vec<f32>> = Vec::with_capacity(n_features);
        let mut column: Vec<f32> = Vec::with_capacity(n_rows);
        for f in 0..n_features {
            column.clear();
            for row in x {
                let v = row.as_ref()[f];
                if v.is_nan() {
                    return None;
                }
                column.push(v);
            }
            let mut distinct = column.clone();
            distinct.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
            distinct.dedup();
            if distinct.len() > MAX_BINS {
                return None;
            }
            let dst = &mut codes[f * n_rows..(f + 1) * n_rows];
            for (slot, &v) in dst.iter_mut().zip(&column) {
                // First index with distinct[i] >= v, i.e. the rank of `v`.
                let b = distinct.partition_point(|&d| d < v);
                debug_assert!(distinct[b] == v);
                *slot = b as u8;
            }
            bin_values.push(distinct);
        }
        Some(Self { n_rows, n_features, codes, bin_values })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Contiguous bin codes of feature `f`, one per row.
    pub fn codes_of(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Number of bins (distinct values) in feature `f`.
    pub fn n_bins(&self, f: usize) -> usize {
        self.bin_values[f].len()
    }

    /// The raw feature value represented by bin `b` of feature `f`. Used
    /// as the split threshold: `value <= threshold` ⟺ `code <= b`.
    pub fn threshold(&self, f: usize, b: u8) -> f32 {
        self.bin_values[f][b as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_rank_distinct_values() {
        let x = vec![vec![3.0f32, 0.0], vec![1.0, 1.0], vec![3.0, 0.0], vec![-2.0, 1.0]];
        let d = BinnedDataset::build(&x).expect("binnable");
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_features(), 2);
        // Feature 0 distinct: [-2, 1, 3] -> codes [2, 1, 2, 0].
        assert_eq!(d.codes_of(0), &[2, 1, 2, 0]);
        assert_eq!(d.n_bins(0), 3);
        assert_eq!(d.threshold(0, 1), 1.0);
        // Feature 1 distinct: [0, 1] -> codes [0, 1, 0, 1].
        assert_eq!(d.codes_of(1), &[0, 1, 0, 1]);
        assert_eq!(d.n_bins(1), 2);
    }

    #[test]
    fn nan_is_not_binnable() {
        let x = vec![vec![0.0f32], vec![f32::NAN]];
        assert!(BinnedDataset::build(&x).is_none());
    }

    #[test]
    fn too_many_distinct_values_is_not_binnable() {
        let x: Vec<Vec<f32>> = (0..300).map(|i| vec![i as f32]).collect();
        assert!(BinnedDataset::build(&x).is_none());
    }

    #[test]
    fn exactly_256_distinct_values_is_binnable() {
        let x: Vec<Vec<f32>> = (0..256).map(|i| vec![i as f32]).collect();
        let d = BinnedDataset::build(&x).expect("256 distinct fits u8 codes");
        assert_eq!(d.n_bins(0), 256);
        assert_eq!(d.codes_of(0)[255], 255);
    }

    #[test]
    fn empty_input_is_not_binnable() {
        assert!(BinnedDataset::build::<Vec<f32>>(&[]).is_none());
    }

    #[test]
    fn infinities_are_binnable() {
        // partial_cmp handles ±inf; only NaN breaks ordering.
        let x = vec![vec![f32::NEG_INFINITY], vec![0.0], vec![f32::INFINITY]];
        let d = BinnedDataset::build(&x).expect("inf is ordered");
        assert_eq!(d.codes_of(0), &[0, 1, 2]);
    }
}
