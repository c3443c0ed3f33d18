//! Contiguous row-major feature matrices and the cache-blocked distance
//! kernels shared by mini-batch k-means and HDBSCAN.
//!
//! The kernels here are *exactly* equivalent to their naive counterparts
//! ([`crate::kmeans::sq_dist`] / [`crate::kmeans::nearest_center`] and the
//! per-pair Euclidean closure HDBSCAN used to pass to `fit_with`): each
//! point×center (or point×point) distance is accumulated dimension by
//! dimension in the same order with the same float types, and ties resolve
//! to the lowest index via the same strict `<` comparison. Blocking only
//! changes *which pair* is computed next, never the arithmetic of a pair —
//! so results are bit-identical, which the proptests in this module pin.
//! (The ‖x‖² + ‖c‖² − 2x·c expansion was deliberately rejected: it changes
//! f32 rounding and would break the exact-equivalence contract; see
//! DESIGN.md "Performance contract".)

use crate::budget::{check_budget, dense_matrix_bytes, ScaleError};
use crate::kmeans::sq_dist;
use std::collections::HashMap;

/// Rows of points per cache block in [`nearest_centers_blocked`].
const ROW_BLOCK: usize = 64;
/// Centers per cache block in [`nearest_centers_blocked`].
const CENTER_BLOCK: usize = 8;

/// A dense row-major point matrix: `n` points of `dim` f32 features in one
/// contiguous allocation.
#[derive(Debug, Clone, Default)]
pub struct PointMatrix {
    n: usize,
    dim: usize,
    data: Vec<f32>,
}

impl PointMatrix {
    /// An empty matrix ready to receive `n` rows of `dim` features via
    /// [`PointMatrix::push_row`].
    pub fn with_capacity(n: usize, dim: usize) -> Self {
        Self { n: 0, dim, data: Vec::with_capacity(n * dim) }
    }

    /// Copies a slice-of-rows representation into a contiguous matrix.
    ///
    /// # Panics
    /// Panics if rows have unequal dimensions.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut m = Self::with_capacity(rows.len(), dim);
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row.len() != dim`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "PointMatrix: row dimension mismatch");
        self.data.extend_from_slice(row);
        self.n += 1;
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the matrix holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Point `i` as a contiguous slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// A [`PointMatrix`] of distinct rows, each stored once and keyed by
/// its f32 bit pattern — so `-0.0` and every NaN payload are rows of
/// their own, and two points share a key exactly when every kernel here
/// computes the same bits for them.
#[derive(Debug, Clone, Default)]
pub struct DistinctRows {
    rows: PointMatrix,
    index: HashMap<Vec<u32>, u32>,
    bits: Vec<u32>,
}

impl DistinctRows {
    /// No rows yet, of `dim` features each.
    pub fn new(dim: usize) -> Self {
        Self { rows: PointMatrix::with_capacity(0, dim), ..Self::default() }
    }

    /// The key of `row` (its index in [`DistinctRows::into_matrix`]),
    /// appending it if its bits are new.
    ///
    /// # Panics
    /// Panics if a new row's length is not `dim`.
    pub fn intern(&mut self, row: &[f32]) -> u32 {
        self.bits.clear();
        self.bits.extend(row.iter().map(|v| v.to_bits()));
        if let Some(&key) = self.index.get(self.bits.as_slice()) {
            return key;
        }
        let key = u32::try_from(self.rows.n()).expect("under 2^32 distinct rows");
        self.rows.push_row(row);
        self.index.insert(self.bits.clone(), key);
        key
    }

    /// The distinct rows in first-interned order.
    pub fn into_matrix(self) -> PointMatrix {
        self.rows
    }
}

/// For each listed row, the index of its nearest center by squared
/// Euclidean distance (ties to the lowest center index) — bit-identical
/// to calling [`crate::kmeans::nearest_center`] per row, but iterating in
/// cache blocks over the contiguous matrix and a flattened center array.
pub fn nearest_centers_blocked(
    points: &PointMatrix,
    rows: &[usize],
    centers: &[Vec<f32>],
) -> Vec<usize> {
    let dim = points.dim();
    let k = centers.len();
    // Flatten centers once so the inner loop reads two contiguous slices.
    let mut flat: Vec<f32> = Vec::with_capacity(k * dim);
    for c in centers {
        assert_eq!(c.len(), dim, "nearest_centers_blocked: center dimension mismatch");
        flat.extend_from_slice(c);
    }

    let mut best = vec![0usize; rows.len()];
    let mut best_d = vec![f32::INFINITY; rows.len()];
    for row_block in (0..rows.len()).step_by(ROW_BLOCK) {
        let row_end = (row_block + ROW_BLOCK).min(rows.len());
        // Ascending center order across and within blocks keeps the
        // strict `<` tie rule identical to the per-point reference.
        for center_block in (0..k).step_by(CENTER_BLOCK) {
            let center_end = (center_block + CENTER_BLOCK).min(k);
            for r in row_block..row_end {
                let p = points.row(rows[r]);
                for c in center_block..center_end {
                    let d = sq_dist(p, &flat[c * dim..(c + 1) * dim]);
                    if d < best_d[r] {
                        best_d[r] = d;
                        best[r] = c;
                    }
                }
            }
        }
    }
    best
}

/// Full symmetric pairwise Euclidean distance matrix (`n × n`, row-major).
///
/// Each pair is computed once with the exact per-pair arithmetic HDBSCAN's
/// point interface has always used — f32 subtraction widened to f64,
/// squared, summed in dimension order, then `sqrt` — and mirrored
/// (subtraction is sign-exact, so `d(a,b) == d(b,a)` bit for bit).
pub fn pairwise_euclidean(points: &PointMatrix) -> Vec<f64> {
    pairwise_euclidean_with(points, &matelda_exec::Executor::single())
}

/// [`pairwise_euclidean_with`] behind the memory budget: the `n × n`
/// f64 matrix is only allocated if it fits, otherwise a structured
/// [`ScaleError`] comes back before a byte is touched. All pairwise
/// materializations route through here — the unbudgeted names are
/// `budget: None` wrappers.
pub fn try_pairwise_euclidean_with(
    points: &PointMatrix,
    exec: &matelda_exec::Executor,
    budget: Option<u64>,
) -> Result<Vec<f64>, ScaleError> {
    check_budget("pairwise distance matrix", dense_matrix_bytes(points.n()), budget)?;
    Ok(pairwise_euclidean_unchecked(points, exec))
}

/// Row-block size of the parallel pairwise build: big enough that a
/// block's upper-triangle work dwarfs its merge cost, small enough that
/// the executor's range stealing can rebalance the triangle's skew
/// (early rows carry `n − i − 1` pairs, late rows almost none).
const PAIRWISE_ROW_BLOCK: usize = 32;

/// [`pairwise_euclidean`] scheduled over row blocks on `exec`.
///
/// Each block computes its rows' upper-triangle segments independently
/// (per-pair arithmetic untouched), and the caller merges + mirrors in
/// row order — so the matrix is bit-identical to the serial build at
/// every thread count, which the proptests below pin.
pub fn pairwise_euclidean_with(points: &PointMatrix, exec: &matelda_exec::Executor) -> Vec<f64> {
    try_pairwise_euclidean_with(points, exec, None).expect("no budget")
}

fn pairwise_euclidean_unchecked(points: &PointMatrix, exec: &matelda_exec::Executor) -> Vec<f64> {
    let n = points.n();
    if n == 0 {
        return Vec::new();
    }
    let n_blocks = n.div_ceil(PAIRWISE_ROW_BLOCK);
    let blocks = exec.map_n(n_blocks, |b| {
        let lo = b * PAIRWISE_ROW_BLOCK;
        let hi = (lo + PAIRWISE_ROW_BLOCK).min(n);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(hi - lo);
        for i in lo..hi {
            let a = points.row(i);
            let mut row = Vec::with_capacity(n - i - 1);
            for j in (i + 1)..n {
                row.push(euclidean(a, points.row(j)));
            }
            rows.push(row);
        }
        rows
    });
    let mut out = vec![0.0f64; n * n];
    for (b, rows) in blocks.into_iter().enumerate() {
        for (k, row) in rows.into_iter().enumerate() {
            let i = b * PAIRWISE_ROW_BLOCK + k;
            for (off, d) in row.into_iter().enumerate() {
                let j = i + 1 + off;
                out[i * n + j] = d;
                out[j * n + i] = d;
            }
        }
    }
    out
}

/// Euclidean distance with f64 accumulation over f32 coordinates — the
/// per-pair arithmetic shared by HDBSCAN's distance construction.
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean: dimension mismatch ({} vs {})", a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = f64::from(*x - *y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::nearest_center;

    #[test]
    fn parallel_pairwise_is_bit_identical_to_serial() {
        // Spans several row blocks so the parallel build actually fans
        // out; the matrix must match the single-thread build exactly.
        let pts: Vec<Vec<f32>> = (0..70)
            .map(|i| vec![(i as f32).sin() * 10.0, (i as f32 * 0.7).cos() * 5.0, i as f32])
            .collect();
        let m = PointMatrix::from_rows(&pts);
        let base = pairwise_euclidean(&m);
        for threads in [2, 4, 8] {
            let exec = matelda_exec::Executor::new(threads);
            assert_eq!(pairwise_euclidean_with(&m, &exec), base, "threads={threads}");
        }
    }

    #[test]
    fn rows_round_trip() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = PointMatrix::from_rows(&rows);
        assert_eq!(m.n(), 3);
        assert_eq!(m.dim(), 2);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(m.row(i), r.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn ragged_rows_panic() {
        let _ = PointMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn blocked_ties_go_to_lowest_center() {
        // Two identical centers: every point must pick index 0.
        let m = PointMatrix::from_rows(&[vec![5.0f32, 5.0], vec![-1.0, 2.0]]);
        let centers = vec![vec![0.0f32, 0.0], vec![0.0, 0.0]];
        let rows: Vec<usize> = (0..m.n()).collect();
        assert_eq!(nearest_centers_blocked(&m, &rows, &centers), vec![0, 0]);
    }

    #[test]
    fn blocked_handles_more_rows_and_centers_than_one_block() {
        let rows_vec: Vec<Vec<f32>> =
            (0..200).map(|i| vec![(i % 17) as f32, (i % 5) as f32]).collect();
        let centers: Vec<Vec<f32>> = (0..19).map(|c| vec![c as f32, (c % 3) as f32]).collect();
        let m = PointMatrix::from_rows(&rows_vec);
        let idx: Vec<usize> = (0..m.n()).collect();
        let got = nearest_centers_blocked(&m, &idx, &centers);
        for (i, p) in rows_vec.iter().enumerate() {
            assert_eq!(got[i], nearest_center(p, &centers));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The blocked kernel is pinned to the naive per-point reference:
        // identical nearest indices for arbitrary f32 inputs (including
        // values whose squared distances overflow to +inf).
        #[test]
        fn blocked_kernel_matches_naive_nearest_center(
            pts in proptest::collection::vec(
                proptest::collection::vec(-3.4e38f32..3.4e38f32, 3),
                1..80,
            ),
            centers in proptest::collection::vec(
                proptest::collection::vec(-3.4e38f32..3.4e38f32, 3),
                1..20,
            ),
        ) {
            let m = PointMatrix::from_rows(&pts);
            let rows: Vec<usize> = (0..m.n()).collect();
            let got = nearest_centers_blocked(&m, &rows, &centers);
            for (i, p) in pts.iter().enumerate() {
                proptest::prop_assert_eq!(got[i], nearest_center(p, &centers));
            }
        }

        // The pairwise matrix is pinned to the original on-the-fly
        // closure: exact f64 equality, symmetric, zero diagonal.
        #[test]
        fn pairwise_matches_per_pair_reference(
            pts in proptest::collection::vec(
                proptest::collection::vec(-1e6f32..1e6f32, 2),
                1..30,
            ),
        ) {
            let n = pts.len();
            let m = PointMatrix::from_rows(&pts);
            let pd = pairwise_euclidean(&m);
            let reference = |a: usize, b: usize| {
                pts[a]
                    .iter()
                    .zip(&pts[b])
                    .map(|(x, y)| {
                        let d = (*x - *y) as f64;
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt()
            };
            for i in 0..n {
                for j in 0..n {
                    proptest::prop_assert_eq!(pd[i * n + j], reference(i, j));
                    proptest::prop_assert_eq!(pd[i * n + j], pd[j * n + i]);
                }
            }
        }
    }
}
