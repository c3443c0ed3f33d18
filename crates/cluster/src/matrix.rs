//! Contiguous row-major feature matrices, the exact nearest-center
//! kernel of mini-batch k-means and a pairwise Euclidean matrix build.
//!
//! The kernels here are *exactly* equivalent to their naive counterparts
//! ([`crate::kmeans::sq_dist`] / [`crate::kmeans::nearest_center`] and
//! [`euclidean`] per pair): each
//! point×center (or point×point) distance is accumulated dimension by
//! dimension in the same order with the same float types, and ties resolve
//! to the lowest index via the same strict `<` comparison.
//! [`nearest_centers`] runs eight such sums side by side, one per center,
//! which changes *how many pairs* are in flight, never the arithmetic of a
//! pair — so results are bit-identical, which the proptests in this module
//! pin. (The ‖x‖² + ‖c‖² − 2x·c expansion was deliberately rejected: it
//! changes f32 rounding and would break the exact-equivalence contract;
//! see DESIGN.md "Performance contract".)

use std::collections::HashMap;

/// Centers per pass of [`nearest_centers`]: one f32 accumulator each,
/// side by side, which the x86-64 baseline runs as two 4-wide vectors.
const LANES: usize = 8;

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
/// to calling [`crate::kmeans::nearest_center`] per row.
///
/// The centers are stored dimension-major in blocks of eight, so one
/// pass over a row's dimensions advances eight sums at once. Each lane
/// adds `(x − c)²` over the dimensions in order, starting from `-0.0` as
/// `Iterator::sum` does, which is `sq_dist`'s arithmetic for that pair
/// (Rust never contracts the multiply and add into an FMA, so vectorized
/// lanes round as the scalar loop does). The lanes are then scanned in
/// ascending center order with strict `<`: ties go to the lowest index,
/// a NaN distance never wins, and a row whose distances are all NaN gets
/// center 0.
pub fn nearest_centers(points: &PointMatrix, rows: &[usize], centers: &[Vec<f32>]) -> Vec<usize> {
    let dim = points.dim();
    let k = centers.len();
    let n_blocks = k.div_ceil(LANES);
    // Block b is `lanes[b * dim..(b + 1) * dim]`: dimension d of centers
    // LANES*b.. side by side. Lanes past `k` in the last block are
    // padding and never scanned.
    let mut lanes = vec![[0.0f32; LANES]; n_blocks * dim];
    for (c, center) in centers.iter().enumerate() {
        assert_eq!(center.len(), dim, "nearest_centers: center dimension mismatch");
        for (d, &v) in center.iter().enumerate() {
            lanes[(c / LANES) * dim + d][c % LANES] = v;
        }
    }

    rows.iter()
        .map(|&r| {
            let x = points.row(r);
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for b in 0..n_blocks {
                let mut acc = [-0.0f32; LANES];
                for (&xd, cd) in x.iter().zip(&lanes[b * dim..(b + 1) * dim]) {
                    for (a, &c) in acc.iter_mut().zip(cd) {
                        *a += (xd - c) * (xd - c);
                    }
                }
                let live = (k - b * LANES).min(LANES);
                for (l, &d) in acc[..live].iter().enumerate() {
                    if d < best_d {
                        best_d = d;
                        best = b * LANES + l;
                    }
                }
            }
            best
        })
        .collect()
}

/// Row-block size of the parallel pairwise build: big enough that a
/// block's upper-triangle work dwarfs its merge cost, small enough that
/// the executor's chunked claiming can even out the triangle's skew
/// (early rows carry `n − i − 1` pairs, late rows almost none).
const PAIRWISE_ROW_BLOCK: usize = 32;

/// Full symmetric pairwise Euclidean distance matrix (`n × n`,
/// row-major), built over row blocks on `exec`.
///
/// Each pair is computed once with [`euclidean`] — f32 subtraction
/// widened to f64, squared, summed in dimension order, then `sqrt` — and
/// mirrored (subtraction is sign-exact, so `d(a,b) == d(b,a)` bit for
/// bit). Each block computes its rows' upper-triangle segments
/// independently and the caller merges and mirrors in row order, so the
/// matrix is bit-identical at every thread count, which the proptests
/// below pin.
pub fn pairwise_euclidean_with(points: &PointMatrix, exec: &matelda_exec::Executor) -> Vec<f64> {
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
/// per-pair arithmetic of [`pairwise_euclidean_with`].
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
    use proptest::prelude::Strategy;

    #[test]
    fn parallel_pairwise_is_bit_identical_to_serial() {
        // Spans several row blocks so the parallel build actually fans
        // out; the matrix must match the single-thread build exactly.
        let pts: Vec<Vec<f32>> = (0..70)
            .map(|i| vec![(i as f32).sin() * 10.0, (i as f32 * 0.7).cos() * 5.0, i as f32])
            .collect();
        let m = PointMatrix::from_rows(&pts);
        let base = pairwise_euclidean_with(&m, &matelda_exec::Executor::single());
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
        assert_eq!(nearest_centers(&m, &rows, &centers), vec![0, 0]);

        // A tie that only in-order summation makes: from the origin, `a`
        // sums 1 + 2^-24 + 2^-24 = 1 (each half-ulp rounds to even), while
        // any other order reaches 1 + 2^-23 and loses to `b` at exactly 1.
        // `a` sits in the last lane of the first block and `b` opens the
        // second, so the tie also spans the block boundary.
        let a = vec![1.0f32, 2f32.powi(-12), 2f32.powi(-12)];
        let b = vec![1.0f32, 0.0, 0.0];
        let origin = PointMatrix::from_rows(&[vec![0.0f32; 3]]);
        let mut centers = vec![vec![9.0f32; 3]; 7];
        centers.extend([a, b]);
        assert_eq!(nearest_center(origin.row(0), &centers), 7);
        assert_eq!(nearest_centers(&origin, &[0], &centers), vec![7]);
    }

    #[test]
    fn blocked_handles_more_rows_and_centers_than_one_block() {
        let rows_vec: Vec<Vec<f32>> =
            (0..200).map(|i| vec![(i % 17) as f32, (i % 5) as f32]).collect();
        let centers: Vec<Vec<f32>> = (0..19).map(|c| vec![c as f32, (c % 3) as f32]).collect();
        let m = PointMatrix::from_rows(&rows_vec);
        let idx: Vec<usize> = (0..m.n()).collect();
        let got = nearest_centers(&m, &idx, &centers);
        for (i, p) in rows_vec.iter().enumerate() {
            assert_eq!(got[i], nearest_center(p, &centers));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The lane kernel is pinned to the naive per-point reference:
        // identical nearest indices for dims 1..=40 (the pipeline's 33
        // included) and 1..=40 centers, so full and partial lane blocks
        // both run. Values mix NaN, ±inf, -0.0, f32::MAX-scale
        // magnitudes (squared distances overflow to +inf) and small
        // integers (exact ties), and some centers are duplicated, so the
        // lowest-index tie rule is exercised. Rows are listed with
        // repeats and out of order.
        #[test]
        fn blocked_kernel_matches_naive_nearest_center(
            case in (1usize..41, 1usize..41).prop_flat_map(|(dim, k)| {
                let value = (0u64..64, -1e3f32..1e3f32).prop_map(|(s, v)| match s {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3..=5 => -0.0,
                    6 => 3.4e38,
                    7..=31 => (s % 4) as f32,
                    _ => v,
                });
                (
                    proptest::collection::vec(proptest::collection::vec(value.clone(), dim), 1..30),
                    proptest::collection::vec(proptest::collection::vec(value, dim), k),
                    proptest::collection::vec((0usize..40, 0usize..40), 0..4),
                    proptest::collection::vec(0usize..30, 0..40),
                )
            }),
        ) {
            let (pts, mut centers, dups, picks) = case;
            let k = centers.len();
            for &(to, from) in &dups {
                centers[to % k] = centers[from % k].clone();
            }
            let m = PointMatrix::from_rows(&pts);
            let mut rows: Vec<usize> = (0..m.n()).collect();
            rows.extend(picks.iter().map(|&p| p % m.n()));
            let got = nearest_centers(&m, &rows, &centers);
            for (&r, &g) in rows.iter().zip(&got) {
                proptest::prop_assert_eq!(g, nearest_center(&pts[r], &centers), "row {}", r);
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
            let pd = pairwise_euclidean_with(&m, &matelda_exec::Executor::single());
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
