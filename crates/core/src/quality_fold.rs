//! Step 2 — quality-based cell folding (paper §3.3): embed every cell of a
//! domain fold in the unified detector feature space and cluster into `k`
//! quality folds, where `k` is the fold's share of the labeling budget.

use crate::domain_fold::Fold;
use matelda_cluster::kmeans::{sq_dist, MiniBatchKMeans, MiniBatchKMeansConfig};
use matelda_cluster::DistinctRows;
use matelda_detect::CellFeatures;
use matelda_obs::Obs;
use matelda_table::{CellId, Lake};
use std::collections::HashMap;

/// One quality fold: member cells plus the centroid they cluster around.
#[derive(Debug, Clone)]
pub struct QualityFold {
    /// Member cells.
    pub cells: Vec<CellId>,
    /// The cluster centroid in feature space.
    pub centroid: Vec<f32>,
}

impl QualityFold {
    /// The member cell nearest the centroid — the labeling sample
    /// (Alg. 1 line 15). Ties break to the smallest `CellId` for
    /// determinism. The accessor returns *borrowed* feature slices:
    /// this sits on the labeling hot path and scanning a fold's members
    /// must not clone a vector per cell.
    pub fn sample<'f>(&self, features: &impl Fn(CellId) -> &'f [f32]) -> CellId {
        let mut best = self.cells[0];
        let mut best_d = f32::INFINITY;
        for &id in &self.cells {
            let d = sq_dist(features(id), &self.centroid);
            if d < best_d || (d == best_d && id < best) {
                best_d = d;
                best = id;
            }
        }
        best
    }
}

/// Splits the labeling budget over domain folds proportional to their
/// column counts, with the paper's floor of two labels per fold
/// (Alg. 1 line 12: `k = max(2, Λ · |cols(df)| / |cols(S)|)`), clamped
/// so the allocations never sum past `total_budget`: the floor (and
/// proportional rounding) can overspend when the budget is smaller than
/// `2 · |folds|`, in which case the largest allocations are shrunk —
/// possibly to zero, leaving some folds unlabeled — until the sum fits.
/// The pipeline therefore never draws more labels than granted.
pub fn budget_per_fold(folds: &[Fold], total_budget: usize) -> Vec<usize> {
    let total_cols: usize = folds.iter().map(Fold::n_columns).sum();
    let mut budgets: Vec<usize> = folds
        .iter()
        .map(|f| {
            if total_cols == 0 {
                2
            } else {
                let share = total_budget as f64 * f.n_columns() as f64 / total_cols as f64;
                (share.round() as usize).max(2)
            }
        })
        .collect();
    let mut sum: usize = budgets.iter().sum();
    while sum > total_budget {
        // Shrink the largest allocation; ties break to the later fold so
        // earlier (conventionally larger) folds keep their labels longest.
        let i = (0..budgets.len())
            .max_by_key(|&i| (budgets[i], i))
            .expect("sum > 0 implies at least one fold");
        budgets[i] -= 1;
        sum -= 1;
    }
    budgets
}

/// Clusters one domain fold's cells into at most `kmeans.k` quality
/// folds with mini-batch k-means over the unified feature space.
///
/// Each cell is a point keyed to its vector's row among the fold's
/// distinct vectors, gathered through the tables' pattern codes — a
/// vector shared by several tables is one row — so the fold's
/// `cells × dim` matrix is never built, and k-means computes its
/// distances once per distinct row ([`MiniBatchKMeans::fit_keyed`]).
/// With `obs` enabled it counts `quality_folds.points` and
/// `quality_folds.distinct_points`.
pub fn quality_folds(
    lake: &Lake,
    fold: &Fold,
    features: &[CellFeatures],
    kmeans: MiniBatchKMeansConfig,
    obs: &Obs,
) -> Vec<QualityFold> {
    let Some(&(first, _)) = fold.columns.first() else {
        return Vec::new();
    };
    let mut distinct = DistinctRows::new(features[first].dim);
    // Per table, each pattern code's distinct row, interned on first use.
    let mut rows_of: HashMap<usize, Vec<Option<u32>>> = HashMap::new();
    let n: usize = fold.columns.iter().map(|&(t, _)| lake[t].n_rows()).sum();
    let (mut ids, mut keys) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for &(t, c) in &fold.columns {
        let f = &features[t];
        let rows = rows_of.entry(t).or_insert_with(|| vec![None; f.n_patterns()]);
        for r in 0..lake[t].n_rows() {
            let code = f.code(r, c);
            keys.push(*rows[code as usize].get_or_insert_with(|| distinct.intern(f.pattern(code))));
            ids.push(CellId::new(t, r, c));
        }
    }
    if ids.is_empty() {
        return Vec::new();
    }
    let distinct = distinct.into_matrix();
    obs.counter_add("quality_folds.points", ids.len() as u64);
    obs.counter_add("quality_folds.distinct_points", distinct.n() as u64);
    let fit = MiniBatchKMeans::new(kmeans).fit_keyed(&distinct, &keys);

    let n_centers = fit.centers.len();
    let mut folds: Vec<QualityFold> = (0..n_centers)
        .map(|c| QualityFold { cells: Vec::new(), centroid: fit.centers[c].clone() })
        .collect();
    for (i, &cluster) in fit.assignments.iter().enumerate() {
        folds[cluster].cells.push(ids[i]);
    }
    folds.retain(|f| !f.cells.is_empty());
    folds
}

/// The degraded form of [`quality_folds`]: the whole domain fold as one
/// quality fold around the mean feature vector. The engine falls back to
/// this when a fold's k-means faults under
/// [`FaultPolicy::Skip`](crate::pipeline::FaultPolicy::Skip) — a single
/// fold still lets the label stage spend one label and propagate it,
/// instead of dropping the domain fold entirely. Returns `None` for a
/// cell-less fold.
pub fn single_quality_fold(
    lake: &Lake,
    fold: &Fold,
    features: &[CellFeatures],
) -> Option<QualityFold> {
    let mut cells: Vec<CellId> = Vec::new();
    for &(t, c) in &fold.columns {
        for r in 0..lake[t].n_rows() {
            cells.push(CellId::new(t, r, c));
        }
    }
    if cells.is_empty() {
        return None;
    }
    let dim = features[cells[0].table].get(cells[0].row, cells[0].col).len();
    // f64 accumulators: the mean must not depend on summation overflow
    // or f32 cancellation for large folds.
    let mut acc = vec![0.0f64; dim];
    for &id in &cells {
        for (a, &v) in acc.iter_mut().zip(features[id.table].get(id.row, id.col)) {
            *a += f64::from(v);
        }
    }
    let n = cells.len() as f64;
    let centroid: Vec<f32> = acc.into_iter().map(|a| (a / n) as f32).collect();
    Some(QualityFold { cells, centroid })
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_detect::{featurize_table, FeatureConfig};
    use matelda_table::{Column, Table};
    use matelda_text::SpellChecker;

    fn lake() -> Lake {
        Lake::new(vec![Table::new(
            "t",
            vec![
                Column::new("age", ["24", "25", "26", "9000", "27", "24"]),
                Column::new("name", ["red", "blue", "green", "red", "blue", "qqzzk"]),
            ],
        )])
    }

    fn features(lake: &Lake) -> Vec<CellFeatures> {
        let spell = SpellChecker::english();
        let cfg = FeatureConfig::default();
        lake.tables.iter().map(|t| featurize_table(t, &spell, &cfg)).collect()
    }

    fn kmeans(k: usize, batch_size: usize, iterations: usize, seed: u64) -> MiniBatchKMeansConfig {
        MiniBatchKMeansConfig { k, batch_size, iterations, seed }
    }

    #[test]
    fn budget_split_proportional_with_floor() {
        let folds = vec![Fold { columns: vec![(0, 0); 8] }, Fold { columns: vec![(0, 0); 2] }];
        let b = budget_per_fold(&folds, 20);
        assert_eq!(b, vec![16, 4]);
        // Tiny share still gets the floor of two — and the larger fold's
        // rounded share is clamped so the total stays within budget.
        let b = budget_per_fold(&folds, 4);
        assert_eq!(b, vec![2, 2]);
        assert!(budget_per_fold(&[], 10).is_empty());
    }

    #[test]
    fn budget_split_never_overspends() {
        let folds = vec![
            Fold { columns: vec![(0, 0); 8] },
            Fold { columns: vec![(0, 0); 2] },
            Fold { columns: vec![(0, 0); 1] },
        ];
        for budget in 0..30 {
            let b = budget_per_fold(&folds, budget);
            assert!(b.iter().sum::<usize>() <= budget, "budget {budget}: {b:?}");
        }
        // Below the 2-per-fold floor the shrinking equalizes: repeatedly
        // decrementing the largest allocation spreads the loss.
        assert_eq!(budget_per_fold(&folds, 3), vec![1, 1, 1]);
        assert_eq!(budget_per_fold(&folds, 0), vec![0, 0, 0]);
    }

    #[test]
    fn folds_partition_the_cells() {
        let l = lake();
        let fold = Fold { columns: vec![(0, 0), (0, 1)] };
        let f = features(&l);
        let qf = quality_folds(&l, &fold, &f, kmeans(4, 64, 50, 0), &Obs::disabled());
        let total: usize = qf.iter().map(|q| q.cells.len()).sum();
        assert_eq!(total, 12);
        let mut all: Vec<CellId> = qf.iter().flat_map(|q| q.cells.clone()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 12, "no duplicates");
    }

    #[test]
    fn dirty_and_clean_cells_separate() {
        let l = lake();
        let fold = Fold { columns: vec![(0, 0)] };
        let f = features(&l);
        let qf = quality_folds(&l, &fold, &f, kmeans(2, 64, 80, 1), &Obs::disabled());
        assert_eq!(qf.len(), 2);
        // The 9000 outlier should sit alone (or at least apart from the
        // typical ages).
        let outlier_fold =
            qf.iter().find(|q| q.cells.contains(&CellId::new(0, 3, 0))).expect("exists");
        assert!(
            outlier_fold.cells.len() < 6,
            "outlier should not share a fold with all cells: {outlier_fold:?}"
        );
    }

    #[test]
    fn sample_is_a_member_cell() {
        let l = lake();
        let fold = Fold { columns: vec![(0, 0), (0, 1)] };
        let f = features(&l);
        let qf = quality_folds(&l, &fold, &f, kmeans(3, 64, 50, 2), &Obs::disabled());
        let get = |id: CellId| f[id.table].get(id.row, id.col);
        for q in &qf {
            let s = q.sample(&get);
            assert!(q.cells.contains(&s));
        }
    }

    #[test]
    fn empty_fold_no_quality_folds() {
        let l = lake();
        let fold = Fold { columns: vec![] };
        let f = features(&l);
        assert!(quality_folds(&l, &fold, &f, kmeans(2, 64, 10, 0), &Obs::disabled()).is_empty());
    }

    /// The keyed gather is pinned to the plain one: a fold over three
    /// tables that share feature vectors, its columns listed out of table
    /// order, clusters into the same cells around the same centroid bits
    /// as the fold's vectors gathered row by row through
    /// [`MiniBatchKMeans::fit`] — and a vector the tables share is one
    /// distinct point.
    #[test]
    fn keyed_quality_folds_equal_folds_gathered_as_rows() {
        let table = |name: &str, ages: [&str; 6]| {
            Table::new(
                name,
                vec![
                    Column::new("age", ages),
                    Column::new("name", ["red", "blue", "green", "red", "blue", "qqzzk"]),
                ],
            )
        };
        let l = Lake::new(vec![
            table("a", ["24", "25", "26", "9000", "27", "24"]),
            table("b", ["31", "30", "31", "32", "-5", "30"]),
            table("c", ["24", "25", "26", "9000", "27", "24"]),
        ]);
        let f = features(&l);
        let fold = Fold { columns: vec![(2, 1), (0, 0), (1, 1), (2, 0), (0, 1), (1, 0)] };
        let mut rows = Vec::new();
        let mut ids = Vec::new();
        for &(t, c) in &fold.columns {
            for r in 0..l[t].n_rows() {
                rows.push(f[t].get(r, c).to_vec());
                ids.push(CellId::new(t, r, c));
            }
        }
        for (k, seed) in [(1, 0), (3, 5), (5, 11), (40, 2)] {
            let cfg = kmeans(k, 8, 30, seed);
            let obs = Obs::enabled();
            let got = quality_folds(&l, &fold, &f, cfg.clone(), &obs);
            let fit = MiniBatchKMeans::new(cfg).fit(&rows);
            let mut want: Vec<(Vec<CellId>, Vec<u32>)> = fit
                .centers
                .iter()
                .map(|c| (Vec::new(), c.iter().map(|v| v.to_bits()).collect()))
                .collect();
            for (i, &cluster) in fit.assignments.iter().enumerate() {
                want[cluster].0.push(ids[i]);
            }
            want.retain(|(cells, _)| !cells.is_empty());
            let got: Vec<(Vec<CellId>, Vec<u32>)> = got
                .into_iter()
                .map(|q| (q.cells, q.centroid.iter().map(|v| v.to_bits()).collect()))
                .collect();
            assert_eq!(got, want, "k {k} seed {seed}");
            let per_table: usize = f.iter().map(CellFeatures::n_patterns).sum();
            let distinct = obs.counter("quality_folds.distinct_points").expect("counted");
            assert!(distinct < per_table as u64, "shared vectors are one point each");
            assert_eq!(obs.counter("quality_folds.points"), Some(ids.len() as u64));
        }
    }

    #[test]
    fn single_fold_fallback_covers_all_cells_with_mean_centroid() {
        let l = lake();
        let fold = Fold { columns: vec![(0, 0), (0, 1)] };
        let f = features(&l);
        let qf = single_quality_fold(&l, &fold, &f).expect("non-empty fold");
        assert_eq!(qf.cells.len(), 12);
        // Centroid is the elementwise mean of the member vectors.
        let dim = qf.centroid.len();
        for d in 0..dim {
            let mean: f64 = qf
                .cells
                .iter()
                .map(|&id| f64::from(f[id.table].get(id.row, id.col)[d]))
                .sum::<f64>()
                / 12.0;
            assert!((f64::from(qf.centroid[d]) - mean).abs() < 1e-6, "dim {d}");
        }
        // The sample is still a member cell.
        let get = |id: CellId| f[id.table].get(id.row, id.col);
        assert!(qf.cells.contains(&qf.sample(&get)));
        assert!(single_quality_fold(&l, &Fold { columns: vec![] }, &f).is_none());
    }
}
