//! Step 2 — quality-based cell folding (paper §3.3): embed every cell of a
//! domain fold in the unified detector feature space and cluster into `k`
//! quality folds, where `k` is the fold's share of the labeling budget.
//!
//! A quality fold *is* a cluster id per cell: a domain fold's membership
//! is stored once, as one `u32` per cell naming the quality fold it
//! landed in ([`FoldMembership`]), and everything downstream refers to a
//! quality fold by its index.

use crate::domain_fold::Fold;
use matelda_cluster::kmeans::{sq_dist, MiniBatchKMeans, MiniBatchKMeansConfig};
use matelda_cluster::DistinctRows;
use matelda_detect::CellFeatures;
use matelda_obs::Obs;
use matelda_table::{CellId, Lake};
use std::collections::HashMap;

/// One quality fold: the centroid its members cluster around. Its members
/// are the cells its [`FoldMembership`] maps to its index.
#[derive(Debug, Clone)]
pub struct QualityFold {
    /// The cluster centroid in feature space.
    pub centroid: Vec<f32>,
}

/// Which quality fold each cell of one domain fold landed in. The cells
/// are enumerated in *fold order* — the domain fold's columns in fold
/// order, each column's rows ascending — and [`FoldMembership::cells`]
/// is the one place that knows it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldMembership {
    /// The domain fold's columns `(table, column)`, in fold order.
    pub columns: Vec<(usize, usize)>,
    /// One entry per cell, in fold order: the index of the cell's quality
    /// fold among the domain fold's quality folds.
    pub index: Vec<u32>,
}

impl FoldMembership {
    /// Every member cell in fold order with the index of its quality fold
    /// (local to the domain fold); `lake` supplies the row counts.
    pub fn cells<'a>(&'a self, lake: &'a Lake) -> impl Iterator<Item = (CellId, usize)> + 'a {
        let ids = self
            .columns
            .iter()
            .flat_map(move |&(t, c)| (0..lake[t].n_rows()).map(move |r| CellId::new(t, r, c)));
        ids.zip(self.index.iter().map(|&q| q as usize))
    }

    /// Members per quality fold, for `n_folds` folds.
    pub fn sizes(&self, n_folds: usize) -> Vec<usize> {
        let mut sizes = vec![0; n_folds];
        for &q in &self.index {
            sizes[q as usize] += 1;
        }
        sizes
    }
}

/// The labeling sample of each quality fold (Alg. 1 line 15): among the
/// members `cells` yields (cell, local fold index), the one nearest its
/// fold's centroid, for every fold whose `centroids` entry is `Some`.
/// Each fold starts from its first member at distance `+inf` and takes a
/// later member at `d < best || (d == best && id < best_id)`, so ties
/// break to the smallest `CellId` (whatever order the members come in),
/// and if no distance is finite the first member wins. Feature slices
/// are borrowed: scanning a fold's members clones no vector.
pub fn nearest_members<'f>(
    cells: impl IntoIterator<Item = (CellId, usize)>,
    centroids: &[Option<&[f32]>],
    features: impl Fn(CellId) -> &'f [f32],
) -> Vec<Option<CellId>> {
    let mut best: Vec<Option<(f32, CellId)>> = vec![None; centroids.len()];
    for (id, q) in cells {
        let Some(centroid) = centroids[q] else { continue };
        let d = sq_dist(features(id), centroid);
        let (best_d, best_id) = best[q].get_or_insert((f32::INFINITY, id));
        if d < *best_d || (d == *best_d && id < *best_id) {
            (*best_d, *best_id) = (d, id);
        }
    }
    best.into_iter().map(|b| b.map(|(_, id)| id)).collect()
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
/// folds with mini-batch k-means over the unified feature space, and
/// returns their centroids and the domain fold's membership. Clusters
/// that drew no point are dropped and the rest keep center order.
///
/// Each cell is a point keyed to its vector's row among the fold's
/// distinct vectors, gathered through the tables' pattern codes — a
/// vector shared by several tables is one row — so the fold's
/// `cells × dim` matrix is never built, and k-means computes its
/// distances once per distinct row ([`MiniBatchKMeans::fit_keyed`]).
/// The k-means assignment becomes the membership index as it is, so no
/// per-cell id is built. With `obs` enabled it counts
/// `quality_folds.points` and `quality_folds.distinct_points`.
pub fn quality_folds(
    lake: &Lake,
    fold: &Fold,
    features: &[CellFeatures],
    kmeans: MiniBatchKMeansConfig,
    obs: &Obs,
) -> (Vec<QualityFold>, FoldMembership) {
    let Some(&(first, _)) = fold.columns.first() else {
        return (Vec::new(), FoldMembership::default());
    };
    let mut distinct = DistinctRows::new(features[first].dim);
    // Per table, each pattern code's distinct row, interned on first use.
    let mut rows_of: HashMap<usize, Vec<Option<u32>>> = HashMap::new();
    let n: usize = fold.columns.iter().map(|&(t, _)| lake[t].n_rows()).sum();
    let mut keys = Vec::with_capacity(n);
    for &(t, c) in &fold.columns {
        let f = &features[t];
        let rows = rows_of.entry(t).or_insert_with(|| vec![None; f.n_patterns()]);
        for r in 0..lake[t].n_rows() {
            let code = f.code(r, c);
            keys.push(*rows[code as usize].get_or_insert_with(|| distinct.intern(f.pattern(code))));
        }
    }
    if keys.is_empty() {
        return (Vec::new(), FoldMembership::default());
    }
    let distinct = distinct.into_matrix();
    obs.counter_add("quality_folds.points", keys.len() as u64);
    obs.counter_add("quality_folds.distinct_points", distinct.n() as u64);
    let fit = MiniBatchKMeans::new(kmeans).fit_keyed(&distinct, &keys);
    drop(keys);

    // Renumber the clusters that drew a point, in center order.
    let mut drew = vec![false; fit.centers.len()];
    for &cluster in &fit.assignments {
        drew[cluster] = true;
    }
    let (mut folds, mut local) = (Vec::new(), Vec::with_capacity(drew.len()));
    for (drawn, centroid) in drew.into_iter().zip(fit.centers) {
        local.push(folds.len() as u32);
        if drawn {
            folds.push(QualityFold { centroid });
        }
    }
    let index = fit.assignments.iter().map(|&cluster| local[cluster]).collect();
    (folds, FoldMembership { columns: fold.columns.clone(), index })
}

/// The degraded form of [`quality_folds`]: the whole domain fold as one
/// quality fold around the mean feature vector, every cell on index 0.
/// The engine falls back to this when a fold's k-means faults under
/// [`FaultPolicy::Skip`](crate::pipeline::FaultPolicy::Skip) — a single
/// fold still lets the label stage spend one label and propagate it,
/// instead of dropping the domain fold entirely. Returns `None` for a
/// cell-less fold.
pub fn single_quality_fold(
    lake: &Lake,
    fold: &Fold,
    features: &[CellFeatures],
) -> Option<(QualityFold, FoldMembership)> {
    let n: usize = fold.columns.iter().map(|&(t, _)| lake[t].n_rows()).sum();
    if n == 0 {
        return None;
    }
    let membership = FoldMembership { columns: fold.columns.clone(), index: vec![0; n] };
    let vector = |id: CellId| features[id.table].get(id.row, id.col);
    let (first, _) = membership.cells(lake).next().expect("n > 0");
    // f64 accumulators: the mean must not depend on summation overflow
    // or f32 cancellation for large folds.
    let mut acc = vec![0.0f64; vector(first).len()];
    for (id, _) in membership.cells(lake) {
        for (a, &v) in acc.iter_mut().zip(vector(id)) {
            *a += f64::from(v);
        }
    }
    let n = n as f64;
    let centroid: Vec<f32> = acc.into_iter().map(|a| (a / n) as f32).collect();
    Some((QualityFold { centroid }, membership))
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

    /// Each quality fold's members, in fold order, through the accessor.
    fn member_lists(l: &Lake, qf: &[QualityFold], m: &FoldMembership) -> Vec<Vec<CellId>> {
        let mut lists = vec![Vec::new(); qf.len()];
        for (id, q) in m.cells(l) {
            lists[q].push(id);
        }
        lists
    }

    #[test]
    fn folds_partition_the_cells() {
        let l = lake();
        let fold = Fold { columns: vec![(0, 0), (0, 1)] };
        let f = features(&l);
        let (qf, m) = quality_folds(&l, &fold, &f, kmeans(4, 64, 50, 0), &Obs::disabled());
        assert_eq!(m.index.len(), 12);
        assert_eq!(m.columns, fold.columns);
        assert!(m.sizes(qf.len()).iter().all(|&n| n > 0), "no empty folds survive");
        let mut all: Vec<CellId> = m.cells(&l).map(|(id, _)| id).collect();
        assert_eq!(all.len(), 12);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 12, "no duplicates");
    }

    #[test]
    fn dirty_and_clean_cells_separate() {
        let l = lake();
        let fold = Fold { columns: vec![(0, 0)] };
        let f = features(&l);
        let (qf, m) = quality_folds(&l, &fold, &f, kmeans(2, 64, 80, 1), &Obs::disabled());
        assert_eq!(qf.len(), 2);
        // The 9000 outlier should sit alone (or at least apart from the
        // typical ages).
        let lists = member_lists(&l, &qf, &m);
        let outlier_fold =
            lists.iter().find(|cells| cells.contains(&CellId::new(0, 3, 0))).expect("exists");
        assert!(outlier_fold.len() < 6, "outlier should not share a fold with all cells");
    }

    #[test]
    fn nearest_members_are_member_cells() {
        let l = lake();
        let fold = Fold { columns: vec![(0, 0), (0, 1)] };
        let f = features(&l);
        let (qf, m) = quality_folds(&l, &fold, &f, kmeans(3, 64, 50, 2), &Obs::disabled());
        let get = |id: CellId| f[id.table].get(id.row, id.col);
        let centroids: Vec<Option<&[f32]>> = qf.iter().map(|q| Some(&q.centroid[..])).collect();
        let lists = member_lists(&l, &qf, &m);
        for (q, anchor) in nearest_members(m.cells(&l), &centroids, get).into_iter().enumerate() {
            assert!(lists[q].contains(&anchor.expect("every fold has a member")));
        }
        // A fold without a centroid gets no anchor.
        let mut centroids = centroids;
        centroids[0] = None;
        assert_eq!(nearest_members(m.cells(&l), &centroids, get)[0], None);
    }

    /// The anchor rule, on one fold with hand-placed distances: ties
    /// break to the smallest `CellId` wherever it comes in the scan,
    /// and with no finite distance the first member wins.
    #[test]
    fn nearest_member_ties_go_to_the_smallest_cell_and_nan_keeps_the_first() {
        let (a, b, c) = (CellId::new(0, 2, 0), CellId::new(0, 0, 1), CellId::new(0, 1, 0));
        // Each member at feature `v`, so at distance `v²` from the origin.
        let nearest = |members: &[(CellId, f32)]| {
            let features: HashMap<CellId, [f32; 1]> =
                members.iter().map(|&(id, v)| (id, [v])).collect();
            let cells = members.iter().map(|&(id, _)| (id, 0));
            nearest_members(cells, &[Some(&[0.0][..])], |id| &features[&id][..])[0]
        };
        // All equidistant: the smallest id, in any scan order.
        assert_eq!(nearest(&[(a, 1.0), (b, 1.0), (c, 1.0)]), Some(b));
        assert_eq!(nearest(&[(c, 1.0), (a, 1.0), (b, 1.0)]), Some(b));
        // No finite distance: the first member scanned.
        assert_eq!(nearest(&[(a, f32::NAN), (b, f32::NAN), (c, f32::NAN)]), Some(a));
        assert_eq!(nearest(&[(c, f32::NAN), (b, f32::NAN), (a, f32::NAN)]), Some(c));
        // +inf ties with the start distance, so a smaller id still wins.
        assert_eq!(nearest(&[(a, f32::INFINITY), (b, f32::INFINITY), (c, 1.0e30)]), Some(b));
        assert_eq!(nearest(&[(a, f32::NAN), (b, f32::NAN), (c, 2.0)]), Some(c));
    }

    #[test]
    fn empty_fold_no_quality_folds() {
        let l = lake();
        let fold = Fold { columns: vec![] };
        let f = features(&l);
        let (qf, m) = quality_folds(&l, &fold, &f, kmeans(2, 64, 10, 0), &Obs::disabled());
        assert!(qf.is_empty());
        assert_eq!(m, FoldMembership::default());
    }

    /// The keyed gather is pinned to the plain one: a fold over three
    /// tables that share feature vectors, its columns listed out of table
    /// order, clusters into the same cells around the same centroid bits
    /// as the fold's vectors gathered row by row through
    /// [`MiniBatchKMeans::fit`] — and a vector the tables share is one
    /// distinct point. The reference scatters the assignment into one
    /// `CellId` list per cluster and drops the empty ones; the index
    /// enumerates the same lists in the same order.
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
            let (qf, m) = quality_folds(&l, &fold, &f, cfg.clone(), &obs);
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
            let got: Vec<(Vec<CellId>, Vec<u32>)> = member_lists(&l, &qf, &m)
                .into_iter()
                .zip(&qf)
                .map(|(cells, q)| (cells, q.centroid.iter().map(|v| v.to_bits()).collect()))
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
        let (qf, m) = single_quality_fold(&l, &fold, &f).expect("non-empty fold");
        assert_eq!(m.index, vec![0; 12]);
        assert_eq!(m.columns, fold.columns);
        // Centroid is the elementwise mean of the member vectors.
        let dim = qf.centroid.len();
        for d in 0..dim {
            let mean: f64 = m
                .cells(&l)
                .map(|(id, _)| f64::from(f[id.table].get(id.row, id.col)[d]))
                .sum::<f64>()
                / 12.0;
            assert!((f64::from(qf.centroid[d]) - mean).abs() < 1e-6, "dim {d}");
        }
        assert!(single_quality_fold(&l, &Fold { columns: vec![] }, &f).is_none());
    }
}
