//! Mini-batch K-Means (Sculley, WWW 2010) with k-means++ seeding.
//!
//! This is the clustering step of quality-based cell folding (paper Alg. 1
//! line 13): each domain fold's cells — embedded in the unified detector
//! feature space — are folded into `k` quality folds, where `k` is that
//! fold's share of the labeling budget. The paper picks mini-batch k-means
//! over the hierarchical clustering of prior work for efficiency (§3.3.2)
//! and sets the batch size to `256 × cores` (§4.1.3).

use crate::matrix::{nearest_centers, DistinctRows, PointMatrix};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

/// Mini-batch K-Means configuration.
#[derive(Debug, Clone)]
pub struct MiniBatchKMeansConfig {
    /// Number of clusters. Clamped to the number of points at fit time.
    pub k: usize,
    /// Mini-batch size per iteration (paper: 256 × cores).
    pub batch_size: usize,
    /// Number of mini-batch iterations.
    pub iterations: usize,
    /// RNG seed; fits are deterministic given the seed.
    pub seed: u64,
}

impl Default for MiniBatchKMeansConfig {
    fn default() -> Self {
        Self { k: 8, batch_size: 256, iterations: 100, seed: 0 }
    }
}

/// Result of a fit: centers and per-point assignments.
#[derive(Debug, Clone)]
pub struct KMeansFit {
    /// Final cluster centers, `k × dim`.
    pub centers: Vec<Vec<f32>>,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
}

/// The estimator.
///
/// ```
/// use matelda_cluster::kmeans::{MiniBatchKMeans, MiniBatchKMeansConfig};
/// let points: Vec<Vec<f32>> = (0..40)
///     .map(|i| vec![if i % 2 == 0 { 0.0 } else { 10.0 }, i as f32 * 0.01])
///     .collect();
/// let fit = MiniBatchKMeans::new(MiniBatchKMeansConfig { k: 2, ..Default::default() })
///     .fit(&points);
/// assert_eq!(fit.centers.len(), 2);
/// assert_ne!(fit.assignments[0], fit.assignments[1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MiniBatchKMeans {
    config: MiniBatchKMeansConfig,
}

impl MiniBatchKMeans {
    /// Creates an estimator with the given configuration.
    pub fn new(config: MiniBatchKMeansConfig) -> Self {
        Self { config }
    }

    /// Fits on `points` (row-major, equal dims). Returns centers and
    /// assignments. With fewer points than `k`, every point becomes its
    /// own center.
    ///
    /// Convenience wrapper that copies the rows into a contiguous
    /// [`PointMatrix`] and delegates to [`MiniBatchKMeans::fit_matrix`].
    pub fn fit(&self, points: &[Vec<f32>]) -> KMeansFit {
        self.fit_matrix(&PointMatrix::from_rows(points))
    }

    /// Fits on a contiguous feature matrix. Bit-identical to
    /// [`MiniBatchKMeans::fit`] on the same rows: it keys each row by its
    /// bit pattern and runs [`MiniBatchKMeans::fit_keyed`].
    pub fn fit_matrix(&self, points: &PointMatrix) -> KMeansFit {
        let mut distinct = DistinctRows::new(points.dim());
        let keys: Vec<u32> = (0..points.n()).map(|i| distinct.intern(points.row(i))).collect();
        self.fit_keyed(&distinct.into_matrix(), &keys)
    }

    /// Fits on the `keys.len()` points whose rows are
    /// `distinct.row(keys[i])` — the entry point used by the pipeline's
    /// quality-folding stage, whose folds repeat few distinct vectors.
    ///
    /// Bit-identical to fitting the materialized points: the RNG call
    /// sequence (seeding, k-means++ picks, per-iteration batch sampling),
    /// the clamp of `k` to the number of *points*, the k-means++ sums
    /// and weighted scans over the points in point order, and the
    /// mini-batch updates are all unchanged. Only nearest-center work —
    /// a pure function of a row's bits and the centers — is done once
    /// per distinct row and shared by its points: the k-means++
    /// distances, the final assignment, and each mini-batch's cache of
    /// nearest centers (computed once per distinct row the batch draws;
    /// the centers do not move until the whole batch is cached).
    ///
    /// # Panics
    /// Panics if a key is not a row of `distinct`.
    pub fn fit_keyed(&self, distinct: &PointMatrix, keys: &[u32]) -> KMeansFit {
        let n = keys.len();
        if n == 0 {
            return KMeansFit { centers: Vec::new(), assignments: Vec::new() };
        }
        let k = self.config.k.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut centers = kmeanspp_init(distinct, keys, k, &mut rng);

        // Sculley's algorithm: per-center counts give decaying step sizes.
        let mut counts = vec![0usize; k];
        let batch = self.config.batch_size.min(n).max(1);
        let mut batch_rows: Vec<usize> = Vec::with_capacity(batch);
        // `slot[u]` is row u's index in `batch_rows` while the current
        // batch holds it, else `NOT_DRAWN`; reset after every batch.
        let mut slot = vec![NOT_DRAWN; distinct.n()];
        for _ in 0..self.config.iterations {
            let idx = sample(&mut rng, n, batch);
            batch_rows.clear();
            for i in idx.iter() {
                let u = keys[i] as usize;
                if slot[u] == NOT_DRAWN {
                    slot[u] = batch_rows.len();
                    batch_rows.push(u);
                }
            }
            // Cache nearest centers for the whole batch first (the paper's
            // algorithm caches before updating).
            let nearest = nearest_centers(distinct, &batch_rows, &centers);
            for i in idx.iter() {
                let u = keys[i] as usize;
                let c = nearest[slot[u]];
                counts[c] += 1;
                let eta = 1.0 / counts[c] as f32;
                for (cv, pv) in centers[c].iter_mut().zip(distinct.row(u)) {
                    *cv += eta * (*pv - *cv);
                }
            }
            for &u in &batch_rows {
                slot[u] = NOT_DRAWN;
            }
        }

        let all_rows: Vec<usize> = (0..distinct.n()).collect();
        let nearest = nearest_centers(distinct, &all_rows, &centers);
        KMeansFit { centers, assignments: keys.iter().map(|&u| nearest[u as usize]).collect() }
    }
}

/// The mark of a distinct row the current mini-batch has not drawn.
const NOT_DRAWN: usize = usize::MAX;

/// Index of the nearest center by squared Euclidean distance; ties go to
/// the lowest index (determinism).
pub fn nearest_center(point: &[f32], centers: &[Vec<f32>]) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d = sq_dist(point, center);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Squared Euclidean distance. The vectors must have equal dimension —
/// enforced in every build profile, because a `debug_assert!` would let
/// release builds silently `zip`-truncate a mismatched pair and return
/// a wrong (too small) distance.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist: dimension mismatch ({} vs {})", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007) over the points
/// `distinct.row(keys[i])`. A point's distance to its nearest center is
/// kept per distinct row (`d2`): every point of a row has the same one.
fn kmeanspp_init(
    distinct: &PointMatrix,
    keys: &[u32],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f32>> {
    let n = keys.len();
    let point = |i: usize| distinct.row(keys[i] as usize);
    let mut centers: Vec<Vec<f32>> = Vec::with_capacity(k);
    centers.push(point(rng.random_range(0..n)).to_vec());
    let mut d2: Vec<f32> =
        (0..distinct.n()).map(|u| sq_dist(distinct.row(u), &centers[0])).collect();
    while centers.len() < k {
        // The sum and the weighted scan run over the points in point
        // order, so they add the same f32s in the same sequence.
        let total: f32 = keys.iter().map(|&u| d2[u as usize]).sum();
        let next = if total <= 0.0 || !total.is_finite() {
            // All remaining points coincide with existing centers — or a
            // huge/NaN feature value pushed the distance mass out of f32
            // range, where `random_range(0.0..total)` would panic and
            // the weights are meaningless anyway. Pick uniformly to
            // still reach k centers.
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &u) in keys.iter().enumerate() {
                let d = d2[u as usize];
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centers.push(point(next).to_vec());
        let latest = centers.last().expect("just pushed").clone();
        for (u, d2u) in d2.iter_mut().enumerate() {
            let d = sq_dist(distinct.row(u), &latest);
            if d < *d2u {
                *d2u = d;
            }
        }
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f32>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![0.0 + 0.01 * i as f32, 0.0]);
            pts.push(vec![10.0 + 0.01 * i as f32, 10.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let fit =
            MiniBatchKMeans::new(MiniBatchKMeansConfig { k: 2, seed: 3, ..Default::default() })
                .fit(&two_blobs());
        assert_eq!(fit.centers.len(), 2);
        // Points alternate blob A / blob B; assignments must too.
        let a = fit.assignments[0];
        let b = fit.assignments[1];
        assert_ne!(a, b);
        for (i, &l) in fit.assignments.iter().enumerate() {
            assert_eq!(l, if i % 2 == 0 { a } else { b });
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = two_blobs();
        let cfg = MiniBatchKMeansConfig { k: 4, seed: 42, ..Default::default() };
        let f1 = MiniBatchKMeans::new(cfg.clone()).fit(&pts);
        let f2 = MiniBatchKMeans::new(cfg).fit(&pts);
        assert_eq!(f1.assignments, f2.assignments);
        assert_eq!(f1.centers, f2.centers);
    }

    #[test]
    fn k_clamped_to_n_points() {
        let pts = vec![vec![0.0], vec![1.0]];
        let fit =
            MiniBatchKMeans::new(MiniBatchKMeansConfig { k: 10, ..Default::default() }).fit(&pts);
        assert_eq!(fit.centers.len(), 2);
        assert_ne!(fit.assignments[0], fit.assignments[1]);
    }

    #[test]
    fn empty_input() {
        let fit = MiniBatchKMeans::default().fit(&[]);
        assert!(fit.centers.is_empty());
        assert!(fit.assignments.is_empty());
    }

    #[test]
    fn identical_points_do_not_crash_kmeanspp() {
        let pts = vec![vec![5.0, 5.0]; 10];
        let fit =
            MiniBatchKMeans::new(MiniBatchKMeansConfig { k: 3, ..Default::default() }).fit(&pts);
        assert_eq!(fit.centers.len(), 3);
        assert!(fit.assignments.iter().all(|&a| a < 3));
    }

    #[test]
    fn assignments_point_to_nearest_center() {
        let pts = two_blobs();
        let fit =
            MiniBatchKMeans::new(MiniBatchKMeansConfig { k: 3, seed: 7, ..Default::default() })
                .fit(&pts);
        for (p, &a) in pts.iter().zip(&fit.assignments) {
            assert_eq!(a, nearest_center(p, &fit.centers));
        }
    }

    /// Regression: `sq_dist` used to check dimensions only with a
    /// `debug_assert!`, so release builds silently zip-truncated and
    /// returned a too-small distance. The contract must hold in every
    /// build profile.
    #[test]
    fn sq_dist_rejects_mismatched_dimensions() {
        let caught = std::panic::catch_unwind(|| sq_dist(&[1.0, 2.0, 3.0], &[1.0, 2.0]));
        assert!(caught.is_err(), "mismatched dimensions must panic, not truncate");
    }

    /// Regression: a NaN feature poisons the k-means++ distance sum, and
    /// `random_range(0.0..NaN)` used to panic. The seeding must fall back
    /// to the uniform pick instead.
    #[test]
    fn nan_features_fall_back_to_uniform_seeding() {
        let pts = vec![vec![f32::NAN, 0.0], vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]];
        let fit = MiniBatchKMeans::new(MiniBatchKMeansConfig {
            k: 2,
            iterations: 5,
            seed: 0,
            ..Default::default()
        })
        .fit(&pts);
        assert_eq!(fit.centers.len(), 2);
        assert!(fit.assignments.iter().all(|&a| a < 2));
    }

    /// Regression: `f32::MAX`-magnitude features square to `+inf`, so the
    /// weighted-sampling total overflows. Seeding must survive and still
    /// produce k centers with valid assignments.
    #[test]
    fn extreme_magnitudes_do_not_break_seeding() {
        let pts = vec![
            vec![f32::MAX, 0.0],
            vec![-f32::MAX, 0.0],
            vec![0.0, f32::MAX],
            vec![0.0, -f32::MAX],
            vec![1.0, 1.0],
        ];
        let fit = MiniBatchKMeans::new(MiniBatchKMeansConfig {
            k: 3,
            iterations: 10,
            seed: 11,
            ..Default::default()
        })
        .fit(&pts);
        assert_eq!(fit.centers.len(), 3);
        assert!(fit.assignments.iter().all(|&a| a < 3));
    }

    /// The pre-matrix implementation, kept verbatim as the equivalence
    /// reference: per-point `nearest_center` calls over slice-of-rows
    /// storage. The production path must match it bit for bit.
    fn naive_fit(config: &MiniBatchKMeansConfig, points: &[Vec<f32>]) -> KMeansFit {
        fn naive_kmeanspp(points: &[Vec<f32>], k: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
            let n = points.len();
            let mut centers: Vec<Vec<f32>> = Vec::with_capacity(k);
            centers.push(points[rng.random_range(0..n)].clone());
            let mut d2: Vec<f32> = points.iter().map(|p| sq_dist(p, &centers[0])).collect();
            while centers.len() < k {
                let total: f32 = d2.iter().sum();
                let next = if total <= 0.0 || !total.is_finite() {
                    rng.random_range(0..n)
                } else {
                    let mut target = rng.random_range(0.0..total);
                    let mut chosen = n - 1;
                    for (i, &d) in d2.iter().enumerate() {
                        if target < d {
                            chosen = i;
                            break;
                        }
                        target -= d;
                    }
                    chosen
                };
                centers.push(points[next].clone());
                let latest = centers.last().expect("just pushed").clone();
                for (i, p) in points.iter().enumerate() {
                    let d = sq_dist(p, &latest);
                    if d < d2[i] {
                        d2[i] = d;
                    }
                }
            }
            centers
        }

        let n = points.len();
        if n == 0 {
            return KMeansFit { centers: Vec::new(), assignments: Vec::new() };
        }
        let k = config.k.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centers = naive_kmeanspp(points, k, &mut rng);
        let mut counts = vec![0usize; k];
        let batch = config.batch_size.min(n).max(1);
        for _ in 0..config.iterations {
            let idx = sample(&mut rng, n, batch);
            let nearest: Vec<usize> =
                idx.iter().map(|i| nearest_center(&points[i], &centers)).collect();
            for (i, &c) in idx.iter().zip(&nearest) {
                counts[c] += 1;
                let eta = 1.0 / counts[c] as f32;
                for (cv, pv) in centers[c].iter_mut().zip(&points[i]) {
                    *cv += eta * (*pv - *cv);
                }
            }
        }
        let assignments = points.iter().map(|p| nearest_center(p, &centers)).collect();
        KMeansFit { centers, assignments }
    }

    #[test]
    fn matrix_fit_equals_naive_fit_on_blobs() {
        let pts = two_blobs();
        for seed in 0..8 {
            let cfg = MiniBatchKMeansConfig { k: 3, seed, ..Default::default() };
            let fast = MiniBatchKMeans::new(cfg.clone()).fit(&pts);
            let slow = naive_fit(&cfg, &pts);
            assert_eq!(fast.assignments, slow.assignments, "seed {seed}");
            assert_eq!(fast.centers, slow.centers, "seed {seed}");
        }
    }

    /// Asserts two fits are the same bits: `assert_eq!` on the centers
    /// cannot hold once a NaN is among them.
    fn assert_same_fit(got: &KMeansFit, want: &KMeansFit, what: &str) {
        let bits = |fit: &KMeansFit| -> Vec<Vec<u32>> {
            fit.centers.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect()
        };
        assert_eq!(got.assignments, want.assignments, "{what}: assignments");
        assert_eq!(bits(got), bits(want), "{what}: center bits");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The blocked/matrix fit is pinned to the pre-matrix reference
        // implementation: identical centers (bit for bit) and identical
        // assignments for arbitrary inputs, seeds, and batch shapes.
        #[test]
        fn matrix_fit_equals_naive_fit(
            raw in proptest::collection::vec(
                proptest::collection::vec(-100.0f32..100.0, 3),
                1..40,
            ),
            k in 1usize..7,
            seed in 0u64..1000,
            batch in 1usize..12,
            iterations in 0usize..12,
        ) {
            let cfg = MiniBatchKMeansConfig { k, batch_size: batch, iterations, seed };
            let fast = MiniBatchKMeans::new(cfg.clone()).fit(&raw);
            let slow = naive_fit(&cfg, &raw);
            proptest::prop_assert_eq!(fast.assignments, slow.assignments);
            proptest::prop_assert_eq!(fast.centers, slow.centers);
        }

        // Under heavy duplication — a few prototype rows, repeated into
        // up to ~300 points — `fit`, `fit_matrix` and the keyed core all
        // equal the per-point reference bit for bit. Rows are {0,1} flag
        // rows or mix in -0.0 and non-dyadic values (so a reordered f32
        // sum changes bits), and about half the cases plant one +inf or
        // NaN-with-payload value. The keyed core gets the prototypes as
        // they are, duplicates and unused rows included: its result may
        // depend only on each point's row bits. In about a third of the
        // cases the batch size is at least the point count, so every
        // batch draws every point and each distinct row many times.
        #[test]
        fn keyed_fit_equals_naive_fit_under_heavy_duplication(
            protos in proptest::collection::vec(
                (0usize..2, proptest::collection::vec(0usize..8, 4)),
                1..7,
            ),
            special in proptest::collection::vec((0usize..6, 0usize..4, 0usize..2), 0..2),
            picks in proptest::collection::vec(0usize..6, 1..300),
            k in 1usize..8,
            seed in 0u64..1000,
            batch in (0usize..3, 1usize..64),
            iterations in 0usize..20,
        ) {
            let batch = if batch.0 == 0 { picks.len() + batch.1 - 1 } else { batch.1 };
            const MIXED: [f32; 8] = [0.0, 1.0, -0.0, 0.1, 0.7, 1.3, 1.0 / 3.0, 2.9];
            let mut protos: Vec<Vec<f32>> = protos
                .iter()
                .map(|(flags, p)| {
                    p.iter().map(|&i| if *flags == 1 { (i % 2) as f32 } else { MIXED[i] }).collect()
                })
                .collect();
            for &(p, d, which) in &special {
                let len = protos.len();
                protos[p % len][d] =
                    if which == 0 { f32::INFINITY } else { f32::from_bits(0x7FC0_1234) };
            }
            let keys: Vec<u32> = picks.iter().map(|&p| (p % protos.len()) as u32).collect();
            let points: Vec<Vec<f32>> = keys.iter().map(|&u| protos[u as usize].clone()).collect();
            let cfg = MiniBatchKMeansConfig { k, batch_size: batch, iterations, seed };
            let km = MiniBatchKMeans::new(cfg.clone());
            let want = naive_fit(&cfg, &points);
            assert_same_fit(&km.fit(&points), &want, "fit");
            assert_same_fit(&km.fit_matrix(&PointMatrix::from_rows(&points)), &want, "fit_matrix");
            assert_same_fit(
                &km.fit_keyed(&PointMatrix::from_rows(&protos), &keys),
                &want,
                "fit_keyed",
            );
        }

        // Seeding and fitting never panic for feature values anywhere in
        // the f32 range, including magnitudes whose squared distances
        // overflow to +inf.
        #[test]
        fn kmeanspp_survives_extreme_feature_values(
            raw in proptest::collection::vec(
                proptest::collection::vec(-3.4e38f32..3.4e38f32, 2),
                1..24,
            ),
            k in 1usize..6,
            seed in 0u64..1000,
        ) {
            let fit = MiniBatchKMeans::new(MiniBatchKMeansConfig {
                k,
                batch_size: 8,
                iterations: 5,
                seed,
            })
            .fit(&raw);
            let want_k = k.min(raw.len());
            proptest::prop_assert_eq!(fit.centers.len(), want_k);
            proptest::prop_assert_eq!(fit.assignments.len(), raw.len());
            proptest::prop_assert!(fit.assignments.iter().all(|&a| a < want_k));
        }
    }
}
