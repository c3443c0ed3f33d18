//! Binary gradient boosting with logistic loss (Friedman 2001).
//!
//! This is the per-column classifier of Matelda's step 5 and of the Raha
//! baseline: given propagated labels over a column's cells (unified feature
//! vectors), predict the error probability of every cell.

use crate::binned::BinnedDataset;
use crate::tree::{RegressionTree, TreeConfig};
use matelda_exec::Executor;

/// Gradient boosting hyperparameters. Defaults mirror the spirit of
/// scikit-learn's `GradientBoostingClassifier` (shrinkage 0.1, shallow
/// trees), which the paper uses with default parameters (§4.1.3).
#[derive(Debug, Clone)]
pub struct GradientBoostingConfig {
    /// Number of boosting stages.
    pub n_trees: usize,
    /// Shrinkage applied to each stage's contribution.
    pub learning_rate: f64,
    /// Depth of each stage's tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
}

impl Default for GradientBoostingConfig {
    fn default() -> Self {
        Self { n_trees: 50, learning_rate: 0.1, max_depth: 3, min_samples_leaf: 1 }
    }
}

/// A fitted binary gradient boosting classifier.
///
/// ```
/// use matelda_ml::{GradientBoostingClassifier, GradientBoostingConfig};
/// let x: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
/// let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
/// let model = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
/// assert!(model.predict(&[15.0]));
/// assert!(!model.predict(&[2.0]));
/// ```
#[derive(Debug, Clone)]
pub struct GradientBoostingClassifier {
    base_score: f64,
    trees: Vec<RegressionTree>,
    learning_rate: f64,
    used_binned: bool,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl GradientBoostingClassifier {
    /// Fits on `x` (row-major features) and boolean labels (`true` =
    /// positive / erroneous).
    ///
    /// Degenerate inputs are handled the way the pipeline needs them to
    /// be: with a single class (or no samples) the model collapses to a
    /// constant predictor at the empirical rate.
    pub fn fit(x: &[Vec<f32>], y: &[bool], config: &GradientBoostingConfig) -> Self {
        Self::fit_with(x, y, config, &Executor::single())
    }

    /// [`GradientBoostingClassifier::fit`] with binned-histogram
    /// construction parallelized across features on `exec`. Training is
    /// bit-identical to the serial path at every thread count (integer
    /// bin counts, unchanged f64 accumulation order); the parallelism
    /// only engages for nodes large enough to beat the pool wake — and
    /// never when the fit itself already runs inside a pool task (the
    /// nested map inlines).
    pub fn fit_with(
        x: &[Vec<f32>],
        y: &[bool],
        config: &GradientBoostingConfig,
        exec: &Executor,
    ) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let n = x.len();
        let pos = y.iter().filter(|b| **b).count();

        // Prior log-odds, clamped away from ±inf for single-class data.
        // With no data at all, default to "clean" (negative class): in the
        // pipeline an untrained column classifier must not flood the
        // predictions with false positives.
        let p0 = if n == 0 {
            1e-6
        } else {
            ((pos as f64 + 0.5) / (n as f64 + 1.0)).clamp(1e-6, 1.0 - 1e-6)
        };
        let base_score = (p0 / (1.0 - p0)).ln();
        let mut model = Self {
            base_score,
            trees: Vec::new(),
            learning_rate: config.learning_rate,
            used_binned: false,
        };
        if n == 0 || pos == 0 || pos == n {
            // Constant predictor: nothing for boosting to learn.
            return model;
        }

        // Bin the feature matrix once; every boosting stage reuses the
        // codes, so per-node split search never re-sorts raw vectors.
        // Columns that are not losslessly binnable (>256 distinct values,
        // NaN) fall back to the exact reference path — both paths grow
        // bit-identical trees (see crate::tree equivalence tests).
        let binned = BinnedDataset::build(x);
        model.used_binned = binned.is_some();

        let tree_config =
            TreeConfig { max_depth: config.max_depth, min_samples_leaf: config.min_samples_leaf };
        let mut margins = vec![base_score; n];
        let mut gradients = vec![0.0f64; n];
        let mut hessians = vec![0.0f64; n];
        for _ in 0..config.n_trees {
            for i in 0..n {
                let p = sigmoid(margins[i]);
                gradients[i] = f64::from(u8::from(y[i])) - p; // y - p
                hessians[i] = (p * (1.0 - p)).max(1e-9);
            }
            let tree = match &binned {
                Some(data) => {
                    RegressionTree::fit_binned_with(data, &gradients, &hessians, &tree_config, exec)
                }
                None => RegressionTree::fit(x, &gradients, &hessians, &tree_config),
            };
            if tree.n_nodes() == 1 && model.trees.len() > 1 {
                // A stump-less tree means the gradients are no longer
                // separable — further stages would add constant shifts.
                let delta = tree.predict(&x[0]);
                if delta.abs() < 1e-9 {
                    break;
                }
            }
            for (i, m) in margins.iter_mut().enumerate() {
                *m += config.learning_rate * tree.predict(&x[i]);
            }
            model.trees.push(tree);
        }
        model
    }

    /// Probability that `sample` is positive.
    pub fn predict_proba(&self, sample: &[f32]) -> f64 {
        let margin: f64 = self.base_score
            + self.learning_rate * self.trees.iter().map(|t| t.predict(sample)).sum::<f64>();
        sigmoid(margin)
    }

    /// Hard decision at the 0.5 threshold.
    pub fn predict(&self, sample: &[f32]) -> bool {
        self.predict_proba(sample) >= 0.5
    }

    /// Number of fitted boosting stages.
    pub fn n_stages(&self) -> usize {
        self.trees.len()
    }

    /// Whether training ran on the binned (histogram) kernel rather than
    /// the exact-split fallback. Surfaced as an obs metric by the
    /// classify stage.
    pub fn used_binned(&self) -> bool {
        self.used_binned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..8 {
                    x.push(vec![a as f32, b as f32]);
                    y.push((a ^ b) == 1);
                }
            }
        }
        (x, y)
    }

    #[test]
    fn learns_linearly_separable_data() {
        let x: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(!m.predict(&[3.0]));
        assert!(m.predict(&[17.0]));
        assert!(m.predict_proba(&[0.0]) < 0.1);
        assert!(m.predict_proba(&[19.0]) > 0.9);
    }

    #[test]
    fn learns_xor_thanks_to_depth() {
        let (x, y) = xor_data();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(!m.predict(&[0.0, 0.0]));
        assert!(m.predict(&[0.0, 1.0]));
        assert!(m.predict(&[1.0, 0.0]));
        assert!(!m.predict(&[1.0, 1.0]));
    }

    #[test]
    fn single_class_collapses_to_constant() {
        let x = vec![vec![1.0f32], vec![2.0], vec![3.0]];
        let all_neg = vec![false; 3];
        let m = GradientBoostingClassifier::fit(&x, &all_neg, &GradientBoostingConfig::default());
        assert_eq!(m.n_stages(), 0);
        assert!(!m.predict(&[1.0]));
        assert!(m.predict_proba(&[99.0]) < 0.2);

        let all_pos = vec![true; 3];
        let m = GradientBoostingClassifier::fit(&x, &all_pos, &GradientBoostingConfig::default());
        assert!(m.predict(&[-5.0]));
    }

    #[test]
    fn empty_training_set_predicts_negative() {
        let m = GradientBoostingClassifier::fit(&[], &[], &GradientBoostingConfig::default());
        assert!(!m.predict(&[0.0]));
    }

    #[test]
    fn probabilities_are_calibrated_ordering() {
        // More positive-looking samples get higher probabilities.
        let x: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32 / 40.0]).collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        let p_low = m.predict_proba(&[0.1]);
        let p_mid = m.predict_proba(&[0.5]);
        let p_high = m.predict_proba(&[0.9]);
        assert!(p_low < p_mid || p_low < p_high);
        assert!(p_low < p_high);
    }

    #[test]
    fn class_imbalance_still_finds_minority() {
        // 5% positives concentrated in a feature corner — the class
        // imbalance situation §3.3.2 describes for error detection.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let is_err = i % 20 == 0;
            x.push(vec![if is_err { 1.0 } else { 0.0 }, (i % 7) as f32]);
            y.push(is_err);
        }
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(m.predict(&[1.0, 3.0]));
        assert!(!m.predict(&[0.0, 3.0]));
    }

    #[test]
    fn binnable_data_uses_histogram_kernel() {
        let (x, y) = xor_data();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(m.used_binned(), "small-palette features must take the binned path");
    }

    #[test]
    fn high_cardinality_data_falls_back_to_exact_path() {
        // >256 distinct values in a column cannot be coded in u8 bins.
        let x: Vec<Vec<f32>> = (0..600).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..600).map(|i| i >= 300).collect();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(!m.used_binned());
        assert!(!m.predict(&[3.0]));
        assert!(m.predict(&[500.0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = GradientBoostingClassifier::fit(
            &[vec![0.0]],
            &[true, false],
            &GradientBoostingConfig::default(),
        );
    }

    /// `fit_with`'s boosting loop with every stage grown by the exact
    /// reference [`RegressionTree::fit`] instead of the binned kernel.
    fn fit_exact_reference(
        x: &[Vec<f32>],
        y: &[bool],
        config: &GradientBoostingConfig,
    ) -> GradientBoostingClassifier {
        let n = x.len();
        let pos = y.iter().filter(|b| **b).count();
        let p0 = ((pos as f64 + 0.5) / (n as f64 + 1.0)).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (p0 / (1.0 - p0)).ln();
        let mut model = GradientBoostingClassifier {
            base_score,
            trees: Vec::new(),
            learning_rate: config.learning_rate,
            used_binned: false,
        };
        let tree_config =
            TreeConfig { max_depth: config.max_depth, min_samples_leaf: config.min_samples_leaf };
        let mut margins = vec![base_score; n];
        for _ in 0..config.n_trees {
            let p: Vec<f64> = margins.iter().map(|&m| sigmoid(m)).collect();
            let gradients: Vec<f64> =
                p.iter().zip(y).map(|(&p, &yi)| f64::from(u8::from(yi)) - p).collect();
            let hessians: Vec<f64> = p.iter().map(|&p| (p * (1.0 - p)).max(1e-9)).collect();
            let tree = RegressionTree::fit(x, &gradients, &hessians, &tree_config);
            if tree.n_nodes() == 1 && model.trees.len() > 1 && tree.predict(&x[0]).abs() < 1e-9 {
                break;
            }
            for (m, xi) in margins.iter_mut().zip(x) {
                *m += config.learning_rate * tree.predict(xi);
            }
            model.trees.push(tree);
        }
        model
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        // Pins the binned kernel across all boosting stages — where the
        // dataset's root histogram is reused by every tree — to the exact
        // reference, on {0,1} flag rows like the pipeline's features.
        #[test]
        fn binned_boosting_equals_exact_reference_on_binary_flags(
            prototypes in proptest::collection::vec(
                proptest::collection::vec(0u8..2, 33),
                2usize..12,
            ),
            picks in proptest::collection::vec(0usize..64, 20usize..120),
            noise in proptest::collection::vec(0u8..8, 120),
        ) {
            let x: Vec<Vec<f32>> = picks
                .iter()
                .map(|&p| prototypes[p % prototypes.len()].iter().map(|&v| f32::from(v)).collect())
                .collect();
            // A noisy majority vote over three flags, with both classes.
            let mut y: Vec<bool> = x
                .iter()
                .zip(&noise)
                .map(|(r, &e)| (r[0] + r[1] + r[2] >= 2.0) != (e == 0))
                .collect();
            if y.iter().all(|&v| v == y[0]) {
                y[0] = !y[0];
            }
            let config = GradientBoostingConfig::default();
            let binned = GradientBoostingClassifier::fit(&x, &y, &config);
            let exact = fit_exact_reference(&x, &y, &config);
            proptest::prop_assert!(binned.used_binned());
            proptest::prop_assert_eq!(binned.n_stages(), exact.n_stages());
            proptest::prop_assert_eq!(&binned.trees, &exact.trees);
            for sample in &x {
                proptest::prop_assert_eq!(
                    binned.predict_proba(sample).to_bits(),
                    exact.predict_proba(sample).to_bits()
                );
            }
        }
    }
}
