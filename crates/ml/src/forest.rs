//! Random forest classification (Breiman 2001): bagged CART trees with
//! per-tree feature subsampling.
//!
//! The Raha paper evaluates several classifier families before settling
//! on gradient boosting; this forest is the natural alternative and backs
//! the classifier ablation in `matelda-bench` (`ablation_classifier`).

use crate::tree::{RegressionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random forest hyperparameters.
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Depth limit per tree (forests like them deeper than boosting).
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features sampled per tree; `None` = ⌈√d⌉.
    pub max_features: Option<usize>,
    /// Bootstrap / feature-sampling seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self { n_trees: 40, max_depth: 8, min_samples_leaf: 1, max_features: None, seed: 0 }
    }
}

/// A fitted random forest (binary classification by vote averaging).
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    /// `(feature indices used, tree fitted on the projected data)`.
    trees: Vec<(Vec<usize>, RegressionTree)>,
    /// Fallback prior when no trees could be fitted.
    prior: f64,
}

impl RandomForestClassifier {
    /// Fits on row-major features and boolean labels.
    pub fn fit<R: AsRef<[f32]>>(x: &[R], y: &[bool], config: &RandomForestConfig) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let n = x.len();
        let pos = y.iter().filter(|b| **b).count();
        let prior = if n == 0 { 0.0 } else { pos as f64 / n as f64 };
        let mut model = Self { trees: Vec::new(), prior };
        if n == 0 || pos == 0 || pos == n {
            return model; // constant predictor
        }
        let d = x[0].as_ref().len();
        let k =
            config.max_features.unwrap_or_else(|| (d as f64).sqrt().ceil() as usize).clamp(1, d);
        let tree_config =
            TreeConfig { max_depth: config.max_depth, min_samples_leaf: config.min_samples_leaf };
        let mut rng = StdRng::seed_from_u64(config.seed);

        for _ in 0..config.n_trees {
            // Bootstrap rows.
            let rows: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
            // Sample features without replacement.
            let mut features: Vec<usize> = (0..d).collect();
            for i in 0..k {
                let j = rng.random_range(i..d);
                features.swap(i, j);
            }
            features.truncate(k);
            features.sort_unstable();

            let bx: Vec<Vec<f32>> = rows
                .iter()
                .map(|&r| features.iter().map(|&f| x[r].as_ref()[f]).collect())
                .collect();
            let by: Vec<f64> = rows.iter().map(|&r| f64::from(u8::from(y[r]))).collect();
            // Skip single-class bootstrap samples: the tree would be a
            // constant and only dilute the vote.
            if by.iter().all(|&v| v == by[0]) {
                continue;
            }
            let hess = vec![1.0; bx.len()];
            let tree = RegressionTree::fit(&bx, &by, &hess, &tree_config);
            model.trees.push((features, tree));
        }
        model
    }

    /// Mean leaf vote in `[0, 1]`.
    pub fn predict_proba(&self, sample: &[f32]) -> f64 {
        if self.trees.is_empty() {
            return self.prior;
        }
        let total: f64 = self
            .trees
            .iter()
            .map(|(features, tree)| {
                let projected: Vec<f32> = features.iter().map(|&f| sample[f]).collect();
                tree.predict(&projected).clamp(0.0, 1.0)
            })
            .sum();
        total / self.trees.len() as f64
    }

    /// Hard decision at 0.5.
    pub fn predict(&self, sample: &[f32]) -> bool {
        self.predict_proba(sample) >= 0.5
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_separable_data() {
        let x: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i % 3) as f32]).collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let m = RandomForestClassifier::fit(&x, &y, &RandomForestConfig::default());
        assert!(m.n_trees() > 0);
        assert!(!m.predict(&[2.0, 1.0]));
        assert!(m.predict(&[35.0, 0.0]));
    }

    #[test]
    fn single_class_collapses_to_prior() {
        let x = vec![vec![1.0f32], vec![2.0]];
        let m = RandomForestClassifier::fit(&x, &[false, false], &RandomForestConfig::default());
        assert_eq!(m.n_trees(), 0);
        assert!(!m.predict(&[5.0]));
        let m = RandomForestClassifier::fit(&x, &[true, true], &RandomForestConfig::default());
        assert!(m.predict(&[5.0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let x: Vec<Vec<f32>> = (0..30).map(|i| vec![(i % 7) as f32, (i % 5) as f32]).collect();
        let y: Vec<bool> = (0..30).map(|i| i % 4 == 0).collect();
        let cfg = RandomForestConfig { seed: 9, ..Default::default() };
        let a = RandomForestClassifier::fit(&x, &y, &cfg);
        let b = RandomForestClassifier::fit(&x, &y, &cfg);
        for s in &x {
            assert_eq!(a.predict_proba(s), b.predict_proba(s));
        }
    }

    #[test]
    fn feature_subsampling_respects_bounds() {
        let x: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32; 9]).collect();
        let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let cfg = RandomForestConfig { max_features: Some(2), ..Default::default() };
        let m = RandomForestClassifier::fit(&x, &y, &cfg);
        assert!(m.n_trees() > 0);
        // Still learns: with 9 redundant copies any 2 features suffice.
        assert!(m.predict(&[15.0; 9]));
        assert!(!m.predict(&[3.0; 9]));
    }

    #[test]
    fn empty_input_predicts_negative() {
        let m = RandomForestClassifier::fit::<Vec<f32>>(&[], &[], &RandomForestConfig::default());
        assert!(!m.predict(&[0.0]));
    }
}
