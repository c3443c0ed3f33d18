//! A small classifier abstraction so the pipeline can swap learners
//! (the paper uses gradient boosting "similar to prior work"; the
//! classifier ablation compares it against a random forest).

use crate::forest::{RandomForestClassifier, RandomForestConfig};
use crate::gbm::{GradientBoostingClassifier, GradientBoostingConfig};
use matelda_exec::Executor;

/// Which learner to fit per column/fold.
#[derive(Debug, Clone)]
pub enum ClassifierKind {
    /// Gradient boosting (the paper's choice).
    GradientBoosting(GradientBoostingConfig),
    /// Bagged random forest.
    RandomForest(RandomForestConfig),
}

impl Default for ClassifierKind {
    fn default() -> Self {
        ClassifierKind::GradientBoosting(GradientBoostingConfig::default())
    }
}

/// A fitted learner of either kind.
#[derive(Debug, Clone)]
pub enum FittedClassifier {
    /// Fitted boosting model.
    Gbm(GradientBoostingClassifier),
    /// Fitted forest.
    Forest(RandomForestClassifier),
}

impl FittedClassifier {
    /// Fits the configured learner.
    pub fn fit<R: AsRef<[f32]>>(kind: &ClassifierKind, x: &[R], y: &[bool]) -> Self {
        match kind {
            ClassifierKind::GradientBoosting(cfg) => {
                FittedClassifier::Gbm(GradientBoostingClassifier::fit(x, y, cfg))
            }
            ClassifierKind::RandomForest(cfg) => {
                FittedClassifier::Forest(RandomForestClassifier::fit(x, y, cfg))
            }
        }
    }

    /// [`FittedClassifier::fit`]; the executor is not used. A model
    /// trains on one thread — callers run models in parallel instead.
    pub fn fit_with<R: AsRef<[f32]>>(
        kind: &ClassifierKind,
        x: &[R],
        y: &[bool],
        _exec: &Executor,
    ) -> Self {
        Self::fit(kind, x, y)
    }

    /// Positive-class probability.
    pub fn predict_proba(&self, sample: &[f32]) -> f64 {
        match self {
            FittedClassifier::Gbm(m) => m.predict_proba(sample),
            FittedClassifier::Forest(m) => m.predict_proba(sample),
        }
    }

    /// Hard decision at 0.5.
    pub fn predict(&self, sample: &[f32]) -> bool {
        self.predict_proba(sample) >= 0.5
    }

    /// Whether training ran on the GBM's memoized grower over binned rows
    /// (always `false` for forests, which have no binned path).
    pub fn used_binned(&self) -> bool {
        match self {
            FittedClassifier::Gbm(m) => m.used_binned(),
            FittedClassifier::Forest(_) => false,
        }
    }

    /// Whether the model trained no tree and predicts its prior for
    /// every sample, as it does when the labels have one class (or none).
    pub fn is_constant(&self) -> bool {
        match self {
            FittedClassifier::Gbm(m) => m.n_stages() == 0,
            FittedClassifier::Forest(m) => m.n_trees() == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kinds_fit_and_agree_on_easy_data() {
        let x: Vec<Vec<f32>> = (0..30).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..30).map(|i| i >= 15).collect();
        for kind in
            [ClassifierKind::default(), ClassifierKind::RandomForest(RandomForestConfig::default())]
        {
            let m = FittedClassifier::fit(&kind, &x, &y);
            assert!(!m.predict(&[2.0]), "{kind:?}");
            assert!(m.predict(&[28.0]), "{kind:?}");
            assert!(!m.is_constant(), "{kind:?}");
        }
    }

    #[test]
    fn one_class_labels_give_a_constant_model_of_either_kind() {
        let x: Vec<Vec<f32>> = (0..30).map(|i| vec![i as f32]).collect();
        for kind in
            [ClassifierKind::default(), ClassifierKind::RandomForest(RandomForestConfig::default())]
        {
            let m = FittedClassifier::fit(&kind, &x, &[true; 30]);
            assert!(m.is_constant(), "{kind:?}");
            assert!(!m.used_binned(), "{kind:?}");
        }
    }
}
