//! # matelda-ml
//!
//! The machine-learning substrate for MaTElDa, built from scratch:
//!
//! * [`tree`] — CART regression trees (variance-reduction splits); its
//!   exact `RegressionTree::fit` is the reference every faster grower is
//!   pinned to,
//! * [`binned`] and `memo` — lossless bin codes and the memoized grower
//!   boosting uses: each tree node's target-independent split-search
//!   state is computed once per fit and shared by every boosting stage,
//!   bit-identical to the reference,
//! * [`gbm`] — a binary **Gradient Boosting Classifier** (Friedman 2001)
//!   with logistic loss and Newton leaf values — the per-column error
//!   classifier of the paper (Alg. 1 lines 20–22: "Similar to prior work,
//!   we use the Gradient Boosting Classifier, which has shown robust
//!   performance"); it boosts once per class of identical samples,
//! * [`forest`] — a random forest, the classifier ablation's alternative.
//!
//! The classifier intentionally mirrors scikit-learn's
//! `GradientBoostingClassifier` defaults in spirit (shallow trees, shrinkage)
//! while staying dependency-free.

pub mod binned;
pub mod classifier;
pub mod forest;
pub mod gbm;
mod memo;
pub mod tree;

pub use binned::BinnedDataset;
pub use classifier::{ClassifierKind, FittedClassifier};
pub use forest::{RandomForestClassifier, RandomForestConfig};
pub use gbm::{GradientBoostingClassifier, GradientBoostingConfig};
pub use tree::{RegressionTree, TreeConfig};
