//! # matelda-detect
//!
//! The base error detectors and the **unified cell feature space** — the
//! paper's central technical contribution (§3.3.1): a fixed-length,
//! table- and column-agnostic embedding of every cell, so that a single
//! clustering and a single classifier can treat cells from tables with
//! disjoint schemata identically.
//!
//! The feature vector of a cell `c` is (Alg. 1 line 10):
//!
//! ```text
//! v_c = [ d_θ(c), d_TD(c), d_FD(c), nv_LHS(c), nv_RHS(c) ]
//! ```
//!
//! laid out as 32 dimensions:
//!
//! | dims   | content |
//! |--------|---------|
//! | 0..9   | TF-histogram outlier flags, θ_tf ∈ {0.1, …, 0.9} (Eq. 2) |
//! | 9..18  | Gaussian outlier flags, θ_dist ∈ {1, 1.3, 1.5, 1.7, 2, 2.3, 2.5, 2.7, 3} (Eq. 3) |
//! | 18     | dictionary typo flag `d_TD` (Eq. 4) |
//! | 19..22 | structural FD flags `d_{a₀→aⱼ}`, `d_{aⱼ₋₁→aⱼ}`, `d_{aⱼ→aⱼ₊₁}` (Eq. 5) |
//! | 22..27 | one-hot 20%-quantile bucket of `nv_LHS` (Eq. 6) |
//! | 27..32 | one-hot 20%-quantile bucket of `nv_RHS` (Eq. 6) |
//!
//! [`FeatureConfig`] can disable each detector family, implementing the
//! paper's Matelda-NOD / -NTD / -NRVD ablations (§4.5.3); disabled blocks
//! are zeroed so vectors remain comparable across configurations.
//!
//! [`syntactic`] provides the *column-level* syntactic profile (data
//! types, character distributions, value lengths) used by the `+SF`
//! syntactic-folding variant (§4.5.1).

pub mod featurize;
pub mod outlier;
pub mod rules;
pub mod spill;
pub mod syntactic;
pub mod typo;

pub use featurize::{
    feature_name, featurize_table, fired_features, CellFeatures, FeatureConfig, FEATURE_DIM,
};
pub use spill::{load_features, spill_features, spill_path};
pub use syntactic::column_syntactic_features;
