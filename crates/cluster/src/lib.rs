//! # matelda-cluster
//!
//! The clustering substrate for MaTElDa, implemented from scratch:
//!
//! * [`hdbscan`] — full HDBSCAN* (Campello et al. 2015): one pairwise
//!   distance matrix → core distances → mutual reachability (in place) →
//!   MST → single-linkage dendrogram → condensed tree → excess-of-mass
//!   cluster extraction. Used for **domain-based cell folding** (paper
//!   §3.2, `min_cluster_size = 2`).
//! * [`kmeans`] — Mini-batch K-Means (Sculley 2010) with k-means++
//!   seeding and per-center learning rates. Used for **quality-based cell
//!   folding** (paper §3.3.2 / Alg. 1 line 13).
//! * [`agglo`] — average-linkage agglomerative clustering, used by the Raha
//!   baseline (which the Raha paper builds on hierarchical clustering) and
//!   as the hierarchical alternative the paper mentions in §3.3.2.
//! * [`linkage`] — the shared single-linkage dendrogram machinery
//!   (union-find, merge list).
//! * [`matrix`] — the contiguous row-major [`PointMatrix`], its
//!   bit-keyed [`DistinctRows`] form, the 8-lane nearest-center kernel
//!   of k-means and a parallel pairwise Euclidean matrix build
//!   (bit-identical to the naive paths).
//!
//! All entry points are deterministic given their seed.

pub mod agglo;
pub mod budget;
pub mod hdbscan;
pub mod kmeans;
pub mod linkage;
pub mod matrix;

pub use agglo::agglomerative;
pub use budget::{check_budget, dense_matrix_bytes, ScaleError};
pub use hdbscan::{Hdbscan, HdbscanConfig, NOISE};
pub use kmeans::{MiniBatchKMeans, MiniBatchKMeansConfig};
pub use matrix::{DistinctRows, PointMatrix};
