//! # matelda-fd
//!
//! Functional-dependency substrate: stripped partitions, unary FD mining
//! and per-cell violation marking.
//!
//! Three parts of the reproduction need FDs:
//!
//! * Matelda's **rule-violation detectors** (paper §3.3.1): three
//!   structural candidate FDs per column (`a₀→aⱼ`, `aⱼ₋₁→aⱼ`, `aⱼ→aⱼ₊₁`)
//!   plus the aggregated `nv_LHS`/`nv_RHS` violation frequencies over all
//!   unary rules (Eq. 6);
//! * the **Raha baseline**, which checks all unary FDs of a table;
//! * the **error generator**, which (like the paper's BART + HyFD setup)
//!   mines FDs that hold on the clean data and injects violations into
//!   them.
//!
//! The paper only ever needs *unary* (single-attribute LHS) dependencies,
//! so mining is partition-refinement over column pairs rather than a full
//! HyFD lattice search — see DESIGN.md's substitution table.
//!
//! All three go through one [`kernel`]: a table is interned once
//! ([`matelda_table::InternedTable`]), each column's stripped partition
//! is a counting sort of its codes ([`CodeGroups`]), and each ordered
//! pair is one [`PairKernel::scan`] that counts RHS codes per LHS group
//! in a dense array. [`violation_stats`], [`Partition::of_column`],
//! [`mine_approximate`] and [`mine_exact_injectable`] read it, and so
//! does `matelda-detect`'s rule featurizer, which streams each pair's
//! marked rows straight into its per-cell counts. No FD question hashes
//! a string after interning.

pub mod kernel;
pub mod mine;
pub mod partition;
pub mod tane;
pub mod violation;

pub use kernel::{CodeGroups, PairKernel};
pub use mine::{mine_approximate, mine_exact_injectable, Fd};
pub use partition::Partition;
pub use tane::{mine_composite, CompositeFd};
pub use violation::{violating_rows, violation_stats, ViolationStats};
