//! Byte budgets for the O(n²) materializations in this crate.
//!
//! An HDBSCAN fit builds one dense `n × n` f64 mutual-reachability
//! matrix. At toy lake sizes that is noise; at the scale tiers it is the
//! single allocation that kills the process — silently, via the OOM
//! killer, with no degradation path. The fit therefore goes through
//! [`check_budget`] first: when a configured budget would be blown the
//! caller gets a structured [`ScaleError`] *before* the allocation is
//! attempted, and the engine's fault policy decides what degrades
//! (DESIGN.md §14). An absent budget (`None`) preserves the historical
//! unchecked behavior bit for bit.

use std::fmt;

/// A dense materialization would exceed the configured memory budget.
///
/// This is a *planning* error: nothing was allocated, no work was lost,
/// and the caller can degrade (skip the fold, fall back to a coarser
/// strategy) exactly as it would for an injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleError {
    /// What was about to be materialized (e.g. `"hdbscan pairwise matrix"`).
    pub what: &'static str,
    /// Bytes the materialization needs.
    pub needed_bytes: u64,
    /// The budget it would blow.
    pub budget_bytes: u64,
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} needs {} bytes, over the {}-byte memory budget",
            self.what, self.needed_bytes, self.budget_bytes
        )
    }
}

impl std::error::Error for ScaleError {}

/// Bytes of one dense `n × n` f64 matrix (saturating — a size that
/// overflows `u64` is over every budget anyway).
pub fn dense_matrix_bytes(n: usize) -> u64 {
    (n as u64).saturating_mul(n as u64).saturating_mul(8)
}

/// Passes iff `needed_bytes` fits in `budget` (or there is no budget).
pub fn check_budget(
    what: &'static str,
    needed_bytes: u64,
    budget: Option<u64>,
) -> Result<(), ScaleError> {
    match budget {
        Some(limit) if needed_bytes > limit => {
            Err(ScaleError { what, needed_bytes, budget_bytes: limit })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_always_passes() {
        assert_eq!(check_budget("m", u64::MAX, None), Ok(()));
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        assert_eq!(check_budget("m", 100, Some(100)), Ok(()));
        let err = check_budget("m", 101, Some(100)).unwrap_err();
        assert_eq!(err.needed_bytes, 101);
        assert_eq!(err.budget_bytes, 100);
        assert!(err.to_string().contains("101 bytes"));
    }

    #[test]
    fn dense_matrix_bytes_saturates_instead_of_wrapping() {
        assert_eq!(dense_matrix_bytes(0), 0);
        assert_eq!(dense_matrix_bytes(1000), 8_000_000);
        assert_eq!(dense_matrix_bytes(usize::MAX), u64::MAX);
    }
}
