//! The DGov-X family: larger lakes of open-government-style tables with
//! controlled error-type mixes (paper Table 1 rows 3–8):
//!
//! | preset | tables | error rate | types |
//! |--------|--------|-----------|-------|
//! | DGov-NTR  | 143  | 16% | NO, FI & T, VAD |
//! | DGov-NT   | 159  | 15% | NO, FI & T |
//! | DGov-NO   | 96   | 2%  | NO |
//! | DGov-Typo | 96   | 9%  | FI & T |
//! | DGov-RV   | 96   | 8%  | VAD |
//! | DGov-1K   | 1173 | ~10% | mixed (paper: unknown) |

use crate::build::{assemble, GeneratedLake};
use crate::domains::ALL_DOMAINS;
use matelda_errorgen::{ErrorSpec, ErrorType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters for DGov-shaped lakes.
#[derive(Debug, Clone)]
pub struct DGovLake {
    /// Number of tables.
    pub n_tables: usize,
    /// Row count range per table (inclusive).
    pub rows: (usize, usize),
    /// Cell error rate.
    pub error_rate: f64,
    /// Error types to inject.
    pub types: Vec<ErrorType>,
}

impl DGovLake {
    /// DGov-NTR: numeric outliers, typos & formatting, rule violations.
    pub fn ntr() -> Self {
        Self {
            n_tables: 143,
            rows: (25, 55),
            error_rate: 0.16,
            types: vec![
                ErrorType::NumericOutlier,
                ErrorType::Formatting,
                ErrorType::Typo,
                ErrorType::FdViolation,
            ],
        }
    }

    /// DGov-NT: numeric outliers, typos & formatting.
    pub fn nt() -> Self {
        Self {
            n_tables: 159,
            rows: (25, 55),
            error_rate: 0.15,
            types: vec![ErrorType::NumericOutlier, ErrorType::Formatting, ErrorType::Typo],
        }
    }

    /// DGov-NO: numeric outliers only, 2%.
    pub fn no() -> Self {
        Self {
            n_tables: 96,
            rows: (25, 55),
            error_rate: 0.02,
            types: vec![ErrorType::NumericOutlier],
        }
    }

    /// DGov-Typo: formatting & typos only, 9%.
    pub fn typo() -> Self {
        Self {
            n_tables: 96,
            rows: (25, 55),
            error_rate: 0.09,
            types: vec![ErrorType::Formatting, ErrorType::Typo],
        }
    }

    /// DGov-RV: rule violations only. The configured rate is higher than
    /// the paper's 8% because tables without injectable FDs absorb no
    /// quota — 0.14 realizes ≈8% of cells across the lake.
    pub fn rv() -> Self {
        Self { n_tables: 96, rows: (25, 55), error_rate: 0.14, types: vec![ErrorType::FdViolation] }
    }

    /// DGov-1K: the 1173-table scalability lake. The paper reports ~3.1k
    /// rows per table; scaled down proportionally.
    pub fn dgov_1k() -> Self {
        Self {
            n_tables: 1173,
            rows: (30, 60),
            error_rate: 0.10,
            types: vec![
                ErrorType::MissingValue,
                ErrorType::Typo,
                ErrorType::Formatting,
                ErrorType::NumericOutlier,
                ErrorType::FdViolation,
            ],
        }
    }

    /// A copy limited to the first `n` tables (the paper's Fig. 9 sweeps
    /// DGov-1K subsets of 250–1173 tables).
    pub fn with_n_tables(mut self, n: usize) -> Self {
        self.n_tables = n;
        self
    }

    /// Generates the lake deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> GeneratedLake {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tables = Vec::with_capacity(self.n_tables);
        for i in 0..self.n_tables {
            let spec = &ALL_DOMAINS[i % ALL_DOMAINS.len()];
            let n_rows = rng.random_range(self.rows.0..=self.rows.1);
            let mut t = spec.generate(&format!("{}_{i}", spec.name), n_rows, &mut rng);
            // Schema variation: sometimes drop the last column, so tables
            // from the same template are not schema-identical (data.gov
            // tables of one topic rarely are).
            if t.n_cols() > 4 && rng.random_bool(0.3) {
                t.columns.pop();
            }
            tables.push(t);
        }
        let specs: Vec<ErrorSpec> = (0..self.n_tables)
            .map(|i| ErrorSpec {
                rate: self.error_rate,
                types: self.types.clone(),
                seed: seed ^ (0xD60F + i as u64),
            })
            .collect();
        assemble(tables, &specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntr_shape() {
        let mut cfg = DGovLake::ntr();
        cfg.n_tables = 20; // keep the unit test fast
        let lake = cfg.generate(5);
        assert_eq!(lake.dirty.n_tables(), 20);
        let rate = lake.error_rate();
        assert!((0.12..=0.20).contains(&rate), "rate {rate}");
        let names: Vec<&str> = lake.typed_errors.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"NO") && names.contains(&"T") && names.contains(&"VAD"));
        assert!(!names.contains(&"MV"));
    }

    #[test]
    fn single_type_presets_inject_only_that_type() {
        let mut cfg = DGovLake::no();
        cfg.n_tables = 10;
        let lake = cfg.generate(6);
        let names: Vec<&str> = lake.typed_errors.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["NO"]);
        assert!(lake.error_rate() > 0.005 && lake.error_rate() < 0.04, "{}", lake.error_rate());

        let mut cfg = DGovLake::rv();
        cfg.n_tables = 10;
        let lake = cfg.generate(6);
        let names: Vec<&str> = lake.typed_errors.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["VAD"]);
    }

    #[test]
    fn schema_variation_produces_differing_widths() {
        let mut cfg = DGovLake::ntr();
        cfg.n_tables = 46; // two full domain cycles
        let lake = cfg.generate(8);
        let widths: std::collections::HashSet<(String, usize)> = lake
            .dirty
            .tables
            .iter()
            .map(|t| (t.name.split('_').next().unwrap_or("").to_string(), t.n_cols()))
            .collect();
        // At least one domain appears with two different widths.
        let domains: std::collections::HashSet<&String> = widths.iter().map(|(d, _)| d).collect();
        assert!(widths.len() > domains.len(), "no schema variation: {widths:?}");
    }
}
