//! # matelda-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§4). Each `src/bin/figN.rs` / `src/bin/tableN.rs`
//! binary sweeps the corresponding workload and prints the same rows or
//! series the paper reports. Performance is measured by the layered
//! `benchmark` binary (`src/bin/benchmark/`, declared in the repo's
//! `BENCHMARK.json`); accuracy is gated by `eval_gate` against the
//! committed `EVAL_matrix.json`; `scale_bench` checks the out-of-core
//! contract on the `large-ci` lake.
//!
//! Conventions:
//!
//! * results are averaged over independent seeds (the paper averages 3–5
//!   runs) and printed as aligned text tables, and also written as CSV to
//!   `results/`;
//! * the environment variable `MATELDA_SCALE` picks the sweep size:
//!   `quick` (sanity), `small` (reduced lakes), or `full` (paper-shaped
//!   lakes; the default).

pub mod eval;
pub mod json;

use matelda_baselines::{Budget, ErrorDetector};
use matelda_core::{Matelda, MateldaConfig};
pub use matelda_exec::RunReport;
use matelda_lakegen::GeneratedLake;
use matelda_table::{CellMask, Confusion, Labeler, Lake, Oracle};
use std::fmt::Write as _;
use std::time::Instant;

/// Sweep size selected via `MATELDA_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny lakes, two budgets — wiring checks.
    Quick,
    /// Reduced table counts — minutes.
    Small,
    /// Paper-shaped lakes — the real reproduction.
    Full,
    /// The out-of-core CI tier: a generated lake of ≥10⁶ cells streamed
    /// through the out-of-core driver under a peak-RSS budget. Only
    /// `scale_bench` uses it, as the key of its accuracy row;
    /// `MATELDA_SCALE` never selects it.
    LargeCi,
}

impl Scale {
    /// Reads `MATELDA_SCALE` (default `full`).
    pub fn from_env() -> Self {
        match std::env::var("MATELDA_SCALE").unwrap_or_default().as_str() {
            "quick" => Scale::Quick,
            "small" => Scale::Small,
            _ => Scale::Full,
        }
    }

    /// Scales a table count down for the smaller profiles.
    pub fn tables(self, full: usize) -> usize {
        match self {
            Scale::Quick => full.min(8),
            Scale::Small => (full / 4).max(8).min(full),
            Scale::Full | Scale::LargeCi => full,
        }
    }

    /// The scale's name as recorded in bench/eval result files.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Small => "small",
            Scale::Full => "full",
            Scale::LargeCi => "large-ci",
        }
    }

    /// Number of independent seeds to average over. The paper averages
    /// 3–5 runs on a 64-core machine; this reproduction defaults to 2 at
    /// full scale to fit a single-core budget (set `MATELDA_SEEDS` to
    /// override). The large tier runs one seed.
    pub fn seeds(self) -> u64 {
        if let Ok(s) = std::env::var("MATELDA_SEEDS") {
            if let Ok(n) = s.parse::<u64>() {
                return n.max(1);
            }
        }
        match self {
            Scale::Quick => 1,
            Scale::Small => 2,
            Scale::Full => 2,
            Scale::LargeCi => 1,
        }
    }
}

/// The Matelda pipeline behind the uniform [`ErrorDetector`] interface.
pub struct MateldaSystem {
    /// Display name (e.g. `Matelda`, `Matelda-EDF`).
    pub label: String,
    /// Pipeline configuration.
    pub config: MateldaConfig,
}

impl MateldaSystem {
    /// The standard configuration.
    pub fn standard() -> Self {
        Self { label: "Matelda".to_string(), config: MateldaConfig::default() }
    }

    /// A named variant.
    pub fn variant(label: &str, config: MateldaConfig) -> Self {
        Self { label: label.to_string(), config }
    }
}

impl ErrorDetector for MateldaSystem {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn detect(&self, lake: &Lake, labeler: &mut dyn Labeler, budget: Budget) -> CellMask {
        Matelda::new(self.config.clone()).detect(lake, labeler, budget.total_cells(lake)).predicted
    }

    fn detect_with_report(
        &self,
        lake: &Lake,
        labeler: &mut dyn Labeler,
        budget: Budget,
    ) -> (CellMask, RunReport) {
        let result =
            Matelda::new(self.config.clone()).detect(lake, labeler, budget.total_cells(lake));
        (result.predicted, result.report)
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cell-level precision.
    pub precision: f64,
    /// Cell-level recall.
    pub recall: f64,
    /// Cell-level F1.
    pub f1: f64,
    /// Wall-clock seconds for the detect call.
    pub seconds: f64,
    /// Labels drawn from the oracle.
    pub labels: usize,
    /// Per-stage instrumentation of the (last) run; empty for systems
    /// without staged internals.
    pub report: RunReport,
    /// The predicted error mask — kept so the eval recorder can break
    /// recall down per error type against the lake's typed truth.
    pub predicted: CellMask,
}

/// Runs one system once on a generated lake.
pub fn run_once(system: &dyn ErrorDetector, lake: &GeneratedLake, budget: Budget) -> RunResult {
    let mut oracle = Oracle::new(&lake.errors);
    let start = Instant::now();
    let (predicted, report) = system.detect_with_report(&lake.dirty, &mut oracle, budget);
    let seconds = start.elapsed().as_secs_f64();
    let conf = Confusion::from_masks(&predicted, &lake.errors);
    RunResult {
        precision: conf.precision(),
        recall: conf.recall(),
        f1: conf.f1(),
        seconds,
        labels: oracle.labels_used(),
        report,
        predicted,
    }
}

/// Prints one system's per-stage report (used by every bench binary to
/// surface stage timings for its headline runs). Systems without staged
/// internals produce no output.
pub fn print_stage_report(label: &str, report: &RunReport) {
    if report.stages.is_empty() {
        return;
    }
    println!("\n[stages] {label}");
    print!("{}", report.render());
}

/// An aligned text table builder for harness output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds one row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(n_cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{cell:>width$}", width = widths.get(i).copied().unwrap_or(0));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV under `results/`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all("results")?;
        let mut s = String::new();
        s.push_str(&self.header.join(","));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        std::fs::write(format!("results/{name}.csv"), s)
    }
}

/// Formats a ratio as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats seconds.
pub fn secs(x: f64) -> String {
    format!("{x:.2}s")
}

/// The paper's Figure 3/4 budget axis: labeled tuples per table.
pub fn budget_axis(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![1.0, 5.0],
        Scale::Small => vec![0.5, 1.0, 2.0, 5.0, 10.0],
        Scale::Full | Scale::LargeCi => vec![0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_lakegen::QuintetLake;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["sys", "f1"]);
        t.row(vec!["Matelda".into(), "79.0%".into()]);
        t.row(vec!["GX".into(), "0.1%".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sys"));
        assert!(lines[2].ends_with("79.0%"));
    }

    #[test]
    fn run_once_produces_metrics() {
        let lake = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(1);
        let sys = MateldaSystem::standard();
        let r = run_once(&sys, &lake, Budget::per_table(2.0));
        assert!(r.f1 >= 0.0 && r.f1 <= 1.0);
        assert!(r.seconds > 0.0);
        assert!(r.labels > 0);
    }

    #[test]
    fn scale_parsing_and_knobs() {
        assert_eq!(Scale::Quick.tables(143), 8);
        assert_eq!(Scale::Full.tables(143), 143);
        assert!(Scale::Small.tables(143) < 143);
        assert_eq!(Scale::Quick.seeds(), 1);
        assert_eq!(budget_axis(Scale::Full).len(), 8);
    }
}
