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
//! * the budget-sweep experiments (fig3–fig8 and the three ablations)
//!   run through one [`Sweep`]: every system on every lake at every
//!   budget, once per seed, each run recorded in the eval matrix;
//! * results are averaged over independent seeds (the paper averages 3–5
//!   runs) and printed as aligned text tables, and also written as CSV
//!   under [`Scale::results_dir`]: `results/` at full scale, the results
//!   EXPERIMENTS.md cites, and `results/<scale>/` otherwise;
//! * the environment variable `MATELDA_SCALE` picks the sweep size:
//!   `quick` (sanity), `small` (reduced lakes), or `full` (paper-shaped
//!   lakes; the default).

pub mod eval;
pub mod json;

use eval::EvalRecorder;
use matelda_baselines::{Budget, ErrorDetector};
use matelda_core::{Matelda, MateldaConfig};
pub use matelda_exec::RunReport;
use matelda_lakegen::{DGovLake, GeneratedLake, QuintetLake};
use matelda_table::{CellMask, Confusion, Labeler, Lake, Oracle};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
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

    /// Where the experiments write their CSVs (and `run_all_experiments.sh`
    /// its logs): `results/` at full scale, the recorded results
    /// EXPERIMENTS.md cites, and `results/<scale>/` otherwise, so a quick
    /// or small run never rewrites them.
    pub fn results_dir(self) -> PathBuf {
        match self {
            Scale::Full => PathBuf::from("results"),
            other => Path::new("results").join(other.name()),
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
        self.detect_with_report(lake, labeler, budget).0
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

/// Lets a sweep take a list of Matelda variants as its systems.
impl AsRef<dyn ErrorDetector> for MateldaSystem {
    fn as_ref(&self) -> &(dyn ErrorDetector + 'static) {
        self
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

    /// Writes the table as `<name>.csv` under `scale`'s
    /// [`Scale::results_dir`].
    pub fn write_csv(&self, scale: Scale, name: &str) -> std::io::Result<()> {
        let dir = scale.results_dir();
        std::fs::create_dir_all(&dir)?;
        let mut s = String::new();
        s.push_str(&self.header.join(","));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        std::fs::write(dir.join(format!("{name}.csv")), s)
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

/// One lake of a [`Sweep`]: its name and its seeded generator.
pub type SweepLake = (&'static str, Box<dyn Fn(u64) -> GeneratedLake>);

/// Quintet and DGov-NTR (143 tables, scaled): the lake pair most
/// experiments sweep.
pub fn quintet_and_dgov_ntr(scale: Scale) -> Vec<SweepLake> {
    let n = scale.tables(143);
    vec![
        ("Quintet", Box::new(|s| QuintetLake::default().generate(s))),
        ("DGov-NTR", Box::new(move |s| DGovLake::ntr().with_n_tables(n).generate(s))),
    ]
}

/// One system on one lake at one budget: the means of its runs, one per
/// seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepCell {
    /// Runs averaged.
    pub runs: usize,
    /// Mean F1.
    pub f1: f64,
    /// Mean precision.
    pub precision: f64,
    /// Mean recall.
    pub recall: f64,
    /// Mean wall seconds.
    pub seconds: f64,
    /// Mean oracle labels, rounded down.
    pub labels: usize,
}

/// A per-system column [`Sweep::print_f1_table`] adds after the F1
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extra {
    /// `<system> [time]`: mean wall seconds.
    Time,
    /// `<system> [labels]`: mean oracle labels.
    Labels,
}

/// The paper's evaluation protocol (§4), run once for an experiment:
/// for each lake, seed ([`Scale::seeds`]), budget and system, one
/// [`run_once`] recorded in the eval matrix, averaged into a
/// [`SweepCell`]. A system that is not
/// [`applicable`](ErrorDetector::applicable) at a budget is skipped
/// there and prints `n/a`. Every run is deterministic, so loop order
/// reaches no output but timings.
#[derive(Debug)]
pub struct Sweep {
    scale: Scale,
    rec: EvalRecorder,
    budgets: Vec<f64>,
    /// Each lake's name and its systems' names, in the experiment's order.
    lakes: Vec<(String, Vec<String>)>,
    cells: BTreeMap<(String, String, u64), SweepCell>,
    /// The last non-empty stage report per system.
    reports: BTreeMap<String, RunReport>,
}

impl Sweep {
    /// Runs `experiment`'s sweep at `scale`: `systems` builds the systems
    /// for one lake from its name and its generated lake, once per seed.
    pub fn run<S: AsRef<dyn ErrorDetector>>(
        experiment: &str,
        scale: Scale,
        lakes: &[SweepLake],
        budgets: &[f64],
        systems: impl Fn(&str, &GeneratedLake) -> Vec<S>,
    ) -> Sweep {
        let mut sweep = Sweep {
            scale,
            rec: EvalRecorder::for_experiment(experiment, scale),
            budgets: budgets.to_vec(),
            lakes: Vec::new(),
            cells: BTreeMap::new(),
            reports: BTreeMap::new(),
        };
        for (lake_name, generate) in lakes {
            let mut names = Vec::new();
            for seed in 1..=scale.seeds() {
                let lake = generate(seed);
                let systems = systems(lake_name, &lake);
                names = systems.iter().map(|s| s.as_ref().name()).collect();
                for &b in budgets {
                    let budget = Budget::per_table(b);
                    for (system, name) in systems.iter().map(AsRef::as_ref).zip(&names) {
                        if !system.applicable(&lake.dirty, budget) {
                            continue;
                        }
                        let r = run_once(system, &lake, budget);
                        sweep.rec.record_run(lake_name, name, b, seed, &r, &lake);
                        let key = (lake_name.to_string(), name.clone(), b.to_bits());
                        let sum = sweep.cells.entry(key).or_default();
                        sum.runs += 1;
                        sum.f1 += r.f1;
                        sum.precision += r.precision;
                        sum.recall += r.recall;
                        sum.seconds += r.seconds;
                        sum.labels += r.labels;
                        if !r.report.stages.is_empty() {
                            sweep.reports.insert(name.clone(), r.report);
                        }
                    }
                }
            }
            sweep.lakes.push((lake_name.to_string(), names));
        }
        for cell in sweep.cells.values_mut() {
            let k = cell.runs as f64;
            cell.f1 /= k;
            cell.precision /= k;
            cell.recall /= k;
            cell.seconds /= k;
            cell.labels /= cell.runs;
        }
        sweep
    }

    /// The systems swept on `lake`, in the experiment's order.
    pub fn systems(&self, lake: &str) -> &[String] {
        self.lakes.iter().find(|(name, _)| name == lake).map_or(&[], |(_, systems)| systems)
    }

    /// `system` on `lake` at `budget`; `None` where it did not run.
    pub fn cell(&self, lake: &str, system: &str, budget: f64) -> Option<&SweepCell> {
        self.cells.get(&(lake.to_string(), system.to_string(), budget.to_bits()))
    }

    /// The table [`Sweep::print_f1_table`] prints.
    fn f1_table(&self, lake: &str, extra: Option<Extra>) -> TextTable {
        let systems = self.systems(lake);
        let mut table = TextTable { header: vec!["tuples/table".to_string()], rows: Vec::new() };
        table.header.extend(systems.iter().cloned());
        if let Some(extra) = extra {
            let tag = match extra {
                Extra::Time => "time",
                Extra::Labels => "labels",
            };
            table.header.extend(systems.iter().map(|n| format!("{n} [{tag}]")));
        }
        for &b in &self.budgets {
            let cells: Vec<_> = systems.iter().map(|n| self.cell(lake, n, b)).collect();
            let mut row = vec![format!("{b}")];
            row.extend(cells.iter().map(|c| c.map_or("n/a".to_string(), |c| pct(c.f1))));
            if let Some(extra) = extra {
                row.extend(cells.iter().map(|c| match (c, extra) {
                    (None, _) => "n/a".to_string(),
                    (Some(c), Extra::Time) => secs(c.seconds),
                    (Some(c), Extra::Labels) => c.labels.to_string(),
                }));
            }
            table.row(row);
        }
        table
    }

    /// Precision, recall and F1 at `budget`, one row per system that ran
    /// there, under `system_heading`: on `lake`, or on every lake, each
    /// row led by the lake's name, when `lake` is `None`.
    pub fn prf_table(&self, lake: Option<&str>, budget: f64, system_heading: &str) -> TextTable {
        let mut header = vec![system_heading, "precision", "recall", "f1"];
        if lake.is_none() {
            header.insert(0, "lake");
        }
        let mut table = TextTable::new(&header);
        for (lake_name, systems) in &self.lakes {
            if lake.is_some_and(|l| l != lake_name) {
                continue;
            }
            for system in systems {
                let Some(c) = self.cell(lake_name, system, budget) else {
                    continue;
                };
                let mut row: Vec<String> =
                    lake.is_none().then(|| lake_name.clone()).into_iter().collect();
                row.extend([system.clone(), pct(c.precision), pct(c.recall), pct(c.f1)]);
                table.row(row);
            }
        }
        table
    }

    /// Prints F1 on `lake` under `--- <lake>: <caption> ---` and writes it
    /// as `<experiment>_<lake>.csv`: one row per budget, one column per
    /// system, then an `extra` column per system. A cell where the system
    /// did not run reads `n/a`.
    pub fn print_f1_table(&self, lake: &str, caption: &str, extra: Option<Extra>) {
        let table = self.f1_table(lake, extra);
        println!("--- {lake}: {caption} ---");
        println!("{}", table.render());
        let name = format!("{}_{}", self.rec.experiment, lake.to_lowercase().replace('-', "_"));
        let _ = table.write_csv(self.scale, &name);
    }

    /// Merges the sweep's rows into the eval matrix file, then prints
    /// each system's last stage report.
    pub fn finish(&self) -> std::io::Result<()> {
        self.rec.flush()?;
        for (name, report) in &self.reports {
            print_stage_report(name, report);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_baselines::raha::{Raha, RahaVariant};

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

    #[test]
    fn only_full_scale_writes_the_recorded_results() {
        assert_eq!(Scale::Full.results_dir(), Path::new("results"));
        assert_eq!(Scale::Quick.results_dir(), Path::new("results/quick"));
        assert_eq!(Scale::Small.results_dir(), Path::new("results/small"));
    }

    #[test]
    fn sweep_means_each_cell_over_its_recorded_runs() {
        let generate = |seed| QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(seed);
        let lakes: Vec<SweepLake> = vec![("Quintet", Box::new(generate))];
        // Raha-Standard needs a labeled tuple per table, so it skips 0.5.
        let budgets = [0.5, 2.0];
        let systems = |_: &str, _: &GeneratedLake| -> Vec<Box<dyn ErrorDetector>> {
            vec![Box::new(MateldaSystem::standard()), Box::new(Raha::new(RahaVariant::Standard))]
        };
        let scale = Scale::Small; // two seeds
        let sweep = Sweep::run("sweep_test", scale, &lakes, &budgets, systems);

        let mut expected_runs = Vec::new();
        for &b in &budgets {
            for system in systems("Quintet", &generate(1)) {
                let name = system.name();
                let mut runs = Vec::new();
                for seed in 1..=scale.seeds() {
                    let lake = generate(seed);
                    if system.applicable(&lake.dirty, Budget::per_table(b)) {
                        runs.push(run_once(system.as_ref(), &lake, Budget::per_table(b)));
                        expected_runs.push((name.clone(), b.to_bits(), seed));
                    }
                }
                let Some(cell) = sweep.cell("Quintet", &name, b) else {
                    assert!(runs.is_empty(), "{name} ran at {b} but has no cell");
                    continue;
                };
                let mean = |metric: fn(&RunResult) -> f64| {
                    runs.iter().map(metric).sum::<f64>() / runs.len() as f64
                };
                assert_eq!(cell.runs, runs.len());
                assert_eq!(cell.f1, mean(|r| r.f1), "{name} at {b}");
                assert_eq!(cell.precision, mean(|r| r.precision), "{name} at {b}");
                assert_eq!(cell.recall, mean(|r| r.recall), "{name} at {b}");
                assert_eq!(cell.labels, runs.iter().map(|r| r.labels).sum::<usize>() / runs.len());
                assert!(cell.seconds > 0.0);
            }
        }

        // The skipped cell renders `n/a`, and the P/R/F1 table leaves it out.
        let table = sweep.f1_table("Quintet", Some(Extra::Labels));
        assert_eq!(
            table.header[1..],
            ["Matelda", "Raha-Standard", "Matelda [labels]", "Raha-Standard [labels]"]
        );
        assert_eq!([&table.rows[0][2], &table.rows[0][4]], ["n/a", "n/a"]);
        assert!(table.rows[1].iter().all(|c| c != "n/a"));
        assert_eq!(sweep.prf_table(Some("Quintet"), 0.5, "system").rows.len(), 1);
        assert_eq!(sweep.prf_table(None, 2.0, "variant").rows.len(), 2);

        // Each run reached the recorder exactly once.
        let mut recorded: Vec<_> = sweep
            .rec
            .cells
            .iter()
            .filter(|c| c.error_type == eval::ALL)
            .map(|c| (c.system.clone(), c.budget.to_bits(), c.seed))
            .collect();
        recorded.sort();
        expected_runs.sort();
        assert_eq!(recorded, expected_runs);
        assert_eq!(recorded.len(), 6, "Matelda at both budgets, Raha at one, two seeds each");
    }
}
