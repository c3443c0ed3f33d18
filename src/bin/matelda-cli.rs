//! `matelda-cli` — run multi-table error detection from the command line.
//!
//! ```text
//! matelda-cli generate <dir> [--lake quintet|rein|dgov-ntr|wdc|gittables] [--seed N] [--tables N]
//!     Write a synthetic benchmark lake: <dir>/dirty/*.csv + <dir>/clean/*.csv
//!
//! matelda-cli generate <dir> --scale quick|full|large-ci|large [--seed N]
//!     Write a scale-tier lake (up to hundreds of tables, ≥10⁷ cells)
//!     straight to <dir>/*.csv, one table resident at a time — the lake
//!     never has to fit in memory. Dirty only; ground truth is reported
//!     as a summary, not as clean files.
//!
//! matelda-cli detect <dirty-dir> --clean <clean-dir> [--budget-cells N] [--variant <v>]
//!                    [--threads N] [--mem-budget-bytes N] [--report] [--repair]
//!                    [--read strict|repair|skip] [--on-error fail|skip]
//!                    [--max-quarantined N]
//!                    [--checkpoint-dir <dir>] [--resume] [--stage-timeout-ms N]
//!                    [--trace <dir>] [--metrics] [--failure-report <dir>]
//!     Load the dirty lake, answer Matelda's label requests from the clean
//!     lake (the oracle protocol of the paper's experiments), print the
//!     detection report and, because ground truth is available, P/R/F1.
//!     Variants: standard (default), edf, rs, santos, sf, tpdf, tucf.
//!     --threads N sizes the run's persistent thread pool
//!     (default: available parallelism; 1 = fully inline, no pool
//!     threads); output is bit-identical at any thread count.
//!     --mem-budget-bytes N caps dense O(n²) allocations (the HDBSCAN
//!     mutual-reachability matrix): an over-budget stage degrades per
//!     --on-error instead of OOM-aborting the process.
//!     --report prints the per-stage RunReport as JSON on stdout,
//!     including the structured fault log of a degraded run.
//!     --read chooses the ingestion mode: strict fails on the first
//!     malformed CSV (default), repair salvages ragged rows / bad UTF-8,
//!     skip quarantines unparseable files.
//!     --on-error skip quarantines faulted tables/folds/columns and
//!     completes the run instead of aborting (default: fail).
//!     --max-quarantined N exits non-zero when a degraded run quarantines
//!     more than N tables.
//!     --checkpoint-dir <dir> commits an atomic snapshot of every
//!     completed stage; --resume validates the manifest there and skips
//!     stages with intact snapshots (bit-identical to an uninterrupted
//!     run); --stage-timeout-ms N arms a per-stage watchdog deadline.
//!     --trace <dir> writes trace.json (chrome://tracing), events.jsonl
//!     and metrics.json into <dir> — even when the run fails, so a
//!     degraded or aborted run leaves its diagnostics behind; exit codes
//!     are unchanged. --metrics prints the metrics registry as JSON.
//!     Tracing never changes results: output is bit-identical with and
//!     without it, at any thread count.
//!     --failure-report <dir> writes a per-run failure analysis
//!     (failure_report.md + failure_report.json) into <dir>: exemplar
//!     misclassified cells with their values, ground-truth error types
//!     (inferred from the dirty/clean diff), fired detector features,
//!     quality folds and propagated labels. With --checkpoint-dir and
//!     --resume the report is the same as for an uninterrupted run.
//!
//! matelda-cli profile <dir> [--read strict|repair|skip]
//!     Table/column statistics and approximate FDs of a lake directory.
//! ```
//!
//! Exit codes are part of the contract (see [`CliError`] and `--help`):
//! 0 success, 1 runtime failure, 2 bad arguments, 3 ingest failure,
//! 4 quarantine ceiling exceeded, 5 checkpoint rejected.

use matelda::core::{
    analyze_failures, CkptError, Durability, FaultPolicy, Matelda, MateldaConfig, Obs, Oracle,
};
use matelda::fd::mine_approximate;
use matelda::lakegen::{DGovLake, GitTablesLake, QuintetLake, ReinLake, WdcLake};
use matelda::table::{diff_lakes, Confusion, IngestReport, Lake, ReadOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// A failure carrying the process exit code scripts rely on. The mapping
/// is documented in `--help` and asserted by `tests/cli_integration.rs`.
#[derive(Debug)]
enum CliError {
    /// Malformed invocation: unknown subcommand, flag value or number.
    /// Exit 2.
    Usage(String),
    /// The lake could not be loaded (or dirty/clean disagree). Exit 3.
    Ingest(String),
    /// A degraded run quarantined more tables than `--max-quarantined`
    /// allows. Exit 4.
    Quarantine(String),
    /// A checkpoint was corrupt or written under different inputs —
    /// rejected, never silently reused. Exit 5.
    Checkpoint(CkptError),
    /// Any other runtime failure. Exit 1.
    Runtime(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Runtime(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Ingest(_) => 3,
            CliError::Quarantine(_) => 4,
            CliError::Checkpoint(_) => 5,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Ingest(m)
            | CliError::Quarantine(m)
            | CliError::Runtime(m) => f.write_str(m),
            CliError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl From<CkptError> for CliError {
    fn from(e: CkptError) -> Self {
        CliError::Checkpoint(e)
    }
}

const HELP: &str = "\
matelda-cli — multi-table error detection (MaTElDa reproduction)

usage:
  matelda-cli generate <dir> [--lake quintet|rein|dgov-ntr|dgov-nt|wdc|gittables]
                             [--seed N] [--tables N]
  matelda-cli generate <dir> --scale quick|full|large-ci|large [--seed N]
  matelda-cli detect <dirty-dir> --clean <clean-dir> [--budget-cells N]
                     [--variant standard|edf|rs|santos|sf|tpdf|tucf]
                     [--threads N] [--mem-budget-bytes N] [--report] [--repair]
                     [--read strict|repair|skip] [--on-error fail|skip]
                     [--max-quarantined N]
                     [--checkpoint-dir <dir>] [--resume] [--stage-timeout-ms N]
                     [--trace <dir>] [--metrics] [--failure-report <dir>]
  matelda-cli profile <dir> [--read strict|repair|skip]

durability flags (detect):
  --checkpoint-dir <dir>  commit a snapshot of every completed stage into
                          <dir> (atomic tmp+fsync+rename), plus a manifest
                          binding the run's config, lake fingerprint, seed
                          and label budget
  --resume                validate the manifest in --checkpoint-dir and
                          skip every stage with an intact snapshot; the
                          resumed output is bit-identical to an
                          uninterrupted run, at any --threads value
  --stage-timeout-ms N    per-stage watchdog deadline: items past it become
                          per-item faults (degrade under --on-error skip,
                          abort under fail; committed checkpoints survive)

observability flags (detect):
  --trace <dir>           write trace.json (chrome://tracing span tree),
                          events.jsonl (run event log) and metrics.json
                          (counters/gauges/histograms) into <dir>; written
                          best-effort even when the run fails, without
                          changing the exit code. Tracing never changes
                          results: bit-identical output at any --threads.
  --metrics               print the metrics registry as JSON on stdout

failure analysis (detect):
  --failure-report <dir>  write failure_report.md + failure_report.json:
                          exemplar misclassified cells (false negatives
                          and false positives) with value, column, table,
                          inferred ground-truth error type, the detector
                          features that fired, the cell's quality fold,
                          its labeled anchor and the propagated label.
                          Works with --checkpoint-dir/--resume: a resumed
                          run writes the same report.

exit codes:
  0  success
  1  runtime failure
  2  bad arguments (unknown subcommand, flag or value)
  3  lake ingestion failed
  4  degraded run quarantined more tables than --max-quarantined
  5  checkpoint rejected: corrupt snapshot or manifest mismatch
     (a stale or foreign checkpoint is never silently reused)
";

fn main() -> ExitCode {
    // Chaos-test hook: MATELDA_FAULTPOINTS arms deterministic stage
    // faults in this process (no-op when unset).
    matelda::exec::faultpoint::arm_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        other => Err(CliError::Usage(format!(
            "usage: matelda-cli <generate|detect|profile> ... (--help for details){}",
            other.map_or(String::new(), |o| format!("; got {o:?}"))
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

type CliResult = Result<(), CliError>;

/// Splits positional args from `--key value` flags. A flag followed by
/// another `--flag` (or by nothing) is boolean and maps to `""`, so
/// `--resume --report` parses as two flags, not one flag with a value.
fn parse_flags(args: &[String]) -> (Vec<&str>, HashMap<&str, &str>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key, args[i + 1].as_str());
                i += 2;
            } else {
                flags.insert(key, "");
                i += 1;
            }
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    (positional, flags)
}

/// Rejects any flag a subcommand does not know (exit 2): a typo like
/// `--thread 4` must fail loudly, not silently run with the default.
fn check_flags(flags: &HashMap<&str, &str>, known: &[&str]) -> Result<(), CliError> {
    let mut unknown: Vec<&str> = flags.keys().filter(|k| !known.contains(*k)).copied().collect();
    unknown.sort_unstable();
    match unknown.first() {
        None => Ok(()),
        Some(flag) => Err(CliError::Usage(format!(
            "unknown flag --{flag} (known: {})",
            known.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(", ")
        ))),
    }
}

/// Parses an optional `--key value` flag, mapping a parse failure to a
/// [`CliError::Usage`] that names the flag.
fn parse_flag<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    key: &str,
) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e| CliError::Usage(format!("bad value for --{key} {raw:?}: {e}"))),
    }
}

fn cmd_generate(args: &[String]) -> CliResult {
    let (pos, flags) = parse_flags(args);
    check_flags(&flags, &["lake", "seed", "tables", "scale"])?;
    let dir = PathBuf::from(
        pos.first().ok_or_else(|| CliError::Usage("generate: missing <dir>".into()))?,
    );
    let seed: u64 = parse_flag(&flags, "seed")?.unwrap_or(1);
    let kind = flags.get("lake").copied().unwrap_or("quintet");
    let tables: Option<usize> = parse_flag(&flags, "tables")?;

    // The scale tiers stream straight to disk — a different code path
    // from the in-memory generators, without a clean-lake pair.
    if let Some(tier_name) = flags.get("scale").copied() {
        if flags.contains_key("lake") || flags.contains_key("tables") {
            return Err(CliError::Usage(
                "--scale picks its own lake shape; it is incompatible with --lake/--tables".into(),
            ));
        }
        let tier = matelda::lakegen::ScaleTier::parse(tier_name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown --scale tier {tier_name:?} (quick|full|large-ci|large)"
            ))
        })?;
        let on_disk = matelda::lakegen::ScaleLake::new(tier)
            .generate_to_disk(seed, &dir)
            .map_err(|e| CliError::Runtime(format!("writing {}: {e}", dir.display())))?;
        println!(
            "wrote {} tables ({} cells, {:.1}% erroneous, {} CSV bytes) at tier `{}` to {}/",
            on_disk.n_tables,
            on_disk.n_cells,
            100.0 * on_disk.errors.rate(),
            on_disk.bytes_written,
            tier.name(),
            dir.display()
        );
        return Ok(());
    }

    let lake = match kind {
        "quintet" => QuintetLake::default().generate(seed),
        "rein" => ReinLake::default().generate(seed),
        "dgov-ntr" => DGovLake::ntr().with_n_tables(tables.unwrap_or(24)).generate(seed),
        "dgov-nt" => DGovLake::nt().with_n_tables(tables.unwrap_or(24)).generate(seed),
        "wdc" => WdcLake { n_tables: tables.unwrap_or(20), ..WdcLake::default() }.generate(seed),
        "gittables" => GitTablesLake::default().with_n_tables(tables.unwrap_or(50)).generate(seed),
        other => return Err(CliError::Usage(format!("unknown lake kind {other:?}"))),
    };

    for (sub, side) in [("dirty", &lake.dirty), ("clean", &lake.clean)] {
        matelda::table::write_lake_to_dir(side, &dir.join(sub))
            .map_err(|e| CliError::Runtime(format!("writing {}: {e}", dir.join(sub).display())))?;
    }
    println!(
        "wrote {} tables ({} cells, {:.1}% erroneous) to {}/{{dirty,clean}}/",
        lake.dirty.n_tables(),
        lake.dirty.n_cells(),
        100.0 * lake.error_rate(),
        dir.display()
    );
    Ok(())
}

/// The `--read` flag: how malformed CSV files are treated on ingest.
fn read_options(flags: &HashMap<&str, &str>) -> Result<ReadOptions, CliError> {
    match flags.get("read").copied().unwrap_or("strict") {
        "strict" => Ok(ReadOptions::strict()),
        "repair" => Ok(ReadOptions::repair()),
        "skip" => Ok(ReadOptions::skip()),
        other => {
            Err(CliError::Usage(format!("unknown --read mode {other:?} (strict|repair|skip)")))
        }
    }
}

/// Loads every CSV of a directory into a lake, sorted by file name, under
/// the given ingestion options. Failures exit with the ingest code (3).
fn load_lake(dir: &Path, options: &ReadOptions) -> Result<(Lake, IngestReport), CliError> {
    matelda::table::read_lake_from_dir_with(dir, options)
        .map_err(|e| CliError::Ingest(format!("ingest {}: {e}", dir.display())))
}

/// Prints what tolerant ingestion had to do, if anything.
fn print_ingest_notes(label: &str, report: &IngestReport) {
    for f in report.repaired() {
        println!("note: {label} {} loaded after repairs", f.path.display());
    }
    for f in report.skipped() {
        println!("note: {label} {} skipped (unparseable)", f.path.display());
    }
}

fn cmd_detect(args: &[String]) -> CliResult {
    let (pos, flags) = parse_flags(args);
    check_flags(
        &flags,
        &[
            "clean",
            "read",
            "on-error",
            "max-quarantined",
            "checkpoint-dir",
            "resume",
            "stage-timeout-ms",
            "budget-cells",
            "threads",
            "mem-budget-bytes",
            "variant",
            "report",
            "repair",
            "trace",
            "metrics",
            "failure-report",
        ],
    )?;
    let dirty_dir = PathBuf::from(
        pos.first().ok_or_else(|| CliError::Usage("detect: missing <dirty-dir>".into()))?,
    );
    let clean_dir =
        PathBuf::from(flags.get("clean").filter(|d| !d.is_empty()).ok_or_else(|| {
            CliError::Usage("detect: --clean <dir> is required (labels + evaluation)".into())
        })?);
    let read = read_options(&flags)?;
    let on_error = match flags.get("on-error").copied().unwrap_or("fail") {
        "fail" => FaultPolicy::Fail,
        "skip" => FaultPolicy::Skip,
        other => {
            return Err(CliError::Usage(format!("unknown --on-error policy {other:?} (fail|skip)")))
        }
    };
    let max_quarantined: usize = parse_flag(&flags, "max-quarantined")?.unwrap_or(usize::MAX);
    let checkpoint_dir = match flags.get("checkpoint-dir").copied() {
        Some("") => {
            return Err(CliError::Usage("--checkpoint-dir requires a directory path".into()))
        }
        Some(d) => Some(PathBuf::from(d)),
        None => None,
    };
    let resume = flags.contains_key("resume");
    if resume && checkpoint_dir.is_none() {
        return Err(CliError::Usage("--resume requires --checkpoint-dir <dir>".into()));
    }
    let stage_timeout = parse_flag::<u64>(&flags, "stage-timeout-ms")?.map(Duration::from_millis);
    let trace_dir = match flags.get("trace").copied() {
        Some("") => return Err(CliError::Usage("--trace requires a directory path".into())),
        Some(d) => Some(PathBuf::from(d)),
        None => None,
    };
    let want_metrics = flags.contains_key("metrics");
    let failure_report_dir = match flags.get("failure-report").copied() {
        Some("") => {
            return Err(CliError::Usage("--failure-report requires a directory path".into()))
        }
        Some(d) => Some(PathBuf::from(d)),
        None => None,
    };

    let (dirty, dirty_ingest) = load_lake(&dirty_dir, &read)?;
    let (clean, _clean_ingest) = load_lake(&clean_dir, &read)?;
    print_ingest_notes("dirty", &dirty_ingest);
    if dirty.n_tables() != clean.n_tables() {
        return Err(CliError::Ingest("dirty and clean lakes have different table counts".into()));
    }
    let budget: usize = parse_flag(&flags, "budget-cells")?.unwrap_or(2 * dirty.n_columns());

    // threads = 0 means "available parallelism" (the executor's default).
    let threads: usize = parse_flag(&flags, "threads")?.unwrap_or(0);
    let mem_budget_bytes: Option<u64> = parse_flag(&flags, "mem-budget-bytes")?;
    let mut config =
        MateldaConfig { threads, on_error, stage_timeout, mem_budget_bytes, ..Default::default() };
    config
        .apply_variant(flags.get("variant").copied().unwrap_or("standard"))
        .map_err(CliError::Usage)?;

    let truth = diff_lakes(&dirty, &clean);
    let mut oracle = Oracle::new(&truth);
    let durability = Durability { checkpoint_dir, resume, ..Default::default() };
    let start = std::time::Instant::now();
    // Under `--on-error fail` the engine aborts by panicking at the first
    // fault (incl. a blown --stage-timeout-ms deadline). That is the
    // documented runtime-failure class: map it to exit 1, not a raw
    // panic trace with exit 101.
    let obs = if trace_dir.is_some() || want_metrics { Obs::enabled() } else { Obs::disabled() };
    let pipeline = Matelda::new(config).with_obs(obs.clone());
    // The explained run keeps the stage artifacts for the failure report;
    // a resumed run restores them from its snapshots.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pipeline.detect_explained(&dirty, &mut oracle, budget, &durability)
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("stage fault");
        CliError::Runtime(format!("run aborted (--on-error fail): {msg}"))
    });
    // Export the trace before propagating any failure: a degraded or
    // aborted run leaves its diagnostics behind (spans up to the fault
    // are closed by unwinding). Best-effort — an unwritable trace dir
    // warns but never masks the run's own exit code.
    if let Some(dir) = &trace_dir {
        match obs.write_dir(dir) {
            Ok(()) => println!("trace written to {}", dir.display()),
            Err(e) => eprintln!("warning: writing trace to {}: {e}", dir.display()),
        }
    }
    let (result, artifacts) = outcome??;
    let elapsed = start.elapsed();

    println!(
        "detected in {:.2}s — {} labels over {} domain folds / {} quality folds ({} threads)",
        elapsed.as_secs_f64(),
        result.labels_used,
        result.n_domain_folds,
        result.n_quality_folds,
        result.report.threads
    );
    println!("digest: {:016x}", result.digest());
    if flags.contains_key("report") {
        println!("{}", result.report.to_json());
    }
    if want_metrics {
        println!("{}", obs.metrics_json());
    }
    let quarantine = &result.quarantine;
    if !quarantine.is_empty() {
        println!(
            "degraded run: {} table(s) quarantined, {} column fallback(s), {} fold fallback(s)",
            quarantine.tables.len(),
            quarantine.columns.len(),
            quarantine.fold_fallbacks.len()
        );
    }
    println!("\nper-table report:");
    for (t, table) in dirty.tables.iter().enumerate() {
        let hits = result.predicted.iter_set().filter(|id| id.table == t).count();
        let mark = if quarantine.table_quarantined(t) { "  [quarantined]" } else { "" };
        println!(
            "  {:<28} {:>5} suspicious / {:>6} cells{mark}",
            table.name,
            hits,
            table.n_cells()
        );
    }
    // Quarantined tables are unscored, not clean — evaluate only over
    // the tables the run actually scored.
    let (predicted, truth_scored) = (
        result.predicted.without_tables(&quarantine.tables),
        truth.without_tables(&quarantine.tables),
    );
    let conf = Confusion::from_masks(&predicted, &truth_scored);
    let scope = if quarantine.tables.is_empty() { "" } else { " (scored tables only)" };
    println!(
        "\nevaluation vs clean{scope}: precision {:.1}%  recall {:.1}%  f1 {:.1}%",
        100.0 * conf.precision(),
        100.0 * conf.recall(),
        100.0 * conf.f1()
    );
    if let Some(dir) = &failure_report_dir {
        // Ground-truth error types are not on disk — recover them from
        // the (dirty, clean) diff via the mutation signatures.
        let typed = matelda::errorgen::infer_typed_masks(&dirty, &clean);
        let report = analyze_failures(&dirty, &result, &truth, &typed, &artifacts, 10);
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Runtime(format!("creating {}: {e}", dir.display())))?;
        for (name, contents) in [
            ("failure_report.md", report.render_markdown()),
            ("failure_report.json", report.render_json()),
        ] {
            std::fs::write(dir.join(name), contents)
                .map_err(|e| CliError::Runtime(format!("writing {name}: {e}")))?;
        }
        println!(
            "failure report ({} false negative(s), {} false positive(s), {} exemplar(s)) \
             written to {}",
            report.n_false_negatives,
            report.n_false_positives,
            report.exemplars.len(),
            dir.display()
        );
    }
    if quarantine.tables.len() > max_quarantined {
        return Err(CliError::Quarantine(format!(
            "{} tables quarantined, more than --max-quarantined {max_quarantined}",
            quarantine.tables.len()
        )));
    }

    if flags.contains_key("repair") {
        let spell = matelda::text::SpellChecker::english();
        let repairs = matelda::core::suggest_repairs(&dirty, &result.predicted, &spell);
        let restored = repairs.iter().filter(|r| r.proposed == clean.cell(r.cell)).count();
        println!(
            "\nrepair suggestions: {} proposed, {} ({:.0}%) restore the clean value exactly",
            repairs.len(),
            restored,
            100.0 * restored as f64 / repairs.len().max(1) as f64
        );
        for r in repairs.iter().take(10) {
            println!(
                "  [{:?} conf {:.2}] {}[{}][{}]: {:?} -> {:?}",
                r.strategy,
                r.confidence,
                dirty[r.cell.table].name,
                r.cell.row,
                dirty[r.cell.table].columns[r.cell.col].name,
                r.current,
                r.proposed
            );
        }
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> CliResult {
    let (pos, flags) = parse_flags(args);
    check_flags(&flags, &["read"])?;
    let dir =
        PathBuf::from(pos.first().ok_or_else(|| CliError::Usage("profile: missing <dir>".into()))?);
    let (lake, ingest) = load_lake(&dir, &read_options(&flags)?)?;
    print_ingest_notes("profile", &ingest);
    println!(
        "{}: {} tables, {} columns, {} cells",
        dir.display(),
        lake.n_tables(),
        lake.n_columns(),
        lake.n_cells()
    );
    for table in &lake.tables {
        println!("\n{} ({} rows):", table.name, table.n_rows());
        for profile in matelda::table::profile_table(table) {
            let extra = match &profile.numeric {
                Some(s) => format!("range [{:.4}, {:.4}] mean {:.4}", s.min, s.max, s.mean),
                None => format!(
                    "top {:?}",
                    profile.top_values.iter().map(|(v, _)| v.as_str()).take(3).collect::<Vec<_>>()
                ),
            };
            println!(
                "  {:<24} {:?} distinct {} complete {:.0}% {}",
                profile.name,
                profile.data_type,
                profile.n_distinct,
                100.0 * profile.completeness(),
                extra
            );
        }
        let fds = mine_approximate(table, 0.05);
        if !fds.is_empty() {
            let named: Vec<String> = fds
                .iter()
                .take(8)
                .map(|fd| format!("{}→{}", table.columns[fd.lhs].name, table.columns[fd.rhs].name))
                .collect();
            println!(
                "  FDs (≤5% error): {}{}",
                named.join(", "),
                if fds.len() > 8 { ", …" } else { "" }
            );
        }
    }
    Ok(())
}
