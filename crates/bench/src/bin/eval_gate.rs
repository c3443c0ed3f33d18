//! CI accuracy-regression gate (see `crates/bench/src/eval.rs`).
//!
//! ```text
//! eval_gate --baseline EVAL_matrix.json --fresh fresh.json \
//!     [--max-drop-pct 10]
//! ```
//!
//! Compares a freshly assembled accuracy matrix against the committed
//! baseline and exits non-zero listing every violated contract clause:
//! a per-cell F1 or recall drop beyond the band, a missing cell, or a
//! NaN / out-of-`[0, 1]` metric.

use matelda_bench::eval::{compare_eval, EvalGateConfig};
use matelda_bench::json::Json;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline = None;
    let mut fresh = None;
    let mut cfg = EvalGateConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--fresh" => fresh = Some(value("--fresh")?),
            "--max-drop-pct" => {
                cfg.max_drop_pct = value("--max-drop-pct")?
                    .parse()
                    .map_err(|_| "--max-drop-pct needs a number".to_string())?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let baseline_path = baseline.ok_or("--baseline is required")?;
    let fresh_path = fresh.ok_or("--fresh is required")?;

    let violations = compare_eval(&load(&baseline_path)?, &load(&fresh_path)?, cfg);
    if violations.is_empty() {
        println!(
            "eval gate PASS: {fresh_path} within {limit}% of {baseline_path}",
            limit = cfg.max_drop_pct
        );
        return Ok(true);
    }
    eprintln!("eval gate FAIL: {n} violation(s)", n = violations.len());
    for v in &violations {
        eprintln!("  - {v}");
    }
    Ok(false)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("eval_gate: {e}");
            eprintln!(
                "usage: eval_gate --baseline <committed.json> --fresh <fresh.json> \
                 [--max-drop-pct N]"
            );
            ExitCode::FAILURE
        }
    }
}
