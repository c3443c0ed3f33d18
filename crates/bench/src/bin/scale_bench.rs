//! The out-of-core check at the fixed `large-ci` tier (150 tables,
//! ~1.19 M cells): generates the tier's lake straight to disk, converts
//! it to the columnar layout, runs the out-of-core path at 1/2/4 threads
//! and the in-memory path once, and exits nonzero listing every check
//! that fails:
//!
//! * the out-of-core digest is the same at 1/2/4 threads and equals the
//!   in-memory digest, and the streamed lake fingerprint equals the
//!   materialized lake's;
//! * the materialized columnar lake has as many cells as the generator
//!   wrote;
//! * the 1-thread leg's peak RSS is at most 5× the columnar lake's
//!   on-disk bytes.
//!
//! Every leg labels with the generator's truth (`Oracle`, keyed by cell
//! id, so the out-of-core and in-memory paths get the same labels). When
//! every check passes, the 1-thread leg's accuracy is recorded as the
//! `scale_bench` / `large-ci` row of `EVAL_matrix.json`
//! (`MATELDA_EVAL_OUT` overrides the path, as for every experiment
//! binary), and `eval_gate` compares it with the committed row.
//!
//! Peak RSS is `VmHWM`, which never decreases, so it is read right after
//! the 1-thread leg: the 2- and 4-thread legs hold more tables at once,
//! and the in-memory leg materializes the lake. A streaming run keeps
//! the featurized lake resident (one 4-byte pattern code per cell plus
//! each table's pattern table) and, from quality folding on, one 4-byte
//! quality-fold index per clustered cell, against ~14 columnar bytes
//! per cell. A 1-thread run peaks near 3.1× the lake, so a change that
//! doubles its peak breaks the budget.
//!
//! ```text
//! cargo run --release -p matelda-bench --bin scale_bench
//! ```

use matelda_bench::eval::EvalRecorder;
use matelda_bench::{secs, Scale};
use matelda_ckpt::dir_bytes;
use matelda_core::{Matelda, MateldaConfig, OutOfCoreOpts};
use matelda_lakegen::{ScaleLake, ScaleTier};
use matelda_obs::{ProcMemory, Stopwatch};
use matelda_table::chunked::{csv_dir_to_columnar, read_lake_columnar, DEFAULT_CHUNK_LEN};
use matelda_table::{lake_fingerprint, Confusion, Oracle, StdFs};
use std::process::ExitCode;

/// The 1-thread leg's peak RSS budget, in multiples of the columnar
/// lake's on-disk size.
const RSS_BUDGET_LAKES: u64 = 5;

fn main() -> ExitCode {
    let tier = ScaleTier::LargeCi;
    println!("=== scale bench: out-of-core detection at tier `{}` ===\n", tier.name());
    let work = std::env::temp_dir().join(format!("matelda_scale_bench_{}", std::process::id()));
    let (csv_dir, columnar_dir, spill_dir) =
        (work.join("csv"), work.join("columnar"), work.join("spill"));
    let _ = std::fs::remove_dir_all(&work);

    // Generate the dirty lake straight to disk, one table resident at a
    // time, then convert it to columnar, still one table at a time.
    let clock = Stopwatch::start();
    let on_disk = ScaleLake::new(tier).generate_to_disk(1, &csv_dir).expect("generate lake");
    println!(
        "generated {} tables / {} cells / {} CSV bytes in {}",
        on_disk.n_tables,
        on_disk.n_cells,
        on_disk.bytes_written,
        secs(clock.elapsed_secs())
    );
    let fs = StdFs;
    let clock = Stopwatch::start();
    let n = csv_dir_to_columnar(&fs, &csv_dir, &columnar_dir, DEFAULT_CHUNK_LEN)
        .expect("columnar conversion");
    assert_eq!(n, on_disk.n_tables);
    let lake_bytes = dir_bytes(&columnar_dir).expect("columnar lake size");
    println!("converted to columnar in {}", secs(clock.elapsed_secs()));

    let budget = 2 * on_disk.n_tables;
    let opts = OutOfCoreOpts::new(&spill_dir);
    let mut failures = Vec::new();
    let mut one_thread = None;
    let mut peak_rss = None;
    for threads in [1usize, 2, 4] {
        let clock = Stopwatch::start();
        let run = Matelda::new(MateldaConfig { threads, ..MateldaConfig::default() })
            .detect_out_of_core(
                &fs,
                &columnar_dir,
                &mut Oracle::new(&on_disk.errors),
                budget,
                &opts,
            )
            .expect("out-of-core detection");
        let digest = run.result.digest();
        println!("out-of-core @{threads}t: digest {digest:016x}, {}", secs(clock.elapsed_secs()));
        match &one_thread {
            None => {
                peak_rss = ProcMemory::read().map(|m| m.hwm_bytes);
                one_thread = Some(run);
            }
            Some(first) => {
                let first = first.result.digest();
                if digest != first {
                    failures.push(format!(
                        "@{threads}t digest {digest:016x} differs from the 1-thread {first:016x}"
                    ));
                }
            }
        }
    }
    let run = one_thread.expect("the 1-thread leg ran");
    let digest = run.result.digest();
    let rss_budget = RSS_BUDGET_LAKES * lake_bytes;
    match peak_rss {
        Some(peak) => {
            println!(
                "\n1-thread peak RSS {peak} bytes, {:.1}x the {lake_bytes} byte columnar lake (budget {rss_budget})",
                peak as f64 / lake_bytes as f64,
            );
            if peak > rss_budget {
                failures.push(format!("1-thread peak RSS {peak} exceeds the budget {rss_budget}"));
            }
        }
        None => println!("\npeak RSS unreadable here (no /proc/self/status): budget not checked"),
    }

    // The in-memory leg: the equivalence anchor.
    let lake = read_lake_columnar(&fs, &columnar_dir, DEFAULT_CHUNK_LEN).expect("materialize");
    if lake.n_cells() != on_disk.n_cells {
        failures.push(format!(
            "the columnar lake has {} cells, the generator wrote {}",
            lake.n_cells(),
            on_disk.n_cells
        ));
    }
    if run.fingerprint != lake_fingerprint(&lake) {
        failures.push("the streamed lake fingerprint differs from the materialized lake's".into());
    }
    let in_memory = Matelda::new(MateldaConfig { threads: 1, ..MateldaConfig::default() })
        .detect(&lake, &mut Oracle::new(&on_disk.errors), budget)
        .digest();
    println!("in-memory digest {in_memory:016x}");
    if in_memory != digest {
        failures.push(format!(
            "the out-of-core digest {digest:016x} differs from the in-memory {in_memory:016x}"
        ));
    }
    let _ = std::fs::remove_dir_all(&work);

    // Reported before scoring: a lake of another shape than the truth
    // mask would stop `Confusion::from_masks` with a panic.
    if !failures.is_empty() {
        eprintln!("\nscale bench FAILED: {} check(s)", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        return ExitCode::FAILURE;
    }
    let conf = Confusion::from_masks(&run.result.predicted, &on_disk.errors);
    println!(
        "accuracy: precision {:.4} recall {:.4} f1 {:.4}",
        conf.precision(),
        conf.recall(),
        conf.f1()
    );
    let mut rec = EvalRecorder::for_experiment("scale_bench", Scale::LargeCi);
    rec.record_metrics("scale", "Matelda", 2.0, 1, conf.precision(), conf.recall(), conf.f1());
    rec.flush().expect("flush eval matrix");
    println!("\nscale bench PASSED");
    ExitCode::SUCCESS
}
