//! Table 3 — Recall in capturing different error types in Quintet.
//!
//! The paper labels every Quintet error with a type (MV / REP / SEM /
//! TYP), runs each system with two labeled tuples per table, and reports
//! per-type recall plus total precision/recall. Here the generator's
//! injection report provides the typed masks directly (MV = missing
//! values, REP = formatting issues, SEM = FD violations, TYP = typos).

use matelda_baselines::holodetect::HoloDetect;
use matelda_baselines::raha::{Raha, RahaVariant};
use matelda_baselines::{Budget, ErrorDetector};
use matelda_bench::eval::{paper_category, EvalRecorder};
use matelda_bench::{
    pct, print_stage_report, run_once, MateldaSystem, RunReport, Scale, TextTable,
};
use matelda_lakegen::QuintetLake;
use matelda_table::PerTypeRecall;

fn main() {
    let scale = Scale::from_env();
    let seeds = scale.seeds();
    println!("=== Table 3: Recall per error type on Quintet (2 labeled tuples/table) ===\n");

    let systems: Vec<Box<dyn ErrorDetector>> = vec![
        Box::new(MateldaSystem::standard()),
        Box::new(Raha::new(RahaVariant::Standard)),
        Box::new(HoloDetect::default()),
    ];
    let budget = Budget::per_table(2.0);
    let categories = ["MV", "REP", "SEM", "TYP"];
    let mut rec = EvalRecorder::for_experiment("table3", scale);

    let mut table =
        TextTable::new(&["System", "MV", "REP", "SEM", "TYP", "Total Precision", "Total Recall"]);
    // Last per-stage report per system, printed once at the end.
    let mut last_report: Vec<(String, RunReport)> = Vec::new();
    for system in &systems {
        let mut recall_sums = [0.0f64; 4];
        let mut recall_counts = [0usize; 4];
        let (mut p_sum, mut r_sum) = (0.0f64, 0.0f64);
        for seed in 1..=seeds {
            let lake = QuintetLake::default().generate(seed);
            let r = run_once(system.as_ref(), &lake, budget);
            rec.record_run("Quintet", &system.name(), 2.0, seed, &r, &lake);
            p_sum += r.precision;
            r_sum += r.recall;
            let typed: Vec<(String, matelda_table::CellMask)> = lake
                .typed_errors
                .iter()
                .map(|(n, m)| (paper_category(n).to_string(), m.clone()))
                .collect();
            let per = PerTypeRecall::compute(&r.predicted, &typed);
            if seed == seeds {
                last_report.push((system.name(), r.report));
            }
            for tr in &per.recalls {
                let Some(recall) = tr.recall else {
                    continue; // no errors of this type in this lake
                };
                if let Some(i) = categories.iter().position(|c| *c == tr.name) {
                    recall_sums[i] += recall;
                    recall_counts[i] += 1;
                }
            }
        }
        let k = seeds as f64;
        let mut row = vec![system.name()];
        for i in 0..4 {
            row.push(if recall_counts[i] > 0 {
                pct(recall_sums[i] / recall_counts[i] as f64)
            } else {
                "n/a".to_string()
            });
        }
        row.push(pct(p_sum / k));
        row.push(pct(r_sum / k));
        table.row(row);
    }
    println!("{}", table.render());
    let _ = table.write_csv(scale, "table3_quintet_error_types");
    rec.flush().expect("write EVAL matrix");

    for (name, report) in &last_report {
        print_stage_report(name, report);
    }
    println!();

    println!("shape checks (paper Table 3):");
    println!("  * Matelda leads every column; MV recall highest (~95%), REP high (~84%),");
    println!("    SEM moderate (~44%), TYP low (~14%);");
    println!("  * HoloDetect's total recall collapses (paper: 2%).");
}
