//! Table 1 — Dataset characteristics.
//!
//! Prints the realized characteristics of every generated lake (number of
//! tables, total cells, measured cell error rate, injected error types),
//! mirroring the paper's Table 1. Row counts are scaled to laptop size
//! (DESIGN.md), so `#Cells` is smaller than the paper's; table counts,
//! error rates and type mixes match.

use matelda_baselines::Budget;
use matelda_bench::eval::EvalRecorder;
use matelda_bench::{print_stage_report, run_once, MateldaSystem, Scale, TextTable};
use matelda_lakegen::{DGovLake, GeneratedLake, GitTablesLake, QuintetLake, ReinLake, WdcLake};

fn describe(table: &mut TextTable, name: &str, lake: &GeneratedLake) {
    let types: Vec<&str> = lake.typed_errors.iter().map(|(n, _)| n.as_str()).collect();
    table.row(vec![
        name.to_string(),
        lake.dirty.n_tables().to_string(),
        lake.dirty.n_cells().to_string(),
        format!("{:.1}%", 100.0 * lake.error_rate()),
        types.join(", "),
    ]);
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Table 1: Dataset characteristics (scale: {scale:?}) ===\n");
    let mut t = TextTable::new(&["Name", "#Tables", "#Cells", "Error Rate", "Error Types"]);

    describe(&mut t, "Quintet", &QuintetLake::default().generate(1));
    describe(&mut t, "REIN", &ReinLake::default().generate(1));
    describe(&mut t, "DGov-NTR", &DGovLake::ntr().with_n_tables(scale.tables(143)).generate(1));
    describe(&mut t, "DGov-NT", &DGovLake::nt().with_n_tables(scale.tables(159)).generate(1));
    describe(&mut t, "DGov-NO", &DGovLake::no().with_n_tables(scale.tables(96)).generate(1));
    describe(&mut t, "DGov-Typo", &DGovLake::typo().with_n_tables(scale.tables(96)).generate(1));
    describe(&mut t, "DGov-RV", &DGovLake::rv().with_n_tables(scale.tables(96)).generate(1));
    describe(&mut t, "DGov-1K", &DGovLake::dgov_1k().with_n_tables(scale.tables(1173)).generate(1));
    describe(
        &mut t,
        "WDC",
        &WdcLake { n_tables: scale.tables(100), ..WdcLake::default() }.generate(1),
    );
    describe(
        &mut t,
        "GitTables",
        &GitTablesLake::default().with_n_tables(scale.tables(1000)).generate(1),
    );

    println!("{}", t.render());
    let _ = t.write_csv(scale, "table1_datasets");

    // One instrumented pipeline run on the smallest lake, so the dataset
    // table also records what the stages cost on it.
    let quintet = QuintetLake::default().generate(1);
    let r = run_once(&MateldaSystem::standard(), &quintet, Budget::per_table(2.0));
    let mut rec = EvalRecorder::for_experiment("table1", scale);
    rec.record_run("Quintet", "Matelda", 2.0, 1, &r, &quintet);
    rec.flush().expect("write EVAL matrix");
    print_stage_report("Matelda on Quintet (2 tuples/table)", &r.report);
    println!();

    println!("paper Table 1 (for comparison): Quintet 5 tables/9%; REIN 8/13%;");
    println!("DGov-NTR 143/16%; DGov-NT 159/15%; DGov-NO 96/2%; DGov-Typo 96/9%;");
    println!("DGov-RV 96/8%; DGov-1K 1173/unknown; WDC 100/unknown; GitTables 1000/unknown.");
}
