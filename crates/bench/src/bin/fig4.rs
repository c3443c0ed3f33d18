//! Figure 4 — Ablation study on error types.
//!
//! Matelda vs. the strongest baselines (Raha variants, ASPELL) on three
//! single-error-type lakes: DGov-NO (numeric outliers only), DGov-Typo
//! (formatting & typos only), DGov-RV (rule violations only), sweeping the
//! labeling budget.

use matelda_baselines::aspell::Aspell;
use matelda_baselines::raha::{Raha, RahaVariant};
use matelda_baselines::ErrorDetector;
use matelda_bench::{budget_axis, MateldaSystem, Scale, Sweep, SweepLake};
use matelda_lakegen::DGovLake;

fn systems() -> Vec<Box<dyn ErrorDetector>> {
    vec![
        Box::new(MateldaSystem::standard()),
        Box::new(Raha::new(RahaVariant::Standard)),
        Box::new(Raha::new(RahaVariant::RandomTables)),
        Box::new(Raha::new(RahaVariant::TwoLabelsPerCol)),
        Box::new(Raha::new(RahaVariant::TwentyLabelsPerCol)),
        Box::new(Aspell::new()),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 4: Ablation on error types (scale: {scale:?}) ===\n");

    let n = scale.tables(96);
    let lakes: Vec<SweepLake> = vec![
        ("DGov-NO", Box::new(move |s| DGovLake::no().with_n_tables(n).generate(s))),
        ("DGov-Typo", Box::new(move |s| DGovLake::typo().with_n_tables(n).generate(s))),
        ("DGov-RV", Box::new(move |s| DGovLake::rv().with_n_tables(n).generate(s))),
    ];
    let sweep = Sweep::run("fig4", scale, &lakes, &budget_axis(scale), |_, _| systems());
    for (lake_name, _) in &lakes {
        sweep.print_f1_table(lake_name, "F1 vs labeling budget", None);
    }
    sweep.finish().expect("write EVAL matrix");
    println!();

    println!("shape checks (paper §4.4):");
    println!("  * DGov-NO: Matelda above all baselines at every budget;");
    println!("  * DGov-Typo: Matelda ahead once ~0.3 tuples/table are labeled; Raha");
    println!("    catches up above ~15;");
    println!("  * DGov-RV: Matelda ≈ Raha from 1 tuple/table on (rule features work");
    println!("    across tables); ASPELL flat and weak everywhere except DGov-Typo.");
}
