//! Figure 8 — Training-phase design analysis.
//!
//! Matelda (one classifier per column) vs. Matelda-TPDF (one per domain
//! fold) vs. Matelda-TUCF (per-fold with 2k quality folds, half
//! unlabeled) on Quintet and DGov-NTR — F1 and runtime.

use matelda_bench::{budget_axis, quintet_and_dgov_ntr, Extra, MateldaSystem, Scale, Sweep};
use matelda_core::{MateldaConfig, TrainingStrategy};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::standard(),
        MateldaSystem::variant(
            "Matelda-TPDF",
            MateldaConfig { training: TrainingStrategy::PerDomainFold, ..Default::default() },
        ),
        MateldaSystem::variant(
            "Matelda-TUCF",
            MateldaConfig { training: TrainingStrategy::UnlabeledCellFolds, ..Default::default() },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 8: Training strategies (scale: {scale:?}) ===\n");

    let lakes = quintet_and_dgov_ntr(scale);
    let sweep = Sweep::run("fig8", scale, &lakes, &budget_axis(scale), |_, _| variants());
    for (lake_name, _) in &lakes {
        sweep.print_f1_table(lake_name, "F1 and runtime per training strategy", Some(Extra::Time));
    }
    sweep.finish().expect("write EVAL matrix");
    println!();

    println!("shape checks (paper §4.5.4): Matelda and TPDF deliver the best F1;");
    println!("the standard per-column training is the most runtime-efficient of the");
    println!("two; TUCF is fastest but loses F1 to unlabeled folds.");
}
