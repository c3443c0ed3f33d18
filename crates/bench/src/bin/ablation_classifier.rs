//! Classifier ablation — gradient boosting (the paper's pick, "which has
//! shown robust performance") vs a bagged random forest as the per-column
//! learner, on Quintet and DGov-NTR across the budget axis.
//!
//! This extends §4.5 with the learner dimension the Raha line of work
//! explored before settling on boosting.

use matelda_bench::{budget_axis, quintet_and_dgov_ntr, Extra, MateldaSystem, Scale, Sweep};
use matelda_core::MateldaConfig;
use matelda_ml::{ClassifierKind, RandomForestConfig};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::variant("Matelda (GBM)", MateldaConfig::default()),
        MateldaSystem::variant(
            "Matelda (RF)",
            MateldaConfig {
                classifier: ClassifierKind::RandomForest(RandomForestConfig::default()),
                ..Default::default()
            },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Classifier ablation: GBM vs Random Forest (scale: {scale:?}) ===\n");

    let lakes = quintet_and_dgov_ntr(scale);
    let sweep =
        Sweep::run("ablation_classifier", scale, &lakes, &budget_axis(scale), |_, _| variants());
    for (lake_name, _) in &lakes {
        sweep.print_f1_table(lake_name, "F1 and runtime per classifier", Some(Extra::Time));
    }
    sweep.finish().expect("write EVAL matrix");
    println!();

    println!("expected: the two learners land close in F1 (the features and the");
    println!("propagated labels dominate), with boosting usually a touch ahead —");
    println!("consistent with the paper's 'robust performance' justification.");
}
