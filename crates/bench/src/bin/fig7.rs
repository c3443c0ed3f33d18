//! Figure 7 — Quality-based cell folding: feature impact analysis.
//!
//! Matelda with all features vs. Matelda-NOD (no outlier detectors), -NTD
//! (no typo detector) and -NRVD (no rule-violation detectors) on Quintet
//! and DGov-NTR.

use matelda_bench::{budget_axis, quintet_and_dgov_ntr, MateldaSystem, Scale, Sweep};
use matelda_core::MateldaConfig;
use matelda_detect::FeatureConfig;

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::standard(),
        MateldaSystem::variant(
            "Matelda-NOD",
            MateldaConfig { features: FeatureConfig::no_outliers(), ..Default::default() },
        ),
        MateldaSystem::variant(
            "Matelda-NTD",
            MateldaConfig { features: FeatureConfig::no_typos(), ..Default::default() },
        ),
        MateldaSystem::variant(
            "Matelda-NRVD",
            MateldaConfig { features: FeatureConfig::no_rules(), ..Default::default() },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 7: Quality-fold feature ablations (scale: {scale:?}) ===\n");

    let lakes = quintet_and_dgov_ntr(scale);
    let sweep = Sweep::run("fig7", scale, &lakes, &budget_axis(scale), |_, _| variants());
    for (lake_name, _) in &lakes {
        sweep.print_f1_table(lake_name, "F1 per feature configuration", None);
    }
    sweep.finish().expect("write EVAL matrix");
    println!();

    println!("shape checks (paper §4.5.3): full features win for most budgets;");
    println!("NOD is consistently the worst ablation; the typo/rule detectors'");
    println!("benefit grows with budget on DGov-NTR.");
}
