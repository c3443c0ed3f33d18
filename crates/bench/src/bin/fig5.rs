//! Figure 5 — Folding strategies impact.
//!
//! Matelda-Standard vs. Matelda-EDF (extreme domain folding: everything in
//! one fold) vs. Matelda+SF (syntactic refinement of domain folds) on
//! Quintet and DGov-NTR, plus the runtime note §4.5.1 makes (EDF is up to
//! ~8× slower on DGov-NTR).

use matelda_bench::{budget_axis, quintet_and_dgov_ntr, Extra, MateldaSystem, Scale, Sweep};
use matelda_core::{DomainFolding, MateldaConfig};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::standard(),
        MateldaSystem::variant(
            "Matelda-EDF",
            MateldaConfig {
                domain_folding: DomainFolding::ExtremeDomainFolding,
                ..Default::default()
            },
        ),
        MateldaSystem::variant(
            "Matelda+SF",
            MateldaConfig { syntactic_refinement: true, ..Default::default() },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 5: Folding strategies impact (scale: {scale:?}) ===\n");

    let lakes = quintet_and_dgov_ntr(scale);
    let sweep = Sweep::run("fig5", scale, &lakes, &budget_axis(scale), |_, _| variants());
    for (lake_name, _) in &lakes {
        let caption = "F1 and runtime per folding strategy";
        sweep.print_f1_table(lake_name, caption, Some(Extra::Time));
    }
    sweep.finish().expect("write EVAL matrix");
    println!();

    println!("shape checks (paper §4.5.1): on Quintet the three variants are close;");
    println!("on DGov-NTR Standard ≈ EDF in F1 and both beat +SF; EDF runtime is a");
    println!("multiple of Standard's on DGov-NTR (paper: up to 8×).");
}
