//! Labeling-strategy ablation — an *extension experiment* beyond the
//! paper: §6 names "minimizing user labeling efforts" as future work, so
//! we test the obvious active-learning idea (spend half the budget on
//! centroid labels, train preliminary models, spend the rest on the most
//! uncertain folds and split folds on contradicting labels) against the
//! paper's protocol at equal label counts.
//!
//! Result (negative, and worth knowing): the paper's protocol wins. Fold
//! *granularity* — every label buying one more quality fold — is worth
//! more than targeted refinement; halving the fold count costs more F1
//! than uncertainty sampling wins back. This empirically supports the
//! paper's design of tying cluster count to the labeling budget.

use matelda_bench::{budget_axis, quintet_and_dgov_ntr, Extra, MateldaSystem, Scale, Sweep};
use matelda_core::{LabelingStrategy, MateldaConfig};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::variant("centroid-per-fold (paper)", MateldaConfig::default()),
        MateldaSystem::variant(
            "uncertainty-refinement",
            MateldaConfig {
                labeling: LabelingStrategy::UncertaintyRefinement,
                ..Default::default()
            },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Labeling-strategy ablation (extension; scale: {scale:?}) ===\n");

    let lakes = quintet_and_dgov_ntr(scale);
    let sweep =
        Sweep::run("ablation_labeling", scale, &lakes, &budget_axis(scale), |_, _| variants());
    for (lake_name, _) in &lakes {
        sweep.print_f1_table(
            lake_name,
            "F1 per labeling strategy (equal label counts)",
            Some(Extra::Labels),
        );
    }
    sweep.finish().expect("write EVAL matrix");
    println!();

    println!("expected: the paper's protocol leads at every budget — fold");
    println!("granularity beats targeted refinement (a negative result for the");
    println!("natural active-learning extension).");
}
