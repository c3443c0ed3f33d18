//! Cross-crate integration tests: the full Matelda pipeline over generated
//! lakes, exercising every layer (lakegen → errorgen → detect → cluster →
//! ml → core) together.

use matelda::core::{DomainFolding, Matelda, MateldaConfig, Oracle, TrainingStrategy};
use matelda::detect::FeatureConfig;
use matelda::lakegen::{DGovLake, QuintetLake, ReinLake};
use matelda::table::Confusion;

fn f1_of(config: MateldaConfig, lake: &matelda::lakegen::GeneratedLake, budget: usize) -> f64 {
    let mut oracle = Oracle::new(&lake.errors);
    let result = Matelda::new(config).detect(&lake.dirty, &mut oracle, budget);
    Confusion::from_masks(&result.predicted, &lake.errors).f1()
}

#[test]
fn quintet_end_to_end_beats_random_guessing() {
    let lake = QuintetLake { rows_per_table: 80, ..Default::default() }.generate(11);
    let budget = 2 * lake.dirty.n_columns();
    let f1 = f1_of(MateldaConfig::default(), &lake, budget);
    // Random guessing at the 9% error rate yields F1 ≈ 0.16 at best.
    assert!(f1 > 0.35, "end-to-end f1 {f1} too low");
}

#[test]
fn more_labels_do_not_hurt_much() {
    // F1 at 5 tuples/table should comfortably exceed F1 at a half tuple.
    let lake = QuintetLake { rows_per_table: 80, ..Default::default() }.generate(3);
    let small = f1_of(MateldaConfig::default(), &lake, lake.dirty.n_columns() / 2);
    let large = f1_of(MateldaConfig::default(), &lake, 5 * lake.dirty.n_columns());
    assert!(large > small, "budget increase should help: {small} -> {large}");
}

#[test]
fn rein_lake_detection_works() {
    let lake = ReinLake { rows_per_table: 60, ..Default::default() }.generate(5);
    let f1 = f1_of(MateldaConfig::default(), &lake, 2 * lake.dirty.n_columns());
    assert!(f1 > 0.4, "REIN f1 {f1}");
}

#[test]
fn multi_domain_lake_forms_multiple_folds() {
    let lake = DGovLake::ntr().with_n_tables(24).generate(9);
    let mut oracle = Oracle::new(&lake.errors);
    let result = Matelda::new(MateldaConfig::default()).detect(
        &lake.dirty,
        &mut oracle,
        2 * lake.dirty.n_columns(),
    );
    assert!(result.n_domain_folds > 1, "24 tables over many domains should fold");
    assert!(result.n_domain_folds < 24, "identical-domain tables should share folds");
}

#[test]
fn edf_variant_is_close_to_standard_in_f1() {
    // Paper §4.5.1: dropping domain folding barely changes effectiveness
    // (it changes runtime).
    let lake = DGovLake::ntr().with_n_tables(16).generate(2);
    let budget = 2 * lake.dirty.n_columns();
    let standard = f1_of(MateldaConfig::default(), &lake, budget);
    let edf = f1_of(
        MateldaConfig { domain_folding: DomainFolding::ExtremeDomainFolding, ..Default::default() },
        &lake,
        budget,
    );
    assert!((standard - edf).abs() < 0.25, "standard {standard} vs EDF {edf}");
}

#[test]
fn ablations_run_and_nod_hurts_on_outlier_lake() {
    // On an outlier-only lake, removing the outlier detectors must hurt.
    let lake = DGovLake::no().with_n_tables(16).generate(4);
    let budget = 3 * lake.dirty.n_columns();
    let full = f1_of(MateldaConfig::default(), &lake, budget);
    let nod = f1_of(
        MateldaConfig { features: FeatureConfig::no_outliers(), ..Default::default() },
        &lake,
        budget,
    );
    assert!(full > nod, "full {full} should beat NOD {nod} on DGov-NO");
}

#[test]
fn training_strategies_all_produce_reasonable_results() {
    let lake = QuintetLake { rows_per_table: 60, ..Default::default() }.generate(8);
    let budget = 3 * lake.dirty.n_columns();
    for strategy in [
        TrainingStrategy::PerColumn,
        TrainingStrategy::PerDomainFold,
        TrainingStrategy::UnlabeledCellFolds,
    ] {
        let f1 = f1_of(MateldaConfig { training: strategy, ..Default::default() }, &lake, budget);
        assert!(f1 > 0.2, "strategy {strategy:?} f1 {f1}");
    }
}

#[test]
fn labels_never_exceed_budget() {
    // Since the per-fold floor was clamped, the budget is a hard ceiling.
    let lake = QuintetLake { rows_per_table: 40, ..Default::default() }.generate(1);
    let budget = 2 * lake.dirty.n_columns();
    let mut oracle = Oracle::new(&lake.errors);
    let result = Matelda::new(MateldaConfig::default()).detect(&lake.dirty, &mut oracle, budget);
    assert!(result.labels_used <= budget);
}

/// Snapshot of the single-threaded staged run on `QuintetLake { rows: 40 }
/// .generate(7)` at 2 tuples/table, equal to the pre-refactor monolith's
/// output on the same lake. Guards both the refactor (stage composition
/// changes nothing) and the determinism contract (thread count changes
/// nothing).
#[test]
fn staged_engine_is_bit_identical_across_thread_counts() {
    let lake = QuintetLake { rows_per_table: 40, ..Default::default() }.generate(7);
    let budget = 2 * lake.dirty.n_columns();
    let run = |threads: usize| {
        let mut oracle = Oracle::new(&lake.errors);
        Matelda::new(MateldaConfig { threads, ..Default::default() }).detect(
            &lake.dirty,
            &mut oracle,
            budget,
        )
    };

    let single = run(1);
    assert_eq!(single.predicted.count(), 115);
    assert_eq!(single.labels_used, 66);
    assert_eq!(single.n_domain_folds, 5);
    assert_eq!(single.n_quality_folds, 66);

    for threads in [2, 4, 8] {
        let multi = run(threads);
        assert_eq!(multi.predicted, single.predicted, "mask differs at {threads} threads");
        assert_eq!(multi.labels_used, single.labels_used);
        assert_eq!(multi.n_domain_folds, single.n_domain_folds);
        assert_eq!(multi.n_quality_folds, single.n_quality_folds);
        assert_eq!(multi.report.threads, threads);
    }
}
