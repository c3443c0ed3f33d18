//! Golden result digests: the refactoring oracle.
//!
//! Every other digest test compares two runs of the same build, so a
//! change that shifts the bits of every run alike would pass them all.
//! This one pins [`DetectionResult::digest`] to constants recorded from a
//! known-good build, for every paper variant and for degraded runs under
//! [`FaultPolicy::Skip`]. A refactor must leave every constant as it is.
//!
//! Runs use two executor threads; other tests pin thread invariance.
//! Every run holds a `faultpoint::arm` guard (fault-free runs arm an
//! empty plan), because the plan is process-global.
//!
//! [`DetectionResult::digest`]: matelda_core::DetectionResult::digest

use matelda_core::domain_fold::DomainFolding;
use matelda_core::{FaultPolicy, LabelingStrategy, Matelda, MateldaConfig, TrainingStrategy};
use matelda_detect::FeatureConfig;
use matelda_exec::faultpoint;
use matelda_lakegen::{DGovLake, GeneratedLake, QuintetLake};
use matelda_ml::{ClassifierKind, RandomForestConfig};
use matelda_table::oracle::Oracle;

/// One pinned run: a label, its configuration and the faults it arms.
struct Case {
    name: &'static str,
    config: MateldaConfig,
    faults: &'static [(&'static str, usize)],
}

fn case(name: &'static str, config: MateldaConfig) -> Case {
    Case { name, config, faults: &[] }
}

fn skip(
    name: &'static str,
    config: MateldaConfig,
    faults: &'static [(&'static str, usize)],
) -> Case {
    Case { name, config: MateldaConfig { on_error: FaultPolicy::Skip, ..config }, faults }
}

/// The variant matrix, in the order the expected digests are listed.
fn cases() -> Vec<Case> {
    let d = MateldaConfig::default;
    let features = |features: FeatureConfig| MateldaConfig { features, ..d() };
    vec![
        case("default", d()),
        case("edf", MateldaConfig { domain_folding: DomainFolding::ExtremeDomainFolding, ..d() }),
        case("rs(0.3)", MateldaConfig { domain_folding: DomainFolding::RowSampling(0.3), ..d() }),
        case("santos", MateldaConfig { domain_folding: DomainFolding::SantosLike, ..d() }),
        case(
            "santos-sketch(64)",
            MateldaConfig { domain_folding: DomainFolding::SantosSketch(64), ..d() },
        ),
        case("+sf", MateldaConfig { syntactic_refinement: true, ..d() }),
        case("tpdf", MateldaConfig { training: TrainingStrategy::PerDomainFold, ..d() }),
        case("tucf", MateldaConfig { training: TrainingStrategy::UnlabeledCellFolds, ..d() }),
        case(
            "uncertainty",
            MateldaConfig { labeling: LabelingStrategy::UncertaintyRefinement, ..d() },
        ),
        case(
            "random-forest",
            MateldaConfig {
                classifier: ClassifierKind::RandomForest(RandomForestConfig::default()),
                ..d()
            },
        ),
        case("nod", features(FeatureConfig::no_outliers())),
        case("nrvd", features(FeatureConfig::no_rules())),
        case(
            "deviations",
            features(FeatureConfig {
                tf_eq2_literal: true,
                fd_whole_group: true,
                no_null_flag: true,
                ..FeatureConfig::default()
            }),
        ),
        skip(
            "skip-faults",
            d(),
            &[
                ("embed", 1),
                ("featurize", 2),
                ("quality_folds", 0),
                ("classify", 1),
                ("timeout:classify", 3),
            ],
        ),
        skip(
            "skip-tpdf-faults",
            MateldaConfig { training: TrainingStrategy::PerDomainFold, ..d() },
            &[("classify", 0), ("quality_folds", 1)],
        ),
        skip("skip-mem-budget", MateldaConfig { mem_budget_bytes: Some(64), ..d() }, &[]),
    ]
}

/// Runs every case on `lake` and asserts each digest, reporting every
/// mismatch at once.
fn assert_digests(lake_name: &str, lake: &GeneratedLake, expected: &[(&str, u64)]) {
    let cases = cases();
    assert_eq!(cases.len(), expected.len(), "{lake_name}: one digest per case");
    let budget = 2 * lake.dirty.n_columns();
    let mut mismatches = Vec::new();
    for (case, &(name, want)) in cases.into_iter().zip(expected) {
        assert_eq!(case.name, name, "{lake_name}: expected digests out of order");
        let _guard = faultpoint::arm(case.faults.iter().map(|&(s, i)| (s.to_string(), i)));
        let config = MateldaConfig { threads: 2, ..case.config };
        let mut oracle = Oracle::new(&lake.errors);
        let got = Matelda::new(config).detect(&lake.dirty, &mut oracle, budget).digest();
        if got != want {
            mismatches.push(format!("{name}: got {got:016x}, want {want:016x}"));
        }
    }
    assert!(mismatches.is_empty(), "{lake_name} digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn quintet_digests_are_pinned() {
    let lake = QuintetLake { rows_per_table: 40, error_rate: 0.09 }.generate(11);
    assert_digests(
        "quintet",
        &lake,
        &[
            ("default", 0x6630d2df45d43d42),
            ("edf", 0xf0743eefa481dbdb),
            ("rs(0.3)", 0x6630d2df45d43d42),
            ("santos", 0x6630d2df45d43d42),
            ("santos-sketch(64)", 0x6630d2df45d43d42),
            ("+sf", 0xdd6563bccca307f2),
            ("tpdf", 0x6630d2df45d43d42),
            ("tucf", 0xb592db375f8ea3f7),
            ("uncertainty", 0xa1b6e89d1b0fc43f),
            ("random-forest", 0x51a2018ac6c13e2e),
            ("nod", 0x834b0c861275100f),
            ("nrvd", 0x29e07016a3253485),
            ("deviations", 0x8fe87ab32e8dda0a),
            ("skip-faults", 0xc0a51afafa614054),
            ("skip-tpdf-faults", 0x1a9f0f51170e7342),
            ("skip-mem-budget", 0xf0743eefa481dbdb),
        ],
    );
}

#[test]
fn dgov_digests_are_pinned() {
    let lake = DGovLake::ntr().with_n_tables(12).generate(9);
    assert_digests(
        "dgov",
        &lake,
        &[
            ("default", 0xc2e05f89d96b93aa),
            ("edf", 0x1021dd3ecb41db5f),
            ("rs(0.3)", 0x03728aec57b39d89),
            ("santos", 0x5d186e0a07012c17),
            ("santos-sketch(64)", 0xfe31919526ee00b4),
            ("+sf", 0x146ced34d23a235f),
            ("tpdf", 0xd09e1da78ceaec1d),
            ("tucf", 0x59372ec109b2c0a4),
            ("uncertainty", 0x4e7bcc05b9cc2156),
            ("random-forest", 0xe2038fa4fd2f4427),
            ("nod", 0x1775f848591a87b0),
            ("nrvd", 0xad6a69ecea23af73),
            ("deviations", 0x06e38e34a6f0c372),
            ("skip-faults", 0x88ef4b7cf4b61227),
            ("skip-tpdf-faults", 0x06075786174c48bd),
            ("skip-mem-budget", 0x1021dd3ecb41db5f),
        ],
    );
}
