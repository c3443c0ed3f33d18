//! Property-based tests over the core data structures and invariants,
//! spanning crates (proptest).

use matelda::cluster::kmeans::MiniBatchKMeansConfig;
use matelda::cluster::matrix::euclidean;
use matelda::cluster::{agglomerative, Hdbscan, MiniBatchKMeans, NOISE};
use matelda::core::{LabelingStrategy, Matelda, MateldaConfig, Oracle, TrainingStrategy};
use matelda::embed::MinHashSketch;
use matelda::errorgen::{inject, ErrorSpec};
use matelda::exec::Executor;
use matelda::lakegen::QuintetLake;
use matelda::ml::{GradientBoostingClassifier, GradientBoostingConfig};
use matelda::table::profile::ColumnProfile;
use matelda::table::{csv, diff_lakes, CellId, CellMask, Column, Labeler, Lake, Table};
use matelda::text::{damerau_levenshtein, levenshtein};
use proptest::prelude::*;

/// Strategy: a small table of printable cells.
fn arb_table() -> impl Strategy<Value = Table> {
    let cell = "[ -~]{0,12}"; // printable ASCII, short
    (2usize..6, 2usize..20).prop_flat_map(move |(cols, rows)| {
        proptest::collection::vec(proptest::collection::vec(cell, rows), cols).prop_map(
            move |columns| {
                Table::new(
                    "t",
                    columns
                        .into_iter()
                        .enumerate()
                        .map(|(i, values)| Column::new(format!("c{i}"), values))
                        .collect(),
                )
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_round_trips_any_table(table in arb_table()) {
        let text = csv::write_table(&table);
        let back = csv::parse_table("t", &text).expect("own output parses");
        prop_assert_eq!(table, back);
    }

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,10}", b in "[a-z]{0,10}", c in "[a-z]{0,10}") {
        // Symmetry, identity, triangle inequality.
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Damerau never exceeds Levenshtein.
        prop_assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b));
    }

    #[test]
    fn mask_algebra_laws(cells_a in proptest::collection::vec((0usize..4, 0usize..8), 0..16),
                         cells_b in proptest::collection::vec((0usize..4, 0usize..8), 0..16)) {
        let table = Table::new("t", (0..4).map(|i| Column::new(format!("c{i}"), vec!["x"; 8])).collect());
        let lake = Lake::new(vec![table]);
        let a = CellMask::from_cells(&lake, cells_a.iter().map(|&(c, r)| CellId::new(0, r, c)));
        let b = CellMask::from_cells(&lake, cells_b.iter().map(|&(c, r)| CellId::new(0, r, c)));
        // |A| = |A∧B| + |A∖B|
        prop_assert_eq!(a.count(), a.and(&b).count() + a.minus(&b).count());
        // |A∨B| = |A| + |B| - |A∧B|
        prop_assert_eq!(a.or(&b).count(), a.count() + b.count() - a.and(&b).count());
        // Idempotence and commutativity.
        prop_assert_eq!(a.and(&a).count(), a.count());
        prop_assert_eq!(a.or(&b).count(), b.or(&a).count());
    }

    #[test]
    fn injection_report_matches_diff(seed in 0u64..500, rate in 0.01f64..0.4) {
        let clean = Table::new(
            "t",
            vec![
                Column::new("id", (0..30).map(|i| i.to_string())),
                Column::new("city", (0..30).map(|i| ["Paris", "Rome", "Oslo"][i % 3].to_string())),
                Column::new("country", (0..30).map(|i| ["France", "Italy", "Norway"][i % 3].to_string())),
                Column::new("n", (0..30).map(|i| (100 + 7 * i).to_string())),
            ],
        );
        let (dirty, report) = inject(&clean, &ErrorSpec::all_types(rate, seed));
        let lake_dirty = Lake::new(vec![dirty]);
        let lake_clean = Lake::new(vec![clean]);
        let mask = diff_lakes(&lake_dirty, &lake_clean);
        // The report and the diff agree exactly.
        prop_assert_eq!(mask.count(), report.len());
        for &(r, c, _) in &report.injected {
            prop_assert!(mask.get(CellId::new(0, r, c)));
        }
    }

    #[test]
    fn kmeans_assignments_are_valid(points in proptest::collection::vec(
        proptest::collection::vec(-100.0f32..100.0, 3), 1..40), k in 1usize..8, seed in 0u64..100) {
        let fit = MiniBatchKMeans::new(MiniBatchKMeansConfig { k, seed, ..Default::default() })
            .fit(&points);
        prop_assert_eq!(fit.assignments.len(), points.len());
        let n_centers = fit.centers.len();
        prop_assert!(n_centers <= k.max(1));
        for &a in &fit.assignments {
            prop_assert!(a < n_centers);
        }
    }

    #[test]
    fn hdbscan_labels_are_dense_or_noise(points in proptest::collection::vec(
        proptest::collection::vec(-50.0f32..50.0, 2), 0..30)) {
        let dist = |a: usize, b: usize| euclidean(&points[a], &points[b]);
        let labels = Hdbscan::default()
            .fit(points.len(), dist, &Executor::single(), None)
            .expect("no budget");
        prop_assert_eq!(labels.len(), points.len());
        let max = labels.iter().copied().max().unwrap_or(NOISE);
        for l in &labels {
            prop_assert!(*l == NOISE || (0..=max).contains(l));
        }
        // Every non-noise label in 0..=max actually occurs (dense).
        for want in 0..=max.max(0) {
            if max >= 0 {
                prop_assert!(labels.contains(&want));
            }
        }
    }

    #[test]
    fn agglomerative_respects_k(n in 1usize..25, k in 1usize..10, seed in 0u64..50) {
        // Pseudo-random but deterministic positions derived from the seed.
        let pos: Vec<f64> = (0..n).map(|i| {
            let h = (seed.wrapping_mul(31).wrapping_add(i as u64)).wrapping_mul(2654435761);
            (h % 1000) as f64 / 10.0
        }).collect();
        let labels = agglomerative(n, k, |a, b| (pos[a] - pos[b]).abs());
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        prop_assert!(distinct.len() <= k.clamp(1, n));
        prop_assert_eq!(labels.len(), n);
    }

    #[test]
    fn gbm_fits_its_training_data_when_separable(split in 1usize..19) {
        // Linearly separable by construction -> boosting must fit it.
        let x: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..20).map(|i| i >= split).collect();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        for (xi, &yi) in x.iter().zip(&y) {
            prop_assert_eq!(m.predict(xi), yi);
        }
    }

    #[test]
    fn minhash_estimates_stay_in_unit_interval_and_bound_error(
        a_size in 1usize..60, overlap in 0usize..40, seed in 0u64..50) {
        let overlap = overlap.min(a_size);
        let a: Vec<String> = (0..a_size).map(|i| format!("s{seed}_{i}")).collect();
        let b: Vec<String> = (a_size - overlap..a_size + 30)
            .map(|i| format!("s{seed}_{i}"))
            .collect();
        let sa = MinHashSketch::of(&a, 256);
        let sb = MinHashSketch::of(&b, 256);
        let est = sa.jaccard(&sb);
        prop_assert!((0.0..=1.0).contains(&est));
        // True Jaccard.
        let union = a_size + 30;
        let truth = overlap as f64 / union as f64;
        // 256 slots: allow a generous 5-sigma band (~0.16).
        prop_assert!((est - truth).abs() < 0.2, "est {est} vs true {truth}");
    }

    #[test]
    fn column_profile_invariants(values in proptest::collection::vec("[ -~]{0,8}", 0..40)) {
        let p = ColumnProfile::of(&Column::new("c", values.clone()));
        prop_assert_eq!(p.n_rows, values.len());
        prop_assert!(p.n_nulls <= p.n_rows);
        prop_assert!(p.n_distinct <= p.n_rows.max(1) || p.n_rows == 0);
        prop_assert!((0.0..=1.0).contains(&p.completeness()));
        prop_assert!(p.entropy_bits >= 0.0);
        let max_entropy = if p.n_rows == 0 { 0.0 } else { (p.n_rows as f64).log2() };
        prop_assert!(p.entropy_bits <= max_entropy + 1e-9);
        prop_assert!(p.top_values.len() <= 5);
        if let Some(s) = p.numeric {
            prop_assert!(s.min <= s.mean && s.mean <= s.max);
            prop_assert!(s.quartiles[0] <= s.quartiles[1] && s.quartiles[1] <= s.quartiles[2]);
        }
    }

    #[test]
    fn garbage_csv_never_panics_and_repair_stays_rectangular(
        bytes in proptest::collection::vec((0usize..256).prop_map(|b| b as u8), 0..300)) {
        // Arbitrary bytes — control characters, stray quotes, invalid
        // UTF-8 turned into replacement chars, half-records.
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // Strict parsing may reject the input but must never panic.
        let _ = csv::parse_table("t", &text);
        // Repair parsing: whatever it salvages is rectangular — every
        // row width agrees with the header.
        if let Ok((table, _)) = csv::parse_table_repair("t", &text) {
            for col in &table.columns {
                prop_assert_eq!(col.values.len(), table.n_rows());
            }
        }
    }

    #[test]
    fn confusion_counts_partition_the_lake(cells_t in proptest::collection::vec((0usize..3, 0usize..6), 0..10),
                                           cells_p in proptest::collection::vec((0usize..3, 0usize..6), 0..10)) {
        let table = Table::new("t", (0..3).map(|i| Column::new(format!("c{i}"), vec!["v"; 6])).collect());
        let lake = Lake::new(vec![table]);
        let truth = CellMask::from_cells(&lake, cells_t.iter().map(|&(c, r)| CellId::new(0, r, c)));
        let pred = CellMask::from_cells(&lake, cells_p.iter().map(|&(c, r)| CellId::new(0, r, c)));
        let conf = matelda::table::Confusion::from_masks(&pred, &truth);
        prop_assert_eq!(conf.tp + conf.fp + conf.fn_ + conf.tn, lake.n_cells());
    }

    // Metric identities backing the accuracy contract (DESIGN.md §13):
    // every derived metric is a finite number in [0, 1] for *any* mask
    // pair — including empty truth and empty predictions, where the
    // denominators vanish — so the eval matrix never records a NaN.
    #[test]
    fn derived_metrics_stay_in_unit_interval_and_finite(
        cells_t in proptest::collection::vec((0usize..3, 0usize..6), 0..12),
        cells_p in proptest::collection::vec((0usize..3, 0usize..6), 0..12)) {
        let table = Table::new("t", (0..3).map(|i| Column::new(format!("c{i}"), vec!["v"; 6])).collect());
        let lake = Lake::new(vec![table]);
        let truth = CellMask::from_cells(&lake, cells_t.iter().map(|&(c, r)| CellId::new(0, r, c)));
        let pred = CellMask::from_cells(&lake, cells_p.iter().map(|&(c, r)| CellId::new(0, r, c)));
        let conf = matelda::table::Confusion::from_masks(&pred, &truth);
        for (name, v) in [("precision", conf.precision()), ("recall", conf.recall()), ("f1", conf.f1())] {
            prop_assert!(v.is_finite(), "{name} = {v} is not finite");
            prop_assert!((0.0..=1.0).contains(&v), "{name} = {v} out of [0, 1]");
        }
    }

    // Swapping predicted and truth transposes the confusion matrix:
    // tp and tn are symmetric, fp and fn trade places — so precision
    // and recall trade places too.
    #[test]
    fn swapping_predicted_and_truth_transposes_the_confusion(
        cells_t in proptest::collection::vec((0usize..3, 0usize..6), 0..12),
        cells_p in proptest::collection::vec((0usize..3, 0usize..6), 0..12)) {
        let table = Table::new("t", (0..3).map(|i| Column::new(format!("c{i}"), vec!["v"; 6])).collect());
        let lake = Lake::new(vec![table]);
        let truth = CellMask::from_cells(&lake, cells_t.iter().map(|&(c, r)| CellId::new(0, r, c)));
        let pred = CellMask::from_cells(&lake, cells_p.iter().map(|&(c, r)| CellId::new(0, r, c)));
        let fwd = matelda::table::Confusion::from_masks(&pred, &truth);
        let rev = matelda::table::Confusion::from_masks(&truth, &pred);
        prop_assert_eq!(fwd.tp, rev.tp);
        prop_assert_eq!(fwd.tn, rev.tn);
        prop_assert_eq!(fwd.fp, rev.fn_);
        prop_assert_eq!(fwd.fn_, rev.fp);
        prop_assert_eq!(fwd.precision(), rev.recall());
        prop_assert_eq!(fwd.recall(), rev.precision());
    }
}

// Directory-level ingestion robustness: each case touches the file
// system, so the block runs a reduced case count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn garbage_files_never_break_tolerant_lake_ingestion(
        bytes in proptest::collection::vec((0usize..256).prop_map(|b| b as u8), 0..300)) {
        use matelda::table::{read_lake_from_dir_with, ReadOptions};
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "matelda_prop_ingest_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("garbage.csv"), &bytes).expect("write garbage");
        std::fs::write(dir.join("good.csv"), "a,b\n1,2\n3,4\n").expect("write good");
        for options in [ReadOptions::repair(), ReadOptions::skip()] {
            let loaded = read_lake_from_dir_with(&dir, &options);
            prop_assert!(loaded.is_ok(), "tolerant mode failed: {loaded:?}");
            let (lake, report) = loaded.unwrap();
            prop_assert_eq!(report.files.len(), 2);
            // The well-formed file always loads; every loaded table is
            // rectangular regardless of what the garbage parsed into.
            prop_assert!(lake.tables.iter().any(|t| t.name == "good"));
            for t in &lake.tables {
                for col in &t.columns {
                    prop_assert_eq!(col.values.len(), t.n_rows(), "{} ragged", t.name);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// Snapshot durability (DESIGN.md §6): encode → decode round-trips
// bit-identically for arbitrary stage artifacts, and decoding arbitrary
// truncated or garbled bytes is a structured error, never a panic or a
// bogus allocation.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_round_trips_arbitrary_artifacts_bit_identically(
        vecs in proptest::collection::vec(
            proptest::collection::vec((0u64..u64::MAX).prop_map(|b| f32::from_bits(b as u32)), 0..8),
            0..6),
        tables in proptest::collection::vec(0usize..32, 0..4),
        faults in proptest::collection::vec(("[a-z]{1,8}", 0usize..64, "[ -~]{0,16}"), 0..4),
        cut in 0.0f64..1.0,
    ) {
        use matelda::core::{decode_snapshot, encode_snapshot, CtxState, EmbeddedLake, ItemFault};
        let mut state = CtxState::default();
        state.quarantine.tables = tables;
        for (stage, index, message) in faults {
            state.faults.push(ItemFault { stage, index, message });
        }
        // f32s come from arbitrary bit patterns, so NaNs, infinities and
        // subnormals are all on the table — the codec must carry the
        // exact bits, not a formatted value.
        let artifact = EmbeddedLake::Vectors(vecs);
        let bytes = encode_snapshot(&state, &artifact);
        let (state2, artifact2) =
            decode_snapshot::<EmbeddedLake>(&bytes).expect("own encoding decodes");
        prop_assert_eq!(encode_snapshot(&state2, &artifact2), bytes.clone());
        // Any strict prefix (a torn write) must fail to decode.
        let cut = ((bytes.len() as f64) * cut) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_snapshot::<EmbeddedLake>(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn prediction_mask_snapshots_round_trip_bit_identically(
        dims in proptest::collection::vec((1usize..5, 1usize..6), 1..4),
        picks in proptest::collection::vec((0usize..4, 0usize..8, 0usize..8), 0..20),
    ) {
        use matelda::core::{decode_snapshot, encode_snapshot, CtxState, Predictions};
        let mut mask = CellMask::from_dims(dims.clone());
        for (t, r, c) in picks {
            let t = t % dims.len();
            let (rows, cols) = dims[t];
            mask.set(CellId::new(t, r % rows, c % cols), true);
        }
        let bytes = encode_snapshot(&CtxState::default(), &Predictions { mask });
        let (state, predictions) = decode_snapshot::<Predictions>(&bytes).expect("decodes");
        prop_assert_eq!(encode_snapshot(&state, &predictions), bytes);
    }

    #[test]
    fn featurized_lake_snapshots_round_trip_and_decode_only_canonical_bytes(
        tables in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..4, proptest::collection::vec(0usize..6, 48)),
            0..4,
        ),
        tail in proptest::collection::vec((0usize..256).prop_map(|b| b as u8), 0..64),
    ) {
        use matelda::core::{decode_snapshot, encode_snapshot, CtxState, FeaturizedLake};
        use matelda::detect::CellFeatures;
        // A small palette, so vectors repeat, holding -0.0 and a NaN
        // payload beside the {0,1} flags; zero rows and zero dims occur.
        const PALETTE: [u32; 6] = [0, 0x3F80_0000, 0x8000_0000, 0x7FC0_0042, 0x3F00_0000, 0];
        let features: Vec<CellFeatures> = tables
            .iter()
            .map(|(n_cols, n_rows, dim, picks)| {
                let flat = (0..n_cols * n_rows * dim)
                    .map(|i| f32::from_bits(PALETTE[picks[i % picks.len()]]))
                    .collect();
                CellFeatures::from_flat(*n_cols, *n_rows, *dim, flat)
            })
            .collect();
        let artifact = FeaturizedLake { features };
        let state = CtxState::default();
        let bytes = encode_snapshot(&state, &artifact);
        let (state2, back) = decode_snapshot::<FeaturizedLake>(&bytes).expect("own encoding decodes");
        prop_assert_eq!(encode_snapshot(&state2, &back), bytes.clone());
        let bits = |f: &CellFeatures| f.to_flat().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for (a, b) in artifact.features.iter().zip(&back.features) {
            prop_assert_eq!((a.n_cols, a.n_rows, a.dim), (b.n_cols, b.n_rows, b.dim));
            prop_assert_eq!(bits(a), bits(b));
        }
        // Every strict prefix (a torn write) fails to decode.
        for cut in 0..bytes.len() {
            prop_assert!(decode_snapshot::<FeaturizedLake>(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Every byte of the real encoding overwritten with a small value
        // (so a code or a count often stays in range), and arbitrary
        // bytes after the empty context state: whatever decodes
        // re-encodes to exactly itself, and so do its values re-interned
        // by `from_flat` (a repeated, unused or out-of-order pattern
        // would not).
        let overwritten = (0..bytes.len() * 4).map(|i| {
            let mut b = bytes.clone();
            b[i / 4] = (i % 4) as u8;
            b
        });
        for candidate in overwritten.chain([[&[0u8; 5][..], &tail].concat()]) {
            if let Ok((state, artifact)) = decode_snapshot::<FeaturizedLake>(&candidate) {
                prop_assert_eq!(encode_snapshot(&state, &artifact), candidate.clone());
                let rebuilt = artifact
                    .features
                    .iter()
                    .map(|f| CellFeatures::from_flat(f.n_cols, f.n_rows, f.dim, f.to_flat()))
                    .collect();
                let rebuilt = FeaturizedLake { features: rebuilt };
                prop_assert_eq!(encode_snapshot(&state, &rebuilt), candidate);
            }
        }
    }

    #[test]
    fn quality_fold_snapshots_round_trip_and_decode_only_consistent_bytes(
        domain_folds in proptest::collection::vec(
            (
                (0usize..4, 0usize..4),
                (0usize..4, 0usize..3),
                proptest::collection::vec(0usize..4, 0..10),
            ),
            0..4,
        ),
        picks in proptest::collection::vec(0usize..5, 16),
    ) {
        use matelda::core::quality_fold::{FoldMembership, QualityFold};
        use matelda::core::{
            decode_snapshot, encode_snapshot, CtxState, QualityFoldEntry, QualityFolds,
        };
        // Centroids from a palette holding -0.0 and a NaN payload; each
        // domain fold's index names every one of its quality folds at
        // least once, and a domain fold without quality folds has none.
        const PALETTE: [u32; 5] = [0, 0x3F80_0000, 0x8000_0000, 0x7FC0_0042, 0x3F00_0000];
        let mut quality =
            QualityFolds { entries: Vec::new(), budgets: Vec::new(), members: Vec::new() };
        for (fi, ((budget, n_folds), (n_cols, dim), extra)) in domain_folds.iter().enumerate() {
            for q in 0..*n_folds {
                let centroid =
                    (0..*dim).map(|d| f32::from_bits(PALETTE[picks[(q + d) % 16] % 5])).collect();
                let fold = QualityFold { centroid };
                let labeled = picks[(fi + q) % 16] % 2 == 0;
                quality.entries.push(QualityFoldEntry { domain_fold: fi, fold, labeled });
            }
            let index = if *n_folds == 0 {
                Vec::new()
            } else {
                (0..*n_folds).chain(extra.iter().map(|&q| q % n_folds)).map(|q| q as u32).collect()
            };
            let columns = (0..*n_cols).map(|c| (fi, c)).collect();
            quality.budgets.push(*budget);
            quality.members.push(FoldMembership { columns, index });
        }
        let bytes = encode_snapshot(&CtxState::default(), &quality);
        let (state, back) = decode_snapshot::<QualityFolds>(&bytes).expect("own encoding decodes");
        prop_assert_eq!(encode_snapshot(&state, &back), bytes.clone());
        prop_assert_eq!(&back.members, &quality.members);
        prop_assert_eq!(&back.budgets, &quality.budgets);
        let shape = |q: &QualityFolds| -> Vec<(usize, bool, Vec<u32>)> {
            q.entries
                .iter()
                .map(|e| {
                    let bits = e.fold.centroid.iter().map(|v| v.to_bits()).collect();
                    (e.domain_fold, e.labeled, bits)
                })
                .collect()
        };
        prop_assert_eq!(shape(&back), shape(&quality));
        // Every strict prefix (a torn write) fails to decode.
        for cut in 0..bytes.len() {
            prop_assert!(decode_snapshot::<QualityFolds>(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Every byte overwritten with a small value (so an index or a
        // count often stays in range): whatever decodes re-encodes to
        // exactly itself, and its membership is one the label stage can
        // use — each index names one of its domain fold's quality folds,
        // and each quality fold has a member.
        for i in 0..bytes.len() * 4 {
            let mut candidate = bytes.clone();
            candidate[i / 4] = (i % 4) as u8;
            if let Ok((state, artifact)) = decode_snapshot::<QualityFolds>(&candidate) {
                prop_assert_eq!(encode_snapshot(&state, &artifact), candidate);
                prop_assert_eq!(artifact.members.len(), artifact.budgets.len());
                for (fi, m) in artifact.members.iter().enumerate() {
                    let n_folds = artifact.entries_of(fi).len();
                    prop_assert!(m.index.iter().all(|&q| (q as usize) < n_folds));
                    prop_assert!(m.sizes(n_folds).iter().all(|&n| n > 0));
                }
            }
        }
    }

    #[test]
    fn propagated_label_snapshots_round_trip_and_decode_only_consistent_bytes(
        tables in proptest::collection::vec(proptest::collection::vec(0usize..3, 0..8), 0..3),
        folds in proptest::collection::vec(
            ((0usize..3, 0usize..2), (0usize..4, 0usize..6, 0usize..3)),
            0..5,
        ),
        labels_used in 0usize..300,
    ) {
        use matelda::core::{
            decode_snapshot, encode_snapshot, CtxState, LabeledFold, PropagatedLabels,
        };
        let labels = tables
            .iter()
            .map(|t| t.iter().map(|&l| [None, Some(false), Some(true)][l]).collect())
            .collect();
        // Labeled folds name their quality folds in entry order.
        let mut fold = 0;
        let labeled_folds = folds
            .iter()
            .map(|&((gap, verdict), (t, r, c))| {
                fold += gap + 1;
                LabeledFold { fold: fold - 1, anchor: CellId::new(t, r, c), verdict: verdict == 1 }
            })
            .collect();
        let artifact = PropagatedLabels { labels, labeled_folds, labels_used };
        let bytes = encode_snapshot(&CtxState::default(), &artifact);
        let (state, back) =
            decode_snapshot::<PropagatedLabels>(&bytes).expect("own encoding decodes");
        prop_assert_eq!(encode_snapshot(&state, &back), bytes.clone());
        prop_assert_eq!(&back.labels, &artifact.labels);
        prop_assert_eq!(&back.labeled_folds, &artifact.labeled_folds);
        prop_assert_eq!(back.labels_used, labels_used);
        for cut in 0..bytes.len() {
            prop_assert!(decode_snapshot::<PropagatedLabels>(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() * 4 {
            let mut candidate = bytes.clone();
            candidate[i / 4] = (i % 4) as u8;
            if let Ok((state, artifact)) = decode_snapshot::<PropagatedLabels>(&candidate) {
                prop_assert_eq!(encode_snapshot(&state, &artifact), candidate);
                let order: Vec<usize> = artifact.labeled_folds.iter().map(|lf| lf.fold).collect();
                prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "entry order {order:?}");
            }
        }
    }

    #[test]
    fn snapshot_decode_of_arbitrary_bytes_is_an_error_never_a_panic(
        bytes in proptest::collection::vec((0usize..256).prop_map(|b| b as u8), 0..256),
    ) {
        use matelda::ckpt::store::decode_envelope;
        use matelda::ckpt::Manifest;
        use matelda::core::{decode_snapshot, encode_snapshot, EmbeddedLake};
        // If random bytes happen to decode, they must re-encode to
        // themselves; in every other case the error is structured. No
        // input may panic or trigger a length-prefix-sized allocation.
        if let Ok((state, artifact)) = decode_snapshot::<EmbeddedLake>(&bytes) {
            prop_assert_eq!(encode_snapshot(&state, &artifact), bytes.clone());
        }
        // Envelope and manifest share the contract; random bytes lack
        // the magic tags, so these always fail — structuredly.
        prop_assert!(decode_envelope(&bytes).is_err());
        prop_assert!(Manifest::decode(&bytes).is_err());
    }
}

// Quality-based cell folding (paper §3.3, Alg. 1 line 13): clustering a
// domain fold must *partition* its cells — every cell in exactly one
// quality fold — for any k / batch size / iteration count, and the
// centroid-nearest sample must not depend on the order the member cells
// are scanned in.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quality_folds_exactly_partition_the_cells(
        cols in 1usize..4,
        rows in 1usize..12,
        k in 1usize..12,
        batch_size in 1usize..128,
        iterations in 0usize..40,
        seed in 0u64..1000,
    ) {
        use matelda::cluster::MiniBatchKMeansConfig;
        use matelda::core::quality_fold::quality_folds;
        use matelda::core::{Fold, Obs};
        use matelda::detect::CellFeatures;

        let table = Table::new(
            "t",
            (0..cols).map(|c| Column::new(format!("c{c}"), vec!["v"; rows])).collect(),
        );
        let lake = Lake::new(vec![table]);
        // Synthetic 2-dim features derived from the seed: clustering must
        // partition regardless of the geometry, so arbitrary values are
        // fine (and cheaper than running the real featurizer per case).
        let feat = |r: usize, c: usize, d: u64| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(((r * cols + c) as u64) << 8 | d)
                .wrapping_mul(0x2545_F491_4F6C_DD1D);
            (h % 1024) as f32 / 64.0
        };
        let vectors: Vec<Vec<f32>> = (0..rows)
            .flat_map(|r| (0..cols).map(move |c| vec![feat(r, c, 0), feat(r, c, 1)]))
            .collect();
        let features = vec![CellFeatures::from_vectors(cols, rows, &vectors)];
        let fold = Fold { columns: (0..cols).map(|c| (0, c)).collect() };

        let kmeans = MiniBatchKMeansConfig { k, batch_size, iterations, seed };
        let (qf, members) = quality_folds(&lake, &fold, &features, kmeans, &Obs::disabled());
        prop_assert!(!qf.is_empty());
        prop_assert!(qf.len() <= k.max(1));
        prop_assert_eq!(&members.columns, &fold.columns);
        prop_assert!(members.sizes(qf.len()).iter().all(|&n| n > 0), "no empty folds survive");
        // Exact partition: the membership names one quality fold for each
        // of the fold's cells, each cell exactly once, in fold order
        // (columns in fold order, rows ascending).
        let mut got = Vec::new();
        for (id, q) in members.cells(&lake) {
            prop_assert!(q < qf.len(), "{id:?} in fold {q} of {}", qf.len());
            got.push(id);
        }
        let want: Vec<CellId> = (0..cols)
            .flat_map(|c| (0..rows).map(move |r| CellId::new(0, r, c)))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sample_is_invariant_under_cell_insertion_order(
        n in 1usize..24,
        perm_seed in 0u64..1000,
        n_distinct in 1usize..5,
    ) {
        use matelda::core::quality_fold::nearest_members;

        // Each cell gets one of a few shared feature vectors, so ties —
        // several members equidistant from the centroid — are common by
        // construction. The documented tie-break is "smallest CellId".
        let palette: Vec<Vec<f32>> =
            (0..n_distinct).map(|i| vec![i as f32, (i * i) as f32 * 0.5]).collect();
        let which = |id: CellId| (id.row * 7 + id.col * 13 + id.table) % n_distinct;
        let get = |id: CellId| palette[which(id)].as_slice();

        let cells: Vec<CellId> =
            (0..n).map(|i| CellId::new(i % 2, i / 3, i % 5)).collect();
        let centroid = [0.6f32, 0.4];
        let nearest = |cells: &[CellId]| {
            nearest_members(cells.iter().map(|&id| (id, 0)), &[Some(&centroid[..])], get)[0]
        };
        let picked = nearest(&cells);

        // The winner is the min-distance member, ties to the smallest id
        // — computed independently here, order-free.
        let dist = |id: CellId| {
            let f = get(id);
            (f[0] - centroid[0]).powi(2) + (f[1] - centroid[1]).powi(2)
        };
        let expected = *cells
            .iter()
            .min_by(|a, b| {
                dist(**a).partial_cmp(&dist(**b)).unwrap().then(a.cmp(b))
            })
            .expect("non-empty");
        prop_assert_eq!(picked, Some(expected));

        // Fisher–Yates with a seed-derived LCG: any order the members
        // are scanned in yields the same sample.
        let mut shuffled = cells.clone();
        let mut state = perm_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(nearest(&shuffled), picked);
    }
}

// Each case below runs the whole pipeline, so this block uses a reduced
// case count; the grid of strategies × budgets × threads still covers the
// clamp's edge cases (budget < 2 × n_folds, budget 0).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn budget_is_a_hard_ceiling_on_labels(
        budget in 0usize..50,
        seed in 1u64..20,
        labeling in 0usize..2,
        training in 0usize..3,
        threads in 1usize..4,
    ) {
        // Full-pipeline invariant behind the budget_per_fold clamp: no
        // configuration may spend more oracle labels than the budget,
        // including budget < 2 × n_folds (where the old per-fold floor
        // overspent) and budget 0.
        let lake = QuintetLake { rows_per_table: 12, ..Default::default() }.generate(seed);
        let config = MateldaConfig {
            labeling: [LabelingStrategy::CentroidPerFold,
                       LabelingStrategy::UncertaintyRefinement][labeling],
            training: [TrainingStrategy::PerColumn,
                       TrainingStrategy::PerDomainFold,
                       TrainingStrategy::UnlabeledCellFolds][training],
            threads,
            ..Default::default()
        };
        let mut oracle = Oracle::new(&lake.errors);
        let result = Matelda::new(config).detect(&lake.dirty, &mut oracle, budget);
        prop_assert!(
            result.labels_used <= budget,
            "spent {} labels with budget {budget}", result.labels_used
        );
        prop_assert!(oracle.labels_used() <= budget);
    }
}

// ---------------------------------------------------------------------------
// Storage fault injection (ISSUE 8): the VFS seam's atomicity contract
// holds under arbitrary errno-level faults. An atomic-write target is
// always absent or fully decodable (never torn bytes under the final
// name — the one deliberate exception, `TornRename`, models the *disk*
// breaking that promise, and the checksum layer detects it), and the
// stores built on the seam fail structurally, never by panicking.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn faulted_atomic_writes_leave_targets_absent_or_fully_decodable(
        site in 0u64..6,
        kind_pick in 0usize..3,
        has_old in 0u8..2,
        old_payload in proptest::collection::vec((0usize..256).prop_map(|b| b as u8), 0..64),
        new_payload in proptest::collection::vec((0usize..256).prop_map(|b| b as u8), 0..64),
    ) {
        use matelda::ckpt::{decode_envelope, encode_envelope, FaultKind, InjectAt, Vfs};
        let kind = [
            FaultKind::Errno(std::io::ErrorKind::StorageFull),
            FaultKind::Errno(std::io::ErrorKind::Other),
            FaultKind::ShortWrite,
        ][kind_pick];
        let dir = unique_tmp_dir("vfs_decode_or_absent");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("artifact.ckpt");
        let old_bytes = encode_envelope(7, "stage", &old_payload);
        let new_bytes = encode_envelope(7, "stage", &new_payload);
        if has_old == 1 {
            Vfs::real().write_atomic(&target, &old_bytes).unwrap();
        }

        // One fault somewhere in (or past) the 5-op commit sequence.
        let vfs = Vfs::with_injector(InjectAt::new(site, kind));
        let _ = vfs.write_atomic(&target, &new_bytes);

        match std::fs::read(&target) {
            Ok(bytes) => {
                let (key, stage, payload) =
                    decode_envelope(&bytes).expect("target under the final name must decode");
                prop_assert_eq!(key, 7);
                prop_assert_eq!(stage, "stage");
                prop_assert!(
                    payload == old_payload || payload == new_payload,
                    "target holds bytes nobody ever committed"
                );
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
                prop_assert_eq!(has_old, 0, "a faulted overwrite must never lose the old entry");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_and_memo_stores_never_panic_under_injected_faults(
        site in 0u64..24,
        kind_pick in 0usize..4,
        payload in proptest::collection::vec((0usize..256).prop_map(|b| b as u8), 0..48),
    ) {
        use matelda::ckpt::{CheckpointStore, FaultKind, InjectAt, Manifest, Vfs};
        use matelda::serve::{CacheRead, DetectOutcome, MemoCache};
        let kind = [
            FaultKind::Errno(std::io::ErrorKind::StorageFull),
            FaultKind::Errno(std::io::ErrorKind::Other),
            FaultKind::ShortWrite,
            FaultKind::TornRename,
        ][kind_pick];
        let manifest = Manifest { config_hash: 1, lake_fingerprint: 2, seed: 3, budget: 4, threads: 2 };

        // Checkpoint store: open, save twice, load back. Every step is
        // allowed to fail — reaching the end without a panic, and any
        // successful load returning exactly the saved bytes, is the
        // property.
        let dir = unique_tmp_dir("ckpt_no_panic");
        let vfs = Vfs::with_injector(InjectAt::new(site, kind));
        if let Ok(store) = CheckpointStore::open_with(&dir, manifest, true, vfs) {
            let _ = store.save_stage("embed", &payload);
            let _ = store.save_stage("featurize", &payload);
            for stage in ["embed", "featurize"] {
                if let Ok(Some(loaded)) = store.load_stage(stage) {
                    prop_assert_eq!(&loaded, &payload, "a load that claims success must be exact");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Memo-cache: same drill. A Hit must be the exact outcome; Miss
        // and Corrupt are both acceptable under injected faults.
        let outcome = DetectOutcome {
            digest: 0xFEED, labels_used: 1, n_domain_folds: 2, n_quality_folds: 3,
            flagged: 4, quarantined_tables: 0, stages_run: 6, stages_restored: 0,
            cached: false, degraded: false,
        };
        let dir = unique_tmp_dir("memo_no_panic");
        let vfs = Vfs::with_injector(InjectAt::new(site, kind));
        if let Ok(cache) = MemoCache::open_with(&dir, vfs) {
            let _ = cache.store(9, &outcome);
            match cache.load(9) {
                CacheRead::Hit(got) => prop_assert_eq!(got, outcome),
                CacheRead::Miss | CacheRead::Corrupt => {}
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A per-case unique scratch dir (proptest cases run many times per
/// process; the counter keeps them from colliding).
fn unique_tmp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("matelda_pt_{tag}_{}_{n}", std::process::id()))
}
