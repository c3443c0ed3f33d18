//! Step 1 — domain-based cell folding (paper §3.2) and its variants.

use matelda_cluster::{Hdbscan, HdbscanConfig, ScaleError, NOISE};
use matelda_detect::column_syntactic_features;
use matelda_embed::encoder::{embed_table, embed_table_sampled, HashedEncoder};
use matelda_embed::vector::{dot, norm};
use matelda_exec::Executor;
use matelda_table::{Lake, Table};
use matelda_text::jaccard;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// How to build domain folds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DomainFolding {
    /// The standard pipeline: serialized-table embeddings clustered with
    /// HDBSCAN (`min_cluster_size = 2`); outlier tables become singleton
    /// folds.
    Hdbscan,
    /// Matelda-EDF (§4.5.1): skip domain folding, one fold holds all
    /// tables ("extreme domain folding").
    ExtremeDomainFolding,
    /// Matelda-RS (§4.5.2): embed only this fraction of each table's rows
    /// (the paper uses 1%; at laptop scale we default to larger samples)
    /// before the standard HDBSCAN step.
    RowSampling(f64),
    /// Matelda-Santos (§4.5.2): a unionability score stands in for the
    /// embedding — per table pair, the average best Jaccard overlap of
    /// column value-sets — then HDBSCAN on (1 − score). Much slower, same
    /// folds on well-separated lakes, reproducing the paper's finding.
    SantosLike,
    /// Extension: the SANTOS-style unionability score computed over
    /// MinHash sketches of the column value-sets instead of exact sets —
    /// O(k) per column pair instead of O(values), the standard data-lake
    /// discovery trick. The argument is the sketch size `k`.
    SantosSketch(usize),
}

/// A fold: a set of `(table, column)` pairs whose cells share labels.
///
/// For plain domain folding a fold contains *all* columns of its member
/// tables; the `+SF` syntactic refinement (§4.5.1) splits a domain fold
/// into column groups, which this representation expresses directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Member columns as `(table index, column index)`.
    pub columns: Vec<(usize, usize)>,
}

impl Fold {
    /// Number of member columns — the budget-allocation weight
    /// (Alg. 1 line 12 splits Λ by column share).
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Distinct member tables, ascending.
    pub fn tables(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self.columns.iter().map(|&(t, _)| t).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

/// The Step-1 embedding artifact: whatever representation the chosen
/// [`DomainFolding`] strategy clusters on. Produced by [`embed_lake`]
/// (the engine's first stage) and consumed by [`folds_from_embedding`],
/// so callers can persist, inspect or swap the representation between
/// the two halves of domain folding.
#[derive(Debug, Clone, PartialEq)]
pub enum EmbeddedLake {
    /// One hashed-embedding vector per table (Hdbscan / RowSampling).
    Vectors(Vec<Vec<f32>>),
    /// Pairwise unionability similarities (SantosLike / SantosSketch).
    Unionability(Vec<Vec<f64>>),
    /// No representation needed (ExtremeDomainFolding skips Step 1).
    Trivial,
}

/// Builds the embedding artifact for `strategy`, computing per-table
/// embeddings in parallel on `exec` (results merged in table order, so
/// the artifact is identical at every thread count; the RowSampling
/// variant draws its row sample from a per-table RNG for the same
/// reason).
pub fn embed_lake(
    lake: &Lake,
    strategy: DomainFolding,
    encoder: &HashedEncoder,
    seed: u64,
    exec: &Executor,
) -> EmbeddedLake {
    match strategy {
        DomainFolding::ExtremeDomainFolding => EmbeddedLake::Trivial,
        DomainFolding::Hdbscan | DomainFolding::RowSampling(_) => EmbeddedLake::Vectors(
            exec.map(&lake.tables, |ti, t| embed_table_for(strategy, encoder, seed, ti, t)),
        ),
        DomainFolding::SantosLike => EmbeddedLake::Unionability(unionability_matrix(lake)),
        DomainFolding::SantosSketch(k) => {
            EmbeddedLake::Unionability(unionability_matrix_sketched(lake, k.max(16)))
        }
    }
}

/// Embeds one table for the vector-based folding strategies — the unit
/// of work [`embed_lake`] parallelizes and the engine fault-isolates.
/// The result depends only on `(strategy, encoder, seed, ti, table)` —
/// never on other tables or execution order — which is what makes a
/// quarantined table's removal invisible to the survivors' embeddings.
pub fn embed_table_for(
    strategy: DomainFolding,
    encoder: &HashedEncoder,
    seed: u64,
    ti: usize,
    table: &Table,
) -> Vec<f32> {
    match strategy {
        DomainFolding::RowSampling(frac) => {
            let rows = table.n_rows();
            let k = ((rows as f64 * frac).ceil() as usize).clamp(1, rows.max(1));
            if rows == 0 {
                embed_table(encoder, table)
            } else {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (ti as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut idx: Vec<usize> = sample(&mut rng, rows, k).into_iter().collect();
                idx.sort_unstable();
                embed_table_sampled(encoder, table, &idx)
            }
        }
        _ => embed_table(encoder, table),
    }
}

/// Clusters an [`EmbeddedLake`] into domain folds (the second half of
/// Step 1).
///
/// Tables in `excluded` (quarantined by the engine's fault isolation)
/// are left out: the survivors are clustered exactly as if the lake
/// contained only them — pairwise distances and iteration order match a
/// lake with the excluded tables deleted, so fold assignments do too —
/// and the returned folds carry the survivors' *original* table indices.
///
/// HDBSCAN builds its mutual-reachability matrix over row blocks on
/// `exec`, so the folds are bit-identical at every thread count (see
/// [`Hdbscan::fit`]). Over `n` surviving tables that matrix is a dense
/// `n × n` f64 allocation; a `budget` it would blow surfaces as a
/// structured [`ScaleError`] *before* the allocation instead of an OOM
/// abort. `None` disables the check.
pub fn folds_from_embedding(
    lake: &Lake,
    embedded: &EmbeddedLake,
    excluded: &[usize],
    exec: &Executor,
    budget: Option<u64>,
) -> Result<Vec<Fold>, ScaleError> {
    let survivors: Vec<usize> = (0..lake.n_tables()).filter(|t| !excluded.contains(t)).collect();
    let n = survivors.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let local_groups: Vec<Vec<usize>> = match embedded {
        EmbeddedLake::Trivial => vec![(0..n).collect()],
        EmbeddedLake::Vectors(vecs) => {
            if n == 1 {
                vec![vec![0]]
            } else {
                // Each table's norm once, not twice per distance call.
                let norms: Vec<f32> = survivors.iter().map(|&t| norm(&vecs[t])).collect();
                let labels = Hdbscan::new(HdbscanConfig::default()).fit(
                    n,
                    |a, b| {
                        let ab = dot(&vecs[survivors[a]], &vecs[survivors[b]]);
                        f64::from(cosine_distance_from(ab, norms[a], norms[b]))
                    },
                    exec,
                    budget,
                )?;
                groups_from_labels(&labels, n)
            }
        }
        EmbeddedLake::Unionability(sims) => {
            let labels = Hdbscan::new(HdbscanConfig::default()).fit(
                n,
                |a, b| (1.0 - sims[survivors[a]][survivors[b]]).max(0.0),
                exec,
                budget,
            )?;
            groups_from_labels(&labels, n)
        }
    };
    Ok(local_groups
        .into_iter()
        .map(|tables| Fold {
            columns: tables
                .iter()
                .flat_map(|&local| {
                    let t = survivors[local];
                    (0..lake[t].n_cols()).map(move |c| (t, c))
                })
                .collect(),
        })
        .collect())
}

/// Groups the lake's tables into domain folds according to `strategy`.
/// Every table lands in exactly one fold; every fold carries all columns
/// of its tables (apply [`refine_syntactic`] afterwards for `+SF`).
///
/// Single-threaded convenience over [`embed_lake`] +
/// [`folds_from_embedding`]; the staged engine calls the two halves
/// separately.
pub fn domain_folds(
    lake: &Lake,
    strategy: DomainFolding,
    encoder: &HashedEncoder,
    seed: u64,
) -> Vec<Fold> {
    let single = Executor::single();
    let embedded = embed_lake(lake, strategy, encoder, seed, &single);
    folds_from_embedding(lake, &embedded, &[], &single, None).expect("no budget")
}

/// [`cosine_distance`](matelda_embed::vector::cosine_distance) given the
/// dot product and both norms, by
/// [`cosine`](matelda_embed::vector::cosine)'s rule: a zero norm gives a
/// cosine of 0, otherwise `dot / (na * nb)` clamped to [−1, 1]. `norm`
/// is deterministic, so this is the same bits as `cosine_distance(a, b)`.
fn cosine_distance_from(dot: f32, na: f32, nb: f32) -> f32 {
    let cos = if na == 0.0 || nb == 0.0 { 0.0 } else { (dot / (na * nb)).clamp(-1.0, 1.0) };
    1.0 - cos
}

/// Converts HDBSCAN labels to table groups; noise tables become singleton
/// folds ("each of the outlying tables is clustered into an individual
/// group", §3.2).
fn groups_from_labels(labels: &[isize], n: usize) -> Vec<Vec<usize>> {
    let k = labels.iter().copied().filter(|&l| l != NOISE).max().map_or(0, |m| m as usize + 1);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut singletons = Vec::new();
    for (t, &l) in labels.iter().enumerate().take(n) {
        if l == NOISE {
            singletons.push(vec![t]);
        } else {
            groups[l as usize].push(t);
        }
    }
    groups.retain(|g| !g.is_empty());
    groups.extend(singletons);
    groups
}

/// The SANTOS-like unionability score between all table pairs: for each
/// column of `a`, the best Jaccard overlap with any column of `b`
/// (value-set level), averaged — symmetric by averaging both directions.
/// Deliberately expensive (full value-set comparisons), mirroring the
/// paper's observation that the SANTOS variant is ~4× slower.
pub fn unionability_matrix(lake: &Lake) -> Vec<Vec<f64>> {
    let n = lake.n_tables();
    // Tokenized value sets per column per table.
    let col_values: Vec<Vec<Vec<String>>> = lake
        .tables
        .iter()
        .map(|t| {
            t.columns
                .iter()
                .map(|c| {
                    let mut vals: Vec<String> = c.values.iter().map(|v| v.to_lowercase()).collect();
                    vals.sort_unstable();
                    vals.dedup();
                    vals
                })
                .collect()
        })
        .collect();

    let direction = |a: usize, b: usize| -> f64 {
        let cols_a = &col_values[a];
        let cols_b = &col_values[b];
        if cols_a.is_empty() || cols_b.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for ca in cols_a {
            let best = cols_b.iter().map(|cb| jaccard(ca, cb)).fold(0.0f64, f64::max);
            total += best;
        }
        total / cols_a.len() as f64
    };

    let mut sims = vec![vec![0.0f64; n]; n];
    for a in 0..n {
        sims[a][a] = 1.0;
        for b in (a + 1)..n {
            let s = (direction(a, b) + direction(b, a)) / 2.0;
            sims[a][b] = s;
            sims[b][a] = s;
        }
    }
    sims
}

/// The `+SF` refinement (§4.5.1): split each domain fold into column
/// groups by syntactic profile (data types, character distributions,
/// value lengths), so cells only share labels with syntactically similar
/// columns. The paper shows this *hurts* label sharing on DGov-NTR.
pub fn refine_syntactic(lake: &Lake, folds: Vec<Fold>, groups_per_fold: usize) -> Vec<Fold> {
    let mut refined = Vec::new();
    for fold in folds {
        if fold.columns.len() <= 1 || groups_per_fold <= 1 {
            refined.push(fold);
            continue;
        }
        let profiles: Vec<Vec<f32>> =
            fold.columns.iter().map(|&(t, c)| column_syntactic_features(&lake[t], c)).collect();
        let k = groups_per_fold.min(fold.columns.len());
        let labels = matelda_cluster::agglomerative(fold.columns.len(), k, |a, b| {
            profiles[a]
                .iter()
                .zip(&profiles[b])
                .map(|(x, y)| f64::from((x - y) * (x - y)))
                .sum::<f64>()
                .sqrt()
        });
        let n_groups = labels.iter().copied().max().unwrap_or(0) + 1;
        let mut buckets: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_groups];
        for (i, &g) in labels.iter().enumerate() {
            buckets[g].push(fold.columns[i]);
        }
        for columns in buckets.into_iter().filter(|b| !b.is_empty()) {
            refined.push(Fold { columns });
        }
    }
    refined
}

/// The sketched unionability matrix: like [`unionability_matrix`] but the
/// per-column Jaccard overlaps are MinHash estimates, so each pair costs
/// O(columns² · k) instead of O(columns² · values).
pub fn unionability_matrix_sketched(lake: &Lake, k: usize) -> Vec<Vec<f64>> {
    use matelda_embed::MinHashSketch;
    let n = lake.n_tables();
    let sketches: Vec<Vec<MinHashSketch>> = lake
        .tables
        .iter()
        .map(|t| {
            t.columns
                .iter()
                .map(|c| MinHashSketch::of(c.values.iter().map(|v| v.to_lowercase()), k))
                .collect()
        })
        .collect();
    let direction = |a: usize, b: usize| -> f64 {
        if sketches[a].is_empty() || sketches[b].is_empty() {
            return 0.0;
        }
        let total: f64 = sketches[a]
            .iter()
            .map(|ca| sketches[b].iter().map(|cb| ca.jaccard(cb)).fold(0.0f64, f64::max))
            .sum();
        total / sketches[a].len() as f64
    };
    let mut sims = vec![vec![0.0f64; n]; n];
    for a in 0..n {
        sims[a][a] = 1.0;
        for b in (a + 1)..n {
            let s = (direction(a, b) + direction(b, a)) / 2.0;
            sims[a][b] = s;
            sims[b][a] = s;
        }
    }
    sims
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_embed::vector::cosine_distance;
    use matelda_table::{Column, Table};

    /// Two soccer-ish tables, two movie-ish tables, one loner.
    fn mixed_lake() -> Lake {
        let soccer = |name: &str| {
            Table::new(
                name,
                vec![
                    Column::new(
                        "club",
                        ["Liverpool", "Chelsea", "Arsenal", "Barcelona", "Madrid", "Bayern"],
                    ),
                    Column::new(
                        "country",
                        ["England", "England", "England", "Spain", "Spain", "Germany"],
                    ),
                    Column::new("league points", ["82", "74", "71", "88", "86", "79"]),
                ],
            )
        };
        let movies = |name: &str| {
            Table::new(
                name,
                vec![
                    Column::new(
                        "genre",
                        ["Drama", "Comedy", "Thriller", "Horror", "Romance", "Western"],
                    ),
                    Column::new(
                        "director",
                        ["Frank", "Sidney", "Francis", "Steven", "Martin", "Sofia"],
                    ),
                    Column::new("rating", ["9.3", "8.1", "7.7", "6.9", "7.2", "8.4"]),
                ],
            )
        };
        let loner = Table::new(
            "soil",
            vec![
                Column::new("depth", ["5", "10", "20", "40", "80", "100"]),
                Column::new("moisture", ["0.1", "0.2", "0.3", "0.4", "0.5", "0.45"]),
            ],
        );
        Lake::new(vec![
            soccer("clubs_a"),
            movies("films_a"),
            soccer("clubs_b"),
            movies("films_b"),
            loner,
        ])
    }

    fn encoder() -> HashedEncoder {
        HashedEncoder::default()
    }

    #[test]
    fn hdbscan_folding_groups_domains() {
        let lake = mixed_lake();
        let folds = domain_folds(&lake, DomainFolding::Hdbscan, &encoder(), 0);
        // Every table in exactly one fold.
        let mut seen: Vec<usize> = folds.iter().flat_map(Fold::tables).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // The two soccer tables fold together, as do the two movie tables.
        let fold_of =
            |t: usize| folds.iter().position(|f| f.tables().contains(&t)).expect("covered");
        assert_eq!(fold_of(0), fold_of(2), "{folds:?}");
        assert_eq!(fold_of(1), fold_of(3), "{folds:?}");
        assert_ne!(fold_of(0), fold_of(1), "{folds:?}");
    }

    #[test]
    fn edf_puts_everything_in_one_fold() {
        let lake = mixed_lake();
        let folds = domain_folds(&lake, DomainFolding::ExtremeDomainFolding, &encoder(), 0);
        assert_eq!(folds.len(), 1);
        assert_eq!(folds[0].n_columns(), lake.n_columns());
    }

    #[test]
    fn row_sampling_preserves_domain_grouping() {
        // With a large-enough sample the RS variant reproduces the
        // essential property: same-domain tables keep folding together
        // (the paper reports "nearly the same F1" for Matelda-RS).
        let lake = mixed_lake();
        let sampled = domain_folds(&lake, DomainFolding::RowSampling(0.9), &encoder(), 0);
        let mut covered: Vec<usize> = sampled.iter().flat_map(Fold::tables).collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2, 3, 4], "every table in exactly one fold");
        let fold_of =
            |t: usize| sampled.iter().position(|f| f.tables().contains(&t)).expect("covered");
        assert_eq!(fold_of(0), fold_of(2), "{sampled:?}");
        assert_eq!(fold_of(1), fold_of(3), "{sampled:?}");
        assert_ne!(fold_of(0), fold_of(1), "{sampled:?}");
    }

    #[test]
    fn santos_like_also_groups_domains() {
        let lake = mixed_lake();
        let folds = domain_folds(&lake, DomainFolding::SantosLike, &encoder(), 0);
        let fold_of =
            |t: usize| folds.iter().position(|f| f.tables().contains(&t)).expect("covered");
        assert_eq!(fold_of(0), fold_of(2), "{folds:?}");
        assert_eq!(fold_of(1), fold_of(3), "{folds:?}");
    }

    #[test]
    fn sketched_unionability_tracks_exact_and_groups_domains() {
        let lake = mixed_lake();
        let exact = unionability_matrix(&lake);
        let sketched = unionability_matrix_sketched(&lake, 128);
        for a in 0..5 {
            for b in 0..5 {
                assert!(
                    (exact[a][b] - sketched[a][b]).abs() < 0.2,
                    "({a},{b}): exact {} vs sketch {}",
                    exact[a][b],
                    sketched[a][b]
                );
            }
        }
        let folds = domain_folds(&lake, DomainFolding::SantosSketch(128), &encoder(), 0);
        let fold_of =
            |t: usize| folds.iter().position(|f| f.tables().contains(&t)).expect("covered");
        assert_eq!(fold_of(0), fold_of(2), "{folds:?}");
        assert_eq!(fold_of(1), fold_of(3), "{folds:?}");
    }

    #[test]
    fn unionability_is_symmetric_and_reflexive() {
        let lake = mixed_lake();
        let m = unionability_matrix(&lake);
        for a in 0..5 {
            assert_eq!(m[a][a], 1.0);
            for b in 0..5 {
                assert!((m[a][b] - m[b][a]).abs() < 1e-12);
            }
        }
        assert!(m[0][2] > m[0][1], "same-domain unionability should dominate");
    }

    #[test]
    fn syntactic_refinement_splits_by_column_type() {
        let lake = mixed_lake();
        let folds = vec![Fold { columns: vec![(0, 0), (0, 1), (0, 2), (4, 0), (4, 1)] }];
        let refined = refine_syntactic(&lake, folds, 2);
        assert_eq!(refined.len(), 2);
        // Numeric columns ((0,2), (4,0), (4,1)) split from text columns.
        let numeric_fold =
            refined.iter().find(|f| f.columns.contains(&(0, 2))).expect("numeric fold exists");
        assert!(numeric_fold.columns.contains(&(4, 0)), "{refined:?}");
        assert!(!numeric_fold.columns.contains(&(0, 0)), "{refined:?}");
    }

    #[test]
    fn empty_lake_no_folds() {
        assert!(domain_folds(&Lake::default(), DomainFolding::Hdbscan, &encoder(), 0).is_empty());
    }

    #[test]
    fn excluding_tables_folds_like_the_projected_lake() {
        let lake = mixed_lake();
        let enc = encoder();
        let exec = Executor::single();
        let embedded = embed_lake(&lake, DomainFolding::Hdbscan, &enc, 0, &exec);
        let excluded = [0usize, 3];
        let folds = folds_from_embedding(&lake, &embedded, &excluded, &exec, None).unwrap();

        // The same clustering on a lake with those tables deleted.
        let projected =
            Lake::new(vec![lake.tables[1].clone(), lake.tables[2].clone(), lake.tables[4].clone()]);
        let proj_embedded = embed_lake(&projected, DomainFolding::Hdbscan, &enc, 0, &exec);
        let proj_folds =
            folds_from_embedding(&projected, &proj_embedded, &[], &exec, None).unwrap();

        // Remap the projected indices back to the original lake's.
        let back = [1usize, 2, 4];
        let remapped: Vec<Fold> = proj_folds
            .into_iter()
            .map(|f| Fold { columns: f.columns.into_iter().map(|(t, c)| (back[t], c)).collect() })
            .collect();
        assert_eq!(folds, remapped);
    }

    #[test]
    fn excluding_down_to_one_or_zero_survivors() {
        let lake = mixed_lake();
        let enc = encoder();
        let exec = Executor::single();
        let embedded = embed_lake(&lake, DomainFolding::Hdbscan, &enc, 0, &exec);
        let one = folds_from_embedding(&lake, &embedded, &[0, 1, 2, 3], &exec, None).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].tables(), vec![4]);
        let none = folds_from_embedding(&lake, &embedded, &[0, 1, 2, 3, 4], &exec, None).unwrap();
        assert!(none.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        // The per-table norms are an exact rewrite: the folds equal
        // HDBSCAN's on the reference closure `cosine_distance(a, b)` for
        // lakes of 2..45 tables (so survivor counts off multiples of 8),
        // with zero vectors, scaled copies of a few directions, noise
        // vectors and excluded tables, at 1 and 3 threads.
        #[test]
        fn folds_equal_hdbscan_on_the_reference_cosine_distance(
            protos in proptest::collection::vec(proptest::collection::vec(-1.0f32..1.0, 24), 3),
            tables in proptest::collection::vec(
                (0usize..6, 0.1f32..3.0, proptest::collection::vec(-0.05f32..0.05, 24)),
                2..45,
            ),
            excluded in proptest::collection::vec(0usize..45, 0..6),
        ) {
            let vecs: Vec<Vec<f32>> = tables
                .iter()
                .map(|(kind, scale, noise)| match kind {
                    0 => vec![0.0; 24],
                    1..=3 => protos[kind - 1].iter().zip(noise).map(|(p, e)| p * scale + e).collect(),
                    _ => noise.iter().map(|e| e * 20.0).collect(),
                })
                .collect();
            let lake = Lake::new(
                (0..vecs.len())
                    .map(|t| Table::new(format!("t{t}"), vec![Column::new("c", ["v"])]))
                    .collect(),
            );
            let embedded = EmbeddedLake::Vectors(vecs.clone());
            let survivors: Vec<usize> = (0..vecs.len()).filter(|t| !excluded.contains(t)).collect();
            let n = survivors.len();
            let want: Vec<Fold> = if n < 2 {
                survivors.iter().map(|&t| Fold { columns: vec![(t, 0)] }).collect()
            } else {
                let dist = |a: usize, b: usize| {
                    f64::from(cosine_distance(&vecs[survivors[a]], &vecs[survivors[b]]))
                };
                let labels = Hdbscan::new(HdbscanConfig::default())
                    .fit(n, dist, &Executor::single(), None)
                    .unwrap();
                groups_from_labels(&labels, n)
                    .into_iter()
                    .map(|g| Fold { columns: g.iter().map(|&l| (survivors[l], 0)).collect() })
                    .collect()
            };
            for threads in [1, 3] {
                let exec = Executor::new(threads);
                let got = folds_from_embedding(&lake, &embedded, &excluded, &exec, None).unwrap();
                proptest::prop_assert_eq!(&got, &want, "threads {}", threads);
            }
        }
    }

    #[test]
    fn embeddings_are_bit_identical_across_calls_and_thread_counts() {
        // One generated lake embedded twice in one process, then at four
        // threads: every table's vector keeps its bits, for the full
        // encoder and the row-sampling variant.
        let lake = matelda_lakegen::QuintetLake::default().generate(3).dirty;
        let bits = |e: EmbeddedLake| match e {
            EmbeddedLake::Vectors(v) => v
                .iter()
                .map(|t| t.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
                .collect::<Vec<_>>(),
            other => panic!("expected vectors, got {other:?}"),
        };
        for strategy in [DomainFolding::Hdbscan, DomainFolding::RowSampling(0.5)] {
            let embed = |exec: &Executor| bits(embed_lake(&lake, strategy, &encoder(), 7, exec));
            let first = embed(&Executor::single());
            assert_eq!(embed(&Executor::single()), first, "{strategy:?}: second call");
            assert_eq!(embed(&Executor::new(4)), first, "{strategy:?}: four threads");
        }
    }

    #[test]
    fn single_table_lake_single_fold() {
        let lake = Lake::new(vec![mixed_lake().tables[0].clone()]);
        let folds = domain_folds(&lake, DomainFolding::Hdbscan, &encoder(), 0);
        assert_eq!(folds.len(), 1);
        assert_eq!(folds[0].tables(), vec![0]);
    }
}
