//! Out-of-core detection: the full pipeline over a columnar on-disk
//! lake, at most one table per executor thread resident (DESIGN.md §14).
//!
//! [`Matelda::detect_out_of_core`] runs the same stage driver as
//! [`Matelda::detect`] with a columnar *table source*: embed and
//! featurize read each `.mtc` table inside its own work item and
//! featurize spills the table's features to disk; the fold, label and
//! classify stages then run against a *skeleton* lake (shapes only, no
//! cell values) — which is sound because every post-featurize stage
//! reads only table shapes under the supported configurations. The
//! result is **bit-identical** to [`Matelda::detect`] over the
//! materialized lake: same [`DetectionResult::digest`], at any thread
//! count and any chunk size. [`columnar_lake_fingerprint`] anchors the
//! input side of that contract — the streamed digest equals the
//! in-memory `lake_fingerprint`.
//!
//! Two configuration families *do* read cell values after
//! featurization and are rejected up front with
//! [`OutOfCoreError::Unsupported`] instead of silently misbehaving on
//! the empty skeleton values: the `+SF` syntactic refinement and the
//! unionability (Santos) folding strategies.

use crate::engine::TableSource;
use crate::pipeline::{DetectionResult, Durability, Matelda, RunError};
use crate::DomainFolding;
use matelda_table::chunked::{
    columnar_lake_fingerprint, columnar_paths_sorted, skeleton_lake, ChunkSource, ChunkedError,
    DEFAULT_CHUNK_LEN,
};
use matelda_table::oracle::Labeler;
use std::path::{Path, PathBuf};

/// Options for one [`Matelda::detect_out_of_core`] run.
#[derive(Debug, Clone)]
pub struct OutOfCoreOpts {
    /// Bytes per ranged read when streaming columnar data. Never changes
    /// result bits — only I/O granularity and peak memory.
    pub chunk_len: usize,
    /// Directory the per-table feature spills (`.mtf`) are written to.
    pub spill_dir: PathBuf,
}

impl OutOfCoreOpts {
    /// Default chunking into the given spill directory.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        OutOfCoreOpts { chunk_len: DEFAULT_CHUNK_LEN, spill_dir: spill_dir.into() }
    }
}

/// Why an out-of-core run could not produce a result.
#[derive(Debug)]
pub enum OutOfCoreError {
    /// The storage layer failed (reading the lake or writing a spill).
    /// Structured, not a panic: the storage fault matrix drives this
    /// path through the [`ChunkSource`] seam.
    Storage(ChunkedError),
    /// The configuration needs cell values after featurization, which
    /// the skeleton lake does not have.
    Unsupported(&'static str),
}

impl std::fmt::Display for OutOfCoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutOfCoreError::Storage(e) => write!(f, "out-of-core storage failure: {e}"),
            OutOfCoreError::Unsupported(what) => {
                write!(f, "configuration unsupported out of core: {what}")
            }
        }
    }
}

impl std::error::Error for OutOfCoreError {}

impl From<ChunkedError> for OutOfCoreError {
    fn from(e: ChunkedError) -> Self {
        OutOfCoreError::Storage(e)
    }
}

/// What one out-of-core run produced.
#[derive(Debug)]
pub struct OutOfCoreRun {
    /// The detection result — bit-identical (same
    /// [`DetectionResult::digest`]) to [`Matelda::detect`] over the
    /// materialized lake.
    pub result: DetectionResult,
    /// The streamed lake fingerprint; equals `lake_fingerprint` of the
    /// materialized lake.
    pub fingerprint: u64,
}

impl Matelda {
    /// Runs the pipeline over the columnar lake directory `dir` without
    /// ever materializing the lake: embed and featurize read each table
    /// inside its own executor work item (so at most `threads` tables
    /// are resident), featurize spills each table's features to
    /// [`OutOfCoreOpts::spill_dir`], and the fold/label/classify stages
    /// run on a shapes-only skeleton. All I/O goes through `src`, so
    /// passing the ckpt [`crate::Vfs`] puts the whole path under the
    /// storage fault matrix; a read or spill failure is returned as
    /// [`OutOfCoreError::Storage`] (the lowest failing table index wins,
    /// at any thread count).
    ///
    /// Fault isolation, the stage watchdog and the stage spans are the
    /// in-memory engine's own: a table whose embed or featurize panics
    /// (or times out) is quarantined under [`crate::FaultPolicy::Skip`]
    /// (or aborts the run under `Fail`), with the same quarantine record
    /// and fault log — and therefore the same digest — as
    /// [`Matelda::detect`] hitting the same faults.
    pub fn detect_out_of_core(
        &self,
        src: &dyn ChunkSource,
        dir: &Path,
        labeler: &mut dyn Labeler,
        budget: usize,
        opts: &OutOfCoreOpts,
    ) -> Result<OutOfCoreRun, OutOfCoreError> {
        let cfg = &self.config;
        if cfg.syntactic_refinement {
            return Err(OutOfCoreError::Unsupported(
                "syntactic refinement (+SF) reads cell values after featurization",
            ));
        }
        if matches!(cfg.domain_folding, DomainFolding::SantosLike | DomainFolding::SantosSketch(_))
        {
            return Err(OutOfCoreError::Unsupported(
                "unionability folding reads cell values lake-wide",
            ));
        }

        let paths = columnar_paths_sorted(src, dir).map_err(ChunkedError::Io)?;
        let skeleton = skeleton_lake(src, dir)?;
        let fingerprint = columnar_lake_fingerprint(src, dir, opts.chunk_len)?;

        let source = TableSource::Columnar {
            src,
            paths: &paths,
            chunk_len: opts.chunk_len,
            spill_dir: &opts.spill_dir,
        };
        let no_sink = Durability::default();
        let (result, _) = self
            .run_stages(&skeleton, source, &no_sink, labeler, budget, "detect_out_of_core")
            .map_err(|e| match e {
                RunError::Storage(e) => OutOfCoreError::Storage(e),
                RunError::Ckpt(e) => unreachable!("an out-of-core run has no checkpoint sink: {e}"),
            })?;
        Ok(OutOfCoreRun { result, fingerprint })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FaultPolicy, MateldaConfig};
    use matelda_lakegen::QuintetLake;
    use matelda_table::chunked::{read_lake_columnar, write_lake_columnar, StdFs};
    use matelda_table::fingerprint::lake_fingerprint;
    use matelda_table::{CellId, Column, Lake, Table};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("matelda_ooc_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// A deterministic, id-keyed labeler usable identically against the
    /// materialized lake and the skeleton.
    struct HashLabeler {
        used: usize,
    }

    impl Labeler for HashLabeler {
        fn label(&mut self, id: CellId) -> bool {
            self.used += 1;
            (id.table * 31 + id.row * 7 + id.col).is_multiple_of(3)
        }
        fn labels_used(&self) -> usize {
            self.used
        }
    }

    #[test]
    fn out_of_core_digest_matches_in_memory_at_every_thread_count() {
        let gen = QuintetLake { rows_per_table: 40, error_rate: 0.09 }.generate(11);
        let dir = tmpdir("equiv");
        let lake_dir = dir.join("lake");
        write_lake_columnar(&StdFs, &lake_dir, &gen.dirty).expect("write lake");
        // The columnar directory is read in file-name order, so the
        // reference lake must be too.
        let lake = read_lake_columnar(&StdFs, &lake_dir, 64 * 1024).expect("read lake");
        let reference = {
            let mut labeler = HashLabeler { used: 0 };
            Matelda::new(MateldaConfig::default()).detect(&lake, &mut labeler, 40)
        };
        assert!(reference.predicted.count() > 0, "reference run must predict something");
        for threads in [1usize, 2, 4] {
            for chunk_len in [7usize, 64 * 1024] {
                let spill = dir.join(format!("spill_{threads}_{chunk_len}"));
                let cfg = MateldaConfig { threads, ..Default::default() };
                let mut labeler = HashLabeler { used: 0 };
                let run = Matelda::new(cfg)
                    .detect_out_of_core(
                        &StdFs,
                        &lake_dir,
                        &mut labeler,
                        40,
                        &OutOfCoreOpts { chunk_len, spill_dir: spill },
                    )
                    .expect("out-of-core run");
                assert_eq!(
                    run.result.digest(),
                    reference.digest(),
                    "threads={threads} chunk_len={chunk_len}"
                );
                assert_eq!(run.result.predicted, reference.predicted);
                assert_eq!(run.fingerprint, lake_fingerprint(&lake));
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn out_of_core_rejects_value_reading_configs() {
        let dir = tmpdir("reject");
        let lake = Lake::new(vec![Table::new("t", vec![Column::new("a", ["1", "2"])])]);
        write_lake_columnar(&StdFs, &dir, &lake).expect("write");
        let opts = OutOfCoreOpts::new(dir.join("spill"));
        let mut labeler = HashLabeler { used: 0 };
        let sf = MateldaConfig { syntactic_refinement: true, ..Default::default() };
        assert!(matches!(
            Matelda::new(sf).detect_out_of_core(&StdFs, &dir, &mut labeler, 5, &opts),
            Err(OutOfCoreError::Unsupported(_))
        ));
        let santos =
            MateldaConfig { domain_folding: DomainFolding::SantosLike, ..Default::default() };
        assert!(matches!(
            Matelda::new(santos).detect_out_of_core(&StdFs, &dir, &mut labeler, 5, &opts),
            Err(OutOfCoreError::Unsupported(_))
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn out_of_core_respects_the_mem_budget_degradation_contract() {
        let gen = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(5);
        let dir = tmpdir("budget");
        let lake_dir = dir.join("lake");
        write_lake_columnar(&StdFs, &lake_dir, &gen.dirty).expect("write lake");
        let cfg = MateldaConfig {
            mem_budget_bytes: Some(64),
            on_error: FaultPolicy::Skip,
            ..Default::default()
        };
        let mut labeler = HashLabeler { used: 0 };
        let run = Matelda::new(cfg)
            .detect_out_of_core(
                &StdFs,
                &lake_dir,
                &mut labeler,
                20,
                &OutOfCoreOpts::new(dir.join("spill")),
            )
            .expect("degraded run completes");
        assert_eq!(run.result.n_domain_folds, 1, "degrades to extreme domain folding");
        assert!(run.result.report.faults.iter().any(|f| f.stage == "domain_folds"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    // Satellite 4: arbitrary chunk sizes — including ones that split a
    // quoted CSV record across chunk boundaries — never change the
    // fingerprint or the detection digest at any thread count.
    mod equivalence_props {
        use super::*;
        use matelda_table::chunked::csv_dir_to_columnar;
        use matelda_table::csv::write_table;
        use proptest::prelude::*;

        /// Hostile value palette: quotes, commas, CR/LF inside quoted
        /// fields — every chunk size 1..48 lands mid-record somewhere.
        fn palette(i: usize) -> String {
            const P: &[&str] = &[
                "plain",
                "com,ma",
                "qu\"ote",
                "line\nbreak",
                "crlf\r\nmix",
                "",
                "\"lead",
                "trail\"",
                "a,b\"c\nd",
            ];
            P[i % P.len()].to_string()
        }

        fn hostile_lake(shape_seed: usize) -> Lake {
            let tables = (0..2)
                .map(|t| {
                    let cols = (0..3)
                        .map(|c| {
                            let values: Vec<String> =
                                (0..6).map(|r| palette(shape_seed + t * 17 + c * 5 + r)).collect();
                            Column::new(format!("c{c}"), values)
                        })
                        .collect();
                    Table::new(format!("t{t}"), cols)
                })
                .collect();
            Lake::new(tables)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(5))]
            #[test]
            fn chunked_csv_to_detection_is_chunk_and_thread_invariant(
                chunk_len in 1usize..48,
                shape_seed in 0usize..32,
            ) {
                let lake = hostile_lake(shape_seed);
                let dir = tmpdir(&format!("prop_{chunk_len}_{shape_seed}"));
                let csv_dir = dir.join("csv");
                std::fs::create_dir_all(&csv_dir).expect("mkdir");
                for t in &lake.tables {
                    std::fs::write(csv_dir.join(format!("{}.csv", t.name)), write_table(t))
                        .expect("write csv");
                }
                let col_dir = dir.join("columnar");
                // The CSV → columnar conversion reads records through
                // the chunked splitter at this chunk size.
                csv_dir_to_columnar(&StdFs, &csv_dir, &col_dir, chunk_len).expect("convert");
                let materialized =
                    read_lake_columnar(&StdFs, &col_dir, chunk_len).expect("read back");
                prop_assert_eq!(&materialized, &lake, "CSV round trip");
                let reference = {
                    let mut labeler = HashLabeler { used: 0 };
                    Matelda::new(MateldaConfig::default()).detect(&lake, &mut labeler, 6)
                };
                for threads in [1usize, 2, 4] {
                    let cfg = MateldaConfig { threads, ..Default::default() };
                    let mut labeler = HashLabeler { used: 0 };
                    let run = Matelda::new(cfg)
                        .detect_out_of_core(
                            &StdFs,
                            &col_dir,
                            &mut labeler,
                            6,
                            &OutOfCoreOpts {
                                chunk_len,
                                spill_dir: dir.join(format!("spill{threads}")),
                            },
                        )
                        .expect("out-of-core");
                    prop_assert_eq!(run.fingerprint, lake_fingerprint(&lake));
                    prop_assert_eq!(run.result.digest(), reference.digest());
                }
                std::fs::remove_dir_all(&dir).expect("cleanup");
            }
        }
    }
}
