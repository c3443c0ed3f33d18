//! The staged pipeline engine.
//!
//! [`Matelda::detect`](crate::Matelda::detect) used to be a monolith; it
//! is now a composition of six typed stages, each consuming and
//! producing an explicit artifact:
//!
//! ```text
//! EmbedStage        ()                                → EmbeddedLake
//! FeaturizeStage    ()                                → FeaturizedLake
//! DomainFoldStage   &EmbeddedLake                     → DomainFolds
//! QualityFoldStage  (&DomainFolds, &FeaturizedLake)   → QualityFolds
//! LabelStage        (&QualityFolds, &FeaturizedLake)  → PropagatedLabels
//! ClassifyStage     (&DomainFolds, &FeaturizedLake, &PropagatedLabels) → Predictions
//! ```
//!
//! Every stage implements [`Stage`] and runs inside a [`StageContext`]
//! carrying the lake, the configuration (which holds the seed), the
//! deterministic [`Executor`] and the accumulating [`RunReport`].
//! Callers can run the stages end-to-end (what `detect` does), resume
//! from any persisted artifact, or swap one stage for a custom
//! implementation — the artifacts are the contract.
//!
//! ## Determinism
//!
//! Four hot paths run on the executor: per-table embedding, per-table
//! featurization, per-domain-fold mini-batch k-means and per-column (or
//! per-fold) classifier training. The executor merges results in index
//! order and every stochastic stage derives a per-index seed, so the
//! output of every stage — and hence of the whole pipeline — is
//! bit-identical at any thread count.
//!
//! ## Fault isolation
//!
//! The four hot paths run through one private primitive,
//! `StageContext::map_or_degrade`: it maps the work on
//! [`Executor::try_map_n`] under the stage deadline, which converts a
//! panic in one work item into a per-index fault instead of killing the
//! run, gives each faulted index its stage's fallback in index order and
//! hands the faults to [`StageContext::note_faults`] once. Under
//! [`crate::pipeline::FaultPolicy::Skip`] each stage then degrades by
//! its contract:
//!
//! * **embed / featurize** — the faulted *table* is quarantined: removed
//!   from domain folding and classification, its cells left unscored.
//!   The two per-table stages run *before* cross-table clustering, so a
//!   quarantined table never influences the folds — survivor predictions
//!   are bit-identical to a faultless run on the lake minus the
//!   quarantined tables.
//! * **quality_folds** — the faulted *domain fold* falls back to a single
//!   quality fold around the mean feature vector (one label instead of
//!   its budget share).
//! * **classify** — the faulted *column* (or fold) falls back to its
//!   propagated labels as predictions.
//!
//! Every fault is logged in the [`RunReport`]; what was quarantined or
//! degraded is summarized in the [`QuarantineReport`].
//!
//! ## Watchdog deadlines
//!
//! With [`MateldaConfig::stage_timeout`] set, [`Stage::run`] arms a
//! [`Deadline`] for the duration of the stage body. Work items claimed
//! past the deadline are not run — they fault with
//! [`matelda_exec::DEADLINE_FAULT`] and take exactly the degradation
//! paths above under [`FaultPolicy::Skip`], or abort the run under
//! [`FaultPolicy::Fail`] (with any checkpoints already committed left
//! intact). Items already running are never interrupted, and the
//! `domain_folds` and `label` stages are unguarded (whole-lake
//! clustering has no per-item unit to skip; the labeler is a
//! sequential, possibly-human oracle). Deterministic tests arm the
//! `timeout:<stage>` faultpoint instead of relying on wall-clock
//! sleeps.

use crate::domain_fold::{
    embed_table_for, folds_from_embedding, refine_syntactic, DomainFolding, Fold,
};
use crate::pipeline::{FaultPolicy, LabelingStrategy, MateldaConfig, TrainingStrategy};
use crate::quality_fold::{
    budget_per_fold, nearest_members, quality_folds, single_quality_fold, FoldMembership,
    QualityFold,
};
use matelda_cluster::kmeans::sq_dist;
use matelda_cluster::MiniBatchKMeansConfig;
use matelda_detect::{featurize_table, load_features, spill_features, spill_path, CellFeatures};
use matelda_embed::encoder::HashedEncoder;
use matelda_exec::{faultpoint, Deadline, Executor, ItemFault, RunReport, StageReport};
use matelda_ml::FittedClassifier;
use matelda_obs::{Buckets, Obs, ProcMemory, Val};
use matelda_table::chunked::{ChunkSource, ChunkedError, ColumnarReader};
use matelda_table::oracle::Labeler;
use matelda_table::{CellId, CellMask, Lake, Table};
use matelda_text::SpellChecker;
use std::borrow::Cow;
use std::path::{Path, PathBuf};

pub use crate::domain_fold::EmbeddedLake;

/// What a degraded run gave up on: the units that faulted under
/// [`FaultPolicy::Skip`] and the fallback each one took. Empty for a
/// faultless run (and always empty under [`FaultPolicy::Fail`], which
/// aborts instead). All lists are sorted and duplicate-free once
/// [`QuarantineReport::normalize`] has run (`detect` calls it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Tables whose embedding or featurization faulted: excluded from
    /// domain folding and classification, their cells unscored (never
    /// flagged in the prediction mask).
    pub tables: Vec<usize>,
    /// Columns `(table, column)` whose classifier faulted: their
    /// predictions fell back to the propagated labels.
    pub columns: Vec<(usize, usize)>,
    /// Domain folds whose quality-fold clustering faulted: degraded to a
    /// single quality fold around the mean feature vector.
    pub fold_fallbacks: Vec<usize>,
}

impl QuarantineReport {
    /// `true` when nothing was quarantined or degraded.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.columns.is_empty() && self.fold_fallbacks.is_empty()
    }

    /// Sorts and deduplicates every list (stage bodies push in merge
    /// order, which is already sorted, but fallback columns of one fold
    /// can interleave with another's).
    pub fn normalize(&mut self) {
        self.tables.sort_unstable();
        self.tables.dedup();
        self.columns.sort_unstable();
        self.columns.dedup();
        self.fold_fallbacks.sort_unstable();
        self.fold_fallbacks.dedup();
    }

    /// Whether `table` is quarantined.
    pub fn table_quarantined(&self, table: usize) -> bool {
        self.tables.contains(&table)
    }
}

/// Where the per-table stages ([`EmbedStage`], [`FeaturizeStage`]) read
/// cell values from — the driver's *table source* seam.
pub(crate) enum TableSource<'a> {
    /// The resident [`StageContext::lake`].
    Resident,
    /// A columnar lake directory: the context's lake is a shapes-only
    /// skeleton, each work item reads its own table through `src`, and
    /// featurize spills each table's features to `spill_dir` for the
    /// driver to reload (see [`StageContext::reload_spills`]).
    Columnar {
        src: &'a dyn ChunkSource,
        paths: &'a [PathBuf],
        chunk_len: usize,
        spill_dir: &'a Path,
    },
}

/// Everything a stage needs besides its input artifact: the lake, the
/// configuration slice (strategy knobs and the seed), the deterministic
/// executor, and the run-wide instrumentation the stage appends to.
pub struct StageContext<'a> {
    /// The dirty lake under detection.
    pub lake: &'a Lake,
    /// The full pipeline configuration (stages read their slice of it).
    pub config: &'a MateldaConfig,
    /// The deterministic parallel executor every hot path maps on.
    pub executor: Executor,
    /// Accumulated per-stage instrumentation.
    pub report: RunReport,
    /// Accumulated degradation decisions (see [`QuarantineReport`]).
    pub quarantine: QuarantineReport,
    /// The watchdog deadline of the stage currently executing, set by
    /// [`Stage::run`] from [`MateldaConfig::stage_timeout`]. Work items
    /// claimed past the deadline fault with
    /// [`matelda_exec::DEADLINE_FAULT`] and take the same degradation
    /// paths as a panicked item.
    pub deadline: Option<Deadline>,
    /// The run's observability handle: stage spans, the metrics
    /// registry and the event log all append here. Disabled by default
    /// — recording never influences results (DESIGN.md §7).
    pub obs: Obs,
    /// Where embed and featurize read cell values (resident by default).
    pub(crate) source: TableSource<'a>,
    /// The lowest-index storage failure of the last per-table stage; the
    /// driver returns it as a structured error, never a fault.
    storage_error: Option<ChunkedError>,
}

impl<'a> StageContext<'a> {
    /// Builds a context for one run; the executor honours
    /// [`MateldaConfig::threads`] (`0` = available parallelism).
    pub fn new(lake: &'a Lake, config: &'a MateldaConfig) -> Self {
        Self::with_obs(lake, config, Obs::disabled())
    }

    /// [`StageContext::new`] with a recording observability handle; the
    /// executor shares it, so worker spans nest under the stage spans.
    pub fn with_obs(lake: &'a Lake, config: &'a MateldaConfig, obs: Obs) -> Self {
        // One persistent worker pool per run: the Executor owns it, every
        // stage maps through this one instance (clones share the pool),
        // and its threads wind down when the context drops.
        let executor = Executor::new(config.threads);
        Self::with_executor(lake, config, obs, executor)
    }

    /// [`StageContext::with_obs`] against a caller-supplied executor —
    /// the seam that lets a daemon run many concurrent detections on one
    /// shared worker pool instead of spawning a pool per request. The
    /// executor is re-bound to `obs` so worker spans land in *this*
    /// run's trace, not a previous tenant's; `config.threads` is ignored
    /// in favour of the executor's own width (thread count never changes
    /// result bits).
    pub fn with_executor(
        lake: &'a Lake,
        config: &'a MateldaConfig,
        obs: Obs,
        executor: Executor,
    ) -> Self {
        let executor = executor.with_obs(obs.clone());
        let report = RunReport::new(executor.threads());
        StageContext {
            lake,
            config,
            executor,
            report,
            quarantine: QuarantineReport::default(),
            deadline: None,
            obs,
            source: TableSource::Resident,
            storage_error: None,
        }
    }

    /// The per-index seed for parallel stochastic work: mixes `index`
    /// into the configured seed so results are independent of execution
    /// order.
    pub fn seed_for(&self, index: usize) -> u64 {
        self.config.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Applies the configured [`FaultPolicy`] to a stage's fault batch:
    /// under `Fail` the first fault is re-raised as a panic (the
    /// historical all-or-nothing behavior), under `Skip` the faults are
    /// appended to the run's fault log and the caller degrades.
    pub fn note_faults(&mut self, faults: Vec<ItemFault>) {
        if faults.is_empty() {
            return;
        }
        if self.obs.is_enabled() {
            // Logged before any `Fail` panic so an aborted run's trace
            // still shows what killed it.
            for f in &faults {
                let injected = f.message.starts_with(faultpoint::INJECTED_PREFIX);
                self.obs.event(
                    "fault.item",
                    &[
                        ("stage", Val::S(&f.stage)),
                        ("index", Val::U(f.index as u64)),
                        ("injected", Val::U(u64::from(injected))),
                        ("message", Val::S(&f.message)),
                    ],
                );
            }
            self.obs.counter_add("faults.items", faults.len() as u64);
        }
        if self.config.on_error == FaultPolicy::Fail {
            panic!("{}", faults[0]);
        }
        self.report.faults.extend(faults);
    }

    /// Marks a table quarantined (idempotent).
    pub fn quarantine_table(&mut self, table: usize) {
        if !self.quarantine.tables.contains(&table) {
            self.quarantine.tables.push(table);
        }
    }

    /// Table `ti` with its cell values: borrowed from a resident lake, or
    /// read through the columnar source.
    fn table(&self, ti: usize) -> Result<Cow<'_, Table>, ChunkedError> {
        match &self.source {
            TableSource::Resident => Ok(Cow::Borrowed(&self.lake.tables[ti])),
            TableSource::Columnar { src, paths, chunk_len, .. } => {
                Ok(Cow::Owned(ColumnarReader::open(*src, &paths[ti])?.read_table(*chunk_len)?))
            }
        }
    }

    /// Maps `f` over `0..n` on the executor, fault-isolated and under the
    /// stage's watchdog deadline, then applies the fault policy: each
    /// faulted index, in index order, takes `degrade(self, i)` as its
    /// value, and the faults go to [`StageContext::note_faults`] in one
    /// batch (which aborts the run under [`FaultPolicy::Fail`]).
    fn map_or_degrade<R: Send>(
        &mut self,
        stage: &str,
        n: usize,
        f: impl Fn(&Self, usize) -> R + Sync,
        mut degrade: impl FnMut(&mut Self, usize) -> R,
    ) -> Vec<R> {
        let this = &*self;
        let results = this.executor.try_map_n(stage, n, this.deadline, |i| f(this, i));
        let mut faults = Vec::new();
        let out = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|fault| {
                    faults.push(fault);
                    degrade(self, i)
                })
            })
            .collect();
        self.note_faults(faults);
        out
    }

    /// [`StageContext::map_or_degrade`] over every table. `f` reads its
    /// table through [`StageContext::table`] inside its own work item, so
    /// a columnar source has at most `executor.threads()` tables
    /// resident. A faulted table is quarantined and its slot holds
    /// `placeholder(ti)`; so is a table whose storage failed, which is no
    /// fault — the lowest-index failure waits for
    /// [`StageContext::storage_failure`].
    fn map_tables<R: Send>(
        &mut self,
        stage: &str,
        placeholder: impl Fn(usize) -> R,
        f: impl Fn(&Self, usize) -> Result<R, ChunkedError> + Sync,
    ) -> Vec<R> {
        let results = self.map_or_degrade(stage, self.lake.n_tables(), f, |ctx, ti| {
            ctx.quarantine_table(ti);
            Ok(placeholder(ti))
        });
        results
            .into_iter()
            .enumerate()
            .map(|(ti, r)| {
                r.unwrap_or_else(|e| {
                    self.storage_error.get_or_insert(e);
                    placeholder(ti)
                })
            })
            .collect()
    }

    /// Takes the storage failure of the last per-table stage, if any.
    pub(crate) fn storage_failure(&mut self) -> Result<(), ChunkedError> {
        self.storage_error.take().map_or(Ok(()), Err)
    }

    /// After featurize: a columnar source reloads every surviving table's
    /// `.mtf` spill in place of its placeholder; a resident one passes
    /// the features through.
    pub(crate) fn reload_spills(
        &mut self,
        mut featurized: FeaturizedLake,
    ) -> Result<FeaturizedLake, ChunkedError> {
        self.storage_failure()?;
        if let TableSource::Columnar { src, spill_dir, .. } = &self.source {
            for (ti, f) in featurized.features.iter_mut().enumerate() {
                if !self.quarantine.table_quarantined(ti) {
                    *f = load_features(*src, &spill_path(spill_dir, ti))?;
                }
            }
        }
        Ok(featurized)
    }
}

/// One pipeline stage: a named transformation from an input artifact to
/// an output artifact. `Input` is a generic associated type so stages
/// can borrow earlier artifacts without taking ownership.
pub trait Stage {
    /// What the stage consumes (typically references to prior artifacts).
    type Input<'i>;
    /// The artifact the stage produces.
    type Output;

    /// Stage name as it appears in the [`RunReport`].
    fn name(&self) -> &'static str;

    /// The stage body. Annotate `stage` with items processed and any
    /// named metrics; wall time is recorded by [`Stage::run`].
    fn execute<'i>(
        &mut self,
        ctx: &mut StageContext<'_>,
        input: Self::Input<'i>,
        stage: &mut StageReport,
    ) -> Self::Output;

    /// Runs the stage under the context's timer and the configured
    /// watchdog deadline, then appends its report. The stage span is
    /// also the report's timer (one monotonic source); with a recording
    /// handle the stage's counters and metrics land in the registry, its
    /// resident memory at open and close (Linux only) lands in the span
    /// and in `stage.{rss,hwm,rss_delta}_bytes.<stage>` gauges, and a
    /// `stage.end` event marks the boundary in the run log.
    fn run<'i>(&mut self, ctx: &mut StageContext<'_>, input: Self::Input<'i>) -> Self::Output {
        let name = self.name();
        let mut stage = StageReport::new(name);
        let traced = ctx.obs.is_enabled();
        let memory = || traced.then(ProcMemory::read).flatten();
        let at_open = memory();
        let mut span = ctx.obs.span_scope("stage", name);
        ctx.deadline = ctx.config.stage_timeout.map(Deadline::after);
        let out = self.execute(ctx, input, &mut stage);
        ctx.deadline = None;
        span.arg("items", stage.items as f64);
        let gauges = at_open.zip(memory()).map_or_else(Vec::new, |(open, close)| {
            span.arg("rss_open_bytes", open.rss_bytes as f64);
            vec![
                ("rss_bytes", close.rss_bytes as f64),
                ("hwm_bytes", close.hwm_bytes as f64),
                ("rss_delta_bytes", close.rss_bytes as f64 - open.rss_bytes as f64),
            ]
        });
        for &(key, value) in &gauges {
            span.arg(key, value);
        }
        stage.wall_secs = span.finish_secs();
        if traced {
            for &(key, value) in &gauges {
                ctx.obs.gauge_set(&format!("stage.{key}.{name}"), value);
            }
            ctx.obs.counter_add(&format!("stage.items.{name}"), stage.items);
            if stage.wall_secs > 0.0 {
                ctx.obs.gauge_set(
                    &format!("stage.items_per_sec.{name}"),
                    stage.items as f64 / stage.wall_secs,
                );
            }
            for (k, v) in &stage.metrics {
                ctx.obs.gauge_set(&format!("stage.{name}.{k}"), *v);
            }
            ctx.obs.event("stage.end", &[("stage", Val::S(name)), ("items", Val::U(stage.items))]);
        }
        ctx.report.stages.push(stage);
        out
    }
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

/// Step-1 output: the domain folds (after any `+SF` refinement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainFolds {
    /// The folds; every table's columns appear in exactly one fold.
    pub folds: Vec<Fold>,
}

/// The unified detector feature space, one matrix per table.
#[derive(Debug, Clone)]
pub struct FeaturizedLake {
    /// Per-table cell features, indexed like `lake.tables`.
    pub features: Vec<CellFeatures>,
}

impl FeaturizedLake {
    /// The feature vector of one cell.
    pub fn of(&self, id: CellId) -> &[f32] {
        self.features[id.table].get(id.row, id.col)
    }
}

/// One quality fold plus its provenance and labeling eligibility.
#[derive(Debug, Clone)]
pub struct QualityFoldEntry {
    /// Index of the domain fold this quality fold was carved from.
    pub domain_fold: usize,
    /// The fold itself.
    pub fold: QualityFold,
    /// Whether Step 3 spends a label on this fold (TUCF leaves the
    /// smaller half of each domain fold's quality folds unlabeled).
    pub labeled: bool,
}

/// Step-2 output: all quality folds, which of them each cell landed in,
/// and the per-domain-fold budget split that shaped them.
#[derive(Debug, Clone)]
pub struct QualityFolds {
    /// Quality folds in deterministic (domain fold, cluster) order: each
    /// domain fold's folds are contiguous, in its membership's local
    /// index order.
    pub entries: Vec<QualityFoldEntry>,
    /// Labels allocated to each domain fold (clamped to the budget).
    pub budgets: Vec<usize>,
    /// Per domain fold, which of its quality folds each of its cells
    /// landed in (empty for a domain fold that formed none).
    pub members: Vec<FoldMembership>,
}

impl QualityFolds {
    /// Total quality folds formed.
    pub fn n_total(&self) -> usize {
        self.entries.len()
    }

    /// Domain fold `fi`'s quality folds; a member's local index in
    /// [`QualityFolds::members`]`[fi]` indexes this slice.
    pub fn entries_of(&self, fi: usize) -> &[QualityFoldEntry] {
        let first = self.entries.partition_point(|e| e.domain_fold < fi);
        let end = self.entries.partition_point(|e| e.domain_fold <= fi);
        &self.entries[first..end]
    }

    /// Every clustered cell, domain fold by domain fold in fold order,
    /// each with its quality fold's index in [`QualityFolds::entries`].
    pub fn cells<'a>(&'a self, lake: &'a Lake) -> impl Iterator<Item = (CellId, usize)> + 'a {
        self.members.iter().enumerate().flat_map(move |(fi, membership)| {
            let first = self.entries.partition_point(|e| e.domain_fold < fi);
            membership.cells(lake).map(move |(id, q)| (id, first + q))
        })
    }
}

/// One labeled quality fold: the anchor cell that was shown to the
/// labeler and the verdict that was propagated to the members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledFold {
    /// The quality fold's index in [`QualityFolds::entries`].
    pub fold: usize,
    /// The cell nearest the centroid, which was labeled.
    pub anchor: CellId,
    /// The labeler's verdict for the anchor.
    pub verdict: bool,
}

/// Steps 3+4 output: per-cell propagated labels and the labeled folds.
#[derive(Debug, Clone)]
pub struct PropagatedLabels {
    /// Row-major per-table label grid; `None` = unlabeled cell.
    pub labels: Vec<Vec<Option<bool>>>,
    /// The folds that received a label, in entry order, with their
    /// anchors.
    pub labeled_folds: Vec<LabeledFold>,
    /// Labels actually drawn from the labeler.
    pub labels_used: usize,
}

/// Step-5 output: the predicted error mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predictions {
    /// Cells predicted erroneous.
    pub mask: CellMask,
}

// ---------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------

/// Embeds the lake for domain folding (parallel per table).
pub struct EmbedStage {
    /// The hashed table encoder.
    pub encoder: HashedEncoder,
}

impl EmbedStage {
    /// Builds the stage from the run configuration.
    pub fn from_config(config: &MateldaConfig) -> Self {
        EmbedStage { encoder: HashedEncoder::new(config.encoder.clone()) }
    }
}

impl Stage for EmbedStage {
    type Input<'i> = ();
    type Output = EmbeddedLake;

    fn name(&self) -> &'static str {
        "embed"
    }

    fn execute<'i>(
        &mut self,
        ctx: &mut StageContext<'_>,
        _input: (),
        stage: &mut StageReport,
    ) -> EmbeddedLake {
        let cfg = ctx.config;
        let out = match cfg.domain_folding {
            // Per-table strategies are fault-isolated: a table whose
            // embedding panics is quarantined (empty placeholder vector,
            // never clustered) and the run continues.
            DomainFolding::Hdbscan | DomainFolding::RowSampling(_) => {
                let encoder = &self.encoder;
                EmbeddedLake::Vectors(ctx.map_tables(
                    self.name(),
                    |_| Vec::new(),
                    |ctx, ti| {
                        let table = ctx.table(ti)?;
                        faultpoint::hit("embed", ti);
                        Ok(embed_table_for(cfg.domain_folding, encoder, cfg.seed, ti, &table))
                    },
                ))
            }
            // Whole-lake strategies (EDF, Santos) have no per-table unit
            // of work to isolate; they run unguarded.
            _ => crate::domain_fold::embed_lake(
                ctx.lake,
                cfg.domain_folding,
                &self.encoder,
                cfg.seed,
                &ctx.executor,
            ),
        };
        stage.items = ctx.lake.n_tables() as u64;
        if let EmbeddedLake::Vectors(v) = &out {
            let dims = v.iter().find(|e| !e.is_empty()).map_or(0.0, |e| e.len() as f64);
            stage.metrics.push(("dims".into(), dims));
        }
        out
    }
}

/// Column groups per domain fold under `+SF`: the paper's refinement
/// separates columns by type, character distribution and length
/// signature, which yields many small groups; 8 per fold realizes that
/// granularity.
const SYNTACTIC_GROUPS: usize = 8;

/// Clusters the embedding into domain folds and applies the optional
/// `+SF` syntactic refinement.
pub struct DomainFoldStage;

impl Stage for DomainFoldStage {
    type Input<'i> = &'i EmbeddedLake;
    type Output = DomainFolds;

    fn name(&self) -> &'static str {
        "domain_folds"
    }

    fn execute<'i>(
        &mut self,
        ctx: &mut StageContext<'_>,
        embedded: &EmbeddedLake,
        stage: &mut StageReport,
    ) -> DomainFolds {
        let cfg = ctx.config;
        // Quarantined tables are excluded *before* clustering, so the
        // survivors fold exactly as they would in a lake without the
        // quarantined tables.
        let mut folds = match folds_from_embedding(
            ctx.lake,
            embedded,
            &ctx.quarantine.tables,
            &ctx.executor,
            cfg.mem_budget_bytes,
        ) {
            Ok(folds) => folds,
            Err(scale_err) => {
                // Clustering would blow the byte budget. Fault the stage
                // (aborts under `FaultPolicy::Fail`) and degrade to
                // extreme domain folding: one fold of all surviving
                // tables, which allocates nothing quadratic.
                ctx.note_faults(vec![ItemFault::new(self.name(), 0, scale_err.to_string())]);
                stage.metrics.push(("budget_degraded".into(), 1.0));
                let trivial = &EmbeddedLake::Trivial;
                folds_from_embedding(ctx.lake, trivial, &ctx.quarantine.tables, &ctx.executor, None)
                    .expect("no budget")
            }
        };
        if cfg.syntactic_refinement {
            folds = refine_syntactic(ctx.lake, folds, SYNTACTIC_GROUPS);
        }
        stage.items = ctx.lake.n_tables() as u64;
        stage.metrics.push(("folds".into(), folds.len() as f64));
        DomainFolds { folds }
    }
}

/// Computes the unified detector features (parallel per table).
pub struct FeaturizeStage {
    /// The dictionary the typo detectors consult.
    pub spell: SpellChecker,
}

impl Default for FeaturizeStage {
    fn default() -> Self {
        FeaturizeStage { spell: SpellChecker::english() }
    }
}

impl Stage for FeaturizeStage {
    type Input<'i> = ();
    type Output = FeaturizedLake;

    fn name(&self) -> &'static str {
        "featurize"
    }

    fn execute<'i>(
        &mut self,
        ctx: &mut StageContext<'_>,
        _input: (),
        stage: &mut StageReport,
    ) -> FeaturizedLake {
        let spell = &self.spell;
        let config = ctx.config;
        let lake = ctx.lake;
        // Tables already quarantined (embed faults) get an empty
        // placeholder; any accidental feature access on one is an
        // out-of-bounds panic rather than silent garbage.
        let placeholder =
            |ti: usize| CellFeatures::zeros(lake[ti].n_cols(), 0, matelda_detect::FEATURE_DIM);
        let quarantined: Vec<bool> =
            (0..lake.n_tables()).map(|t| ctx.quarantine.table_quarantined(t)).collect();
        // A columnar source spills each table's features inside its own
        // work item and keeps a placeholder; the driver reloads them.
        let features = ctx.map_tables(self.name(), placeholder, |ctx, ti| {
            if quarantined[ti] {
                return Ok(placeholder(ti));
            }
            let table = ctx.table(ti)?;
            faultpoint::hit("featurize", ti);
            let features = featurize_table(&table, spell, &config.features);
            match &ctx.source {
                TableSource::Resident => Ok(features),
                TableSource::Columnar { src, spill_dir, .. } => {
                    spill_features(*src, &spill_path(spill_dir, ti), &features)?;
                    Ok(placeholder(ti))
                }
            }
        });
        stage.items = lake.n_cells() as u64;
        FeaturizedLake { features }
    }
}

/// Splits the budget over domain folds and clusters each fold's cells
/// into quality folds (parallel per domain fold).
pub struct QualityFoldStage {
    /// The labeling budget this stage may allocate (Step 2's share).
    pub budget: usize,
}

impl Stage for QualityFoldStage {
    type Input<'i> = (&'i DomainFolds, &'i FeaturizedLake);
    type Output = QualityFolds;

    fn name(&self) -> &'static str {
        "quality_folds"
    }

    fn execute<'i>(
        &mut self,
        ctx: &mut StageContext<'_>,
        (domain, featurized): (&DomainFolds, &FeaturizedLake),
        stage: &mut StageReport,
    ) -> QualityFolds {
        let cfg = ctx.config;
        let budgets = budget_per_fold(&domain.folds, self.budget);
        let tucf = cfg.training == TrainingStrategy::UnlabeledCellFolds;
        let fold_multiplier = if tucf { 2 } else { 1 };

        // Per-domain-fold clustering, parallel with per-fold seeds.
        // Zero-budget folds (the clamp can starve them) are skipped:
        // they may spend no labels, so clustering them buys nothing —
        // and since they spend nothing, they have no fault point either
        // (a fallback fold would overspend the budget).
        let per_fold = ctx.map_or_degrade(
            self.name(),
            domain.folds.len(),
            |ctx, fi| {
                let k = budgets[fi] * fold_multiplier;
                if k == 0 {
                    return (Vec::new(), FoldMembership::default());
                }
                faultpoint::hit("quality_folds", fi);
                let kmeans = MiniBatchKMeansConfig {
                    k,
                    batch_size: cfg.kmeans_batch,
                    iterations: cfg.kmeans_iterations,
                    seed: ctx.seed_for(fi),
                };
                let (qfolds, membership) = quality_folds(
                    ctx.lake,
                    &domain.folds[fi],
                    &featurized.features,
                    kmeans,
                    &ctx.obs,
                );
                // TUCF labels only the `budgets[fi]` largest folds;
                // otherwise every fold is labeled.
                let labeled: Vec<bool> = if tucf {
                    let sizes = membership.sizes(qfolds.len());
                    let mut order: Vec<usize> = (0..qfolds.len()).collect();
                    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
                    let mut flag = vec![false; qfolds.len()];
                    for &i in order.iter().take(budgets[fi]) {
                        flag[i] = true;
                    }
                    flag
                } else {
                    vec![true; qfolds.len()]
                };
                let entries = qfolds
                    .into_iter()
                    .zip(labeled)
                    .map(|(fold, labeled)| QualityFoldEntry { domain_fold: fi, fold, labeled })
                    .collect();
                (entries, membership)
            },
            |ctx, fi| {
                ctx.quarantine.fold_fallbacks.push(fi);
                // Degrade: the whole domain fold as one labeled quality
                // fold around the mean feature vector — but only when
                // this fold may spend a label. A panic fault implies
                // `budgets[fi] >= 1` (the fault point sits after the
                // zero-budget check); a watchdog deadline can pre-empt a
                // zero-budget item too, and a fallback fold there would
                // overspend the budget.
                let single = (budgets[fi] > 0)
                    .then(|| single_quality_fold(ctx.lake, &domain.folds[fi], &featurized.features))
                    .flatten();
                match single {
                    Some((fold, membership)) => (
                        vec![QualityFoldEntry { domain_fold: fi, fold, labeled: true }],
                        membership,
                    ),
                    None => (Vec::new(), FoldMembership::default()),
                }
            },
        );
        let (entries, members): (Vec<Vec<QualityFoldEntry>>, Vec<FoldMembership>) =
            per_fold.into_iter().unzip();
        let entries = entries.into_iter().flatten().collect();
        let quality = QualityFolds { entries, budgets, members };

        let budget: usize = quality.budgets.iter().sum();
        stage.items = quality.members.iter().map(|m| m.index.len() as u64).sum();
        stage.metrics.push(("folds_formed".into(), quality.n_total() as f64));
        stage.metrics.push(("budget".into(), budget as f64));
        if ctx.obs.is_enabled() {
            for (fi, m) in quality.members.iter().enumerate() {
                for size in m.sizes(quality.entries_of(fi).len()) {
                    ctx.obs.record("quality_folds.fold_size", size as f64, Buckets::Size);
                }
            }
            ctx.obs.counter_add("quality_folds.budget", budget as u64);
        }
        quality
    }
}

/// The labels Step 2 plans for: the whole `budget`, or half of it when
/// [`LabelingStrategy::UncertaintyRefinement`] (with per-column training
/// and at least 4 labels) reserves the rest for [`LabelStage`]'s
/// refinement phase.
pub(crate) fn phase1_budget(config: &MateldaConfig, budget: usize) -> usize {
    let adaptive = config.labeling == LabelingStrategy::UncertaintyRefinement
        && config.training == TrainingStrategy::PerColumn
        && budget >= 4;
    if adaptive {
        budget.div_ceil(2)
    } else {
        budget
    }
}

/// Samples each labeled quality fold's anchor, queries the labeler and
/// propagates the verdict (Steps 3+4), then optionally spends the
/// remaining budget on uncertainty refinement. Anchor selection runs on
/// the executor, one pass per domain fold over its membership; the
/// labeler itself is queried sequentially in entry order (it is a
/// `&mut` oracle or human).
pub struct LabelStage<'l> {
    /// The label source.
    pub labeler: &'l mut dyn Labeler,
    /// The total labeling budget for the run.
    pub budget: usize,
}

impl Stage for LabelStage<'_> {
    type Input<'i> = (&'i QualityFolds, &'i FeaturizedLake);
    type Output = PropagatedLabels;

    fn name(&self) -> &'static str {
        "label"
    }

    fn execute<'i>(
        &mut self,
        ctx: &mut StageContext<'_>,
        (quality, featurized): (&QualityFolds, &FeaturizedLake),
        stage: &mut StageReport,
    ) -> PropagatedLabels {
        let lake = ctx.lake;
        let cfg = ctx.config;
        let mut labels: Vec<Vec<Option<bool>>> =
            lake.tables.iter().map(|t| vec![None; t.n_rows() * t.n_cols()]).collect();

        // Anchor selection is pure — one pass per domain fold over its
        // membership, on the executor. Feature slices are borrowed:
        // scanning a fold's members allocates nothing.
        let anchors: Vec<Option<CellId>> = ctx
            .executor
            .map_n(quality.members.len(), |fi| {
                let centroids: Vec<Option<&[f32]>> = quality
                    .entries_of(fi)
                    .iter()
                    .map(|e| e.labeled.then_some(e.fold.centroid.as_slice()))
                    .collect();
                nearest_members(quality.members[fi].cells(lake), &centroids, |id| featurized.of(id))
            })
            .into_iter()
            .flatten()
            .collect();

        // The labeler is queried in entry order; the verdicts then
        // propagate to every member in one pass over the membership.
        let mut verdicts: Vec<Option<bool>> = vec![None; quality.n_total()];
        let mut labeled_folds: Vec<LabeledFold> = Vec::new();
        for (fold, &anchor) in anchors.iter().enumerate() {
            if let Some(anchor) = anchor {
                let verdict = self.labeler.label(anchor);
                verdicts[fold] = Some(verdict);
                labeled_folds.push(LabeledFold { fold, anchor, verdict });
            }
        }
        let mut propagated = 0u64;
        for (id, fold) in quality.cells(lake) {
            if let Some(verdict) = verdicts[fold] {
                labels[id.table][id.row * lake[id.table].n_cols() + id.col] = Some(verdict);
                propagated += 1;
            }
        }
        let phase1 = self.labeler.labels_used();

        // Extension: uncertainty-driven refinement with the rest of the
        // budget (only reachable when the config reserved it).
        if phase1_budget(cfg, self.budget) < self.budget {
            let remaining = self.budget.saturating_sub(phase1);
            refine_with_uncertainty(
                ctx,
                (quality, featurized),
                &mut labels,
                &labeled_folds,
                self.labeler,
                remaining,
            );
        }

        let labels_used = self.labeler.labels_used();
        stage.items = labels_used as u64;
        stage.metrics.push(("folds_labeled".into(), labeled_folds.len() as f64));
        stage.metrics.push(("labels_refine".into(), (labels_used - phase1) as f64));
        if ctx.obs.is_enabled() {
            // Each anchor lookup is one member-cell feature access; all
            // of them borrow straight from the featurized lake (the
            // counter records how many per-cell copies the borrowing
            // accessor saved).
            ctx.obs.counter_add("label.anchor_feature_lookups", propagated);
            ctx.obs.counter_add("label.labels_used", labels_used as u64);
            ctx.obs.counter_add("label.budget", self.budget as u64);
        }
        PropagatedLabels { labels, labeled_folds, labels_used }
    }
}

/// Trains the Step-5 classifiers, one per *group* of columns, and merges
/// their predictions in group order. A group is a single column under
/// [`TrainingStrategy::PerColumn`] (the paper's default; quarantined
/// tables' columns get no model and stay unflagged) and a domain fold's
/// columns under TPDF / TUCF (folds never contain quarantined tables —
/// they were excluded before clustering). A group whose model faults
/// falls back to its propagated labels for all its columns.
pub struct ClassifyStage;

impl Stage for ClassifyStage {
    type Input<'i> = (&'i DomainFolds, &'i FeaturizedLake, &'i PropagatedLabels);
    type Output = Predictions;

    fn name(&self) -> &'static str {
        "classify"
    }

    fn execute<'i>(
        &mut self,
        ctx: &mut StageContext<'_>,
        (domain, featurized, propagated): (&DomainFolds, &FeaturizedLake, &PropagatedLabels),
        stage: &mut StageReport,
    ) -> Predictions {
        let lake = ctx.lake;
        let labels = &propagated.labels;
        let columns: Vec<(usize, usize)> = lake
            .tables
            .iter()
            .enumerate()
            .filter(|&(t, _)| !ctx.quarantine.table_quarantined(t))
            .flat_map(|(t, table)| (0..table.n_cols()).map(move |c| (t, c)))
            .collect();
        let groups: Vec<&[(usize, usize)]> = match ctx.config.training {
            TrainingStrategy::PerColumn => columns.chunks(1).collect(),
            TrainingStrategy::PerDomainFold | TrainingStrategy::UnlabeledCellFolds => {
                domain.folds.iter().map(|f| f.columns.as_slice()).collect()
            }
        };
        stage.metrics.push(("models".into(), groups.len() as f64));
        // Per group, the flagged rows of each of its columns.
        let flagged: Vec<Vec<Vec<usize>>> = ctx.map_or_degrade(
            self.name(),
            groups.len(),
            |ctx, i| {
                faultpoint::hit("classify", i);
                let model = fit_group(ctx, featurized, labels, groups[i]);
                let rows = groups[i]
                    .iter()
                    .map(|&(t, c)| {
                        // One prediction per distinct feature vector of
                        // the column: cells sharing a pattern code share
                        // the vector's bits, so they share its verdict.
                        let features = &featurized.features[t];
                        let mut verdicts: Vec<Option<bool>> = vec![None; features.n_patterns()];
                        (0..lake[t].n_rows())
                            .filter(|&r| {
                                let code = features.code(r, c);
                                *verdicts[code as usize]
                                    .get_or_insert_with(|| model.predict(features.pattern(code)))
                            })
                            .collect()
                    })
                    .collect();
                ctx.obs.counter_add(fit_counter(&model), 1);
                rows
            },
            |ctx, i| {
                // The label-propagation verdict stands in for the model
                // that could not be trained.
                ctx.quarantine.columns.extend_from_slice(groups[i]);
                groups[i]
                    .iter()
                    .map(|&(t, c)| {
                        let m = lake[t].n_cols();
                        (0..lake[t].n_rows())
                            .filter(|&r| labels[t][r * m + c] == Some(true))
                            .collect()
                    })
                    .collect()
            },
        );
        let mut mask = CellMask::empty(lake);
        for (group, rows) in groups.iter().zip(flagged) {
            for (&(t, c), rows) in group.iter().zip(rows) {
                for r in rows {
                    mask.set(CellId::new(t, r, c), true);
                }
            }
        }
        stage.items = lake.n_cells() as u64;
        stage.metrics.push(("flagged".into(), mask.count() as f64));
        Predictions { mask }
    }
}

/// Fits the per-column models on the current propagated labels
/// (parallel over the flattened `(table, column)` index space).
pub(crate) fn fit_column_models(
    ctx: &StageContext<'_>,
    featurized: &FeaturizedLake,
    labels: &[Vec<Option<bool>>],
) -> Vec<Vec<FittedClassifier>> {
    let lake = ctx.lake;
    let columns: Vec<(usize, usize)> = lake
        .tables
        .iter()
        .enumerate()
        .flat_map(|(t, table)| (0..table.n_cols()).map(move |c| (t, c)))
        .collect();
    let models = ctx
        .executor
        .map(&columns, |_, col| fit_group(ctx, featurized, labels, std::slice::from_ref(col)));
    // Re-nest the flat, index-ordered model list per table.
    let mut nested: Vec<Vec<FittedClassifier>> = lake.tables.iter().map(|_| Vec::new()).collect();
    for ((t, _), model) in columns.into_iter().zip(models) {
        nested[t].push(model);
    }
    nested
}

/// Fits one model on the labeled cells of `columns`, gathered column by
/// column in row order as slices of the pattern tables.
fn fit_group(
    ctx: &StageContext<'_>,
    featurized: &FeaturizedLake,
    labels: &[Vec<Option<bool>>],
    columns: &[(usize, usize)],
) -> FittedClassifier {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for &(t, c) in columns {
        let m = ctx.lake[t].n_cols();
        for r in 0..ctx.lake[t].n_rows() {
            if let Some(lab) = labels[t][r * m + c] {
                x.push(featurized.features[t].get(r, c));
                y.push(lab);
            }
        }
    }
    FittedClassifier::fit(&ctx.config.classifier, &x, &y)
}

/// The obs counter one classify work item's model lands in:
/// `classify.constant_fits` counts models that trained no tree because
/// their labels had one class, `classify.binned_fits` fits on the
/// memoized grower, and `classify.exact_fits` exact-path fallbacks
/// (high-cardinality or NaN features — see
/// [`matelda_ml::BinnedDataset::build`]). The
/// split makes a silent wholesale fallback to the slow path visible in
/// the metrics dump.
fn fit_counter(model: &FittedClassifier) -> &'static str {
    if model.is_constant() {
        "classify.constant_fits"
    } else if model.used_binned() {
        "classify.binned_fits"
    } else {
        "classify.exact_fits"
    }
}

/// The uncertainty-refinement phase (see
/// [`LabelingStrategy::UncertaintyRefinement`]): fit preliminary
/// per-column models on the propagated labels, rank labeled folds by the
/// mean ambiguity of their members' predictions, and spend the remaining
/// budget labeling each ambiguous fold's most uncertain member. A
/// contradicting label splits the fold: members re-adopt the label of
/// the nearer anchor cell in feature space.
fn refine_with_uncertainty(
    ctx: &StageContext<'_>,
    (quality, featurized): (&QualityFolds, &FeaturizedLake),
    labels: &mut [Vec<Option<bool>>],
    labeled_folds: &[LabeledFold],
    labeler: &mut dyn Labeler,
    remaining: usize,
) {
    if remaining == 0 || labeled_folds.is_empty() {
        return;
    }
    let lake = ctx.lake;
    let models = fit_column_models(ctx, featurized, labels);
    let proba = |id: CellId| models[id.table][id.col].predict_proba(featurized.of(id));
    // Ambiguity of a prediction: 1 at p = 0.5, 0 at p in {0, 1}.
    let ambiguity = |id: CellId| 1.0 - 2.0 * (proba(id) - 0.5).abs();

    // Each labeled fold's members, gathered once in fold order: the mean
    // sums in that order, and the probe is the *last* of equally
    // ambiguous members.
    let mut slot: Vec<Option<usize>> = vec![None; quality.n_total()];
    for (i, lf) in labeled_folds.iter().enumerate() {
        slot[lf.fold] = Some(i);
    }
    let mut members: Vec<Vec<CellId>> = vec![Vec::new(); labeled_folds.len()];
    for (id, fold) in quality.cells(lake) {
        if let Some(i) = slot[fold] {
            members[i].push(id);
        }
    }

    let mut ranked: Vec<(f64, usize)> = members
        .iter()
        .enumerate()
        .map(|(i, cells)| {
            let mean: f64 = cells.iter().map(|&id| ambiguity(id)).sum::<f64>() / cells.len() as f64;
            (mean, i)
        })
        .collect();
    // total_cmp: a NaN ambiguity (e.g. a degenerate model emitting NaN
    // probabilities) must rank, not panic.
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

    for &(_, fi) in ranked.iter().take(remaining) {
        let LabeledFold { anchor, verdict: anchor_verdict, .. } = &labeled_folds[fi];
        let cells = &members[fi];
        // Most ambiguous member that is not the anchor itself.
        let Some(&probe) = cells
            .iter()
            .filter(|&&id| id != *anchor)
            .max_by(|&&a, &&b| ambiguity(a).total_cmp(&ambiguity(b)))
        else {
            continue;
        };
        let probe_verdict = labeler.label(probe);
        if probe_verdict == *anchor_verdict {
            continue; // confirmation: propagation stands
        }
        // Contradiction: split the fold between the two anchors.
        let av = featurized.of(*anchor).to_vec();
        let pv = featurized.of(probe).to_vec();
        for &id in cells {
            let fv = featurized.of(id);
            let v =
                if sq_dist(fv, &pv) < sq_dist(fv, &av) { probe_verdict } else { *anchor_verdict };
            labels[id.table][id.row * lake[id.table].n_cols() + id.col] = Some(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_lakegen::QuintetLake;
    use matelda_table::oracle::Oracle;
    use matelda_table::Column;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn cfg_with_threads(threads: usize) -> MateldaConfig {
        MateldaConfig { threads, ..Default::default() }
    }

    #[test]
    fn stages_compose_like_detect() {
        let lake = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(7);
        let cfg = cfg_with_threads(1);
        let budget = 25;

        // Staged, by hand.
        let mut ctx = StageContext::new(&lake.dirty, &cfg);
        let embedded = EmbedStage::from_config(&cfg).run(&mut ctx, ());
        let featurized = FeaturizeStage::default().run(&mut ctx, ());
        let domain = DomainFoldStage.run(&mut ctx, &embedded);
        let quality = QualityFoldStage { budget }.run(&mut ctx, (&domain, &featurized));
        let mut oracle = Oracle::new(&lake.errors);
        let propagated =
            LabelStage { labeler: &mut oracle, budget }.run(&mut ctx, (&quality, &featurized));
        let predictions = ClassifyStage.run(&mut ctx, (&domain, &featurized, &propagated));

        // Through the facade.
        let mut oracle2 = Oracle::new(&lake.errors);
        let result = crate::Matelda::new(cfg.clone()).detect(&lake.dirty, &mut oracle2, budget);

        assert_eq!(predictions.mask, result.predicted);
        assert_eq!(propagated.labels_used, result.labels_used);
        assert_eq!(ctx.report.stages.len(), result.report.stages.len());
    }

    #[test]
    fn swapped_stage_changes_only_downstream() {
        // Swapping the embed stage for a trivial one must still produce a
        // full-lake prediction mask — the artifact contract holds.
        let lake = QuintetLake { rows_per_table: 20, error_rate: 0.1 }.generate(3);
        let cfg = cfg_with_threads(1);
        let mut ctx = StageContext::new(&lake.dirty, &cfg);
        let embedded = EmbeddedLake::Trivial; // caller-supplied artifact
        let featurized = FeaturizeStage::default().run(&mut ctx, ());
        let domain = DomainFoldStage.run(&mut ctx, &embedded);
        assert_eq!(domain.folds.len(), 1, "trivial embedding folds everything together");
        let quality = QualityFoldStage { budget: 10 }.run(&mut ctx, (&domain, &featurized));
        let mut oracle = Oracle::new(&lake.errors);
        let propagated =
            LabelStage { labeler: &mut oracle, budget: 10 }.run(&mut ctx, (&quality, &featurized));
        assert!(propagated.labels_used <= 10);
        let predictions = ClassifyStage.run(&mut ctx, (&domain, &featurized, &propagated));
        assert_eq!(predictions.mask.n_cells(), lake.dirty.n_cells());
    }

    #[test]
    fn report_covers_every_stage_with_nonzero_items() {
        let lake = QuintetLake { rows_per_table: 20, error_rate: 0.1 }.generate(1);
        let mut oracle = Oracle::new(&lake.errors);
        let result = crate::Matelda::new(cfg_with_threads(2)).detect(&lake.dirty, &mut oracle, 20);
        let names: Vec<&str> = result.report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["embed", "featurize", "domain_folds", "quality_folds", "label", "classify"]
        );
        assert!(result.report.stages.iter().all(|s| s.wall_secs >= 0.0));
        assert!(result.report.stage("featurize").expect("exists").items > 0);
        assert!(result.report.stage("label").expect("exists").items > 0);
        assert_eq!(result.report.threads, 2);
    }

    /// A labeler that answers from a hash of the cell and records every
    /// cell it is asked about, in order.
    struct Recording {
        salt: usize,
        asked: Vec<CellId>,
    }

    impl Labeler for Recording {
        fn label(&mut self, id: CellId) -> bool {
            self.asked.push(id);
            (id.table * 31 + id.row * 7 + id.col * 13 + self.salt).is_multiple_of(3)
        }

        fn labels_used(&self) -> usize {
            self.asked.len()
        }
    }

    /// A value from a small palette, so members are often equidistant
    /// from a centroid, with ±inf and (if `nan`) NaN among them.
    fn palette_value(rng: &mut StdRng, nan: bool) -> f32 {
        const PALETTE: [f32; 8] =
            [0.0, 1.0, 0.5, -0.0, 1.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let end = if rng.random_bool(0.7) { 5 } else { 7 + usize::from(nan) };
        PALETTE[rng.random_range(0..end)]
    }

    /// A label-stage input from `seed`: 1–3 tables, their columns shuffled
    /// into 1–3 domain folds, and each domain fold either zero-budget (no
    /// membership), the degraded single fold, k-means quality folds, or
    /// an arbitrary membership with arbitrary centroids (NaN among them);
    /// any quality fold may be left unlabeled, as TUCF leaves some.
    /// Features hold NaN only if `nan_features`: the refinement's models
    /// do not train on NaN.
    fn label_input(seed: u64, nan_features: bool) -> (Lake, FeaturizedLake, QualityFolds) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 2;
        let mut tables = Vec::new();
        let mut features = Vec::new();
        for t in 0..rng.random_range(1..4usize) {
            let (n_cols, n_rows) = (rng.random_range(1..4usize), rng.random_range(1..7usize));
            let columns = (0..n_cols).map(|c| Column::new(format!("c{c}"), vec!["v"; n_rows]));
            tables.push(Table::new(format!("t{t}"), columns.collect()));
            let flat =
                (0..n_cols * n_rows * dim).map(|_| palette_value(&mut rng, nan_features)).collect();
            features.push(CellFeatures::from_flat(n_cols, n_rows, dim, flat));
        }
        let lake = Lake::new(tables);
        let mut columns: Vec<(usize, usize)> = lake
            .tables
            .iter()
            .enumerate()
            .flat_map(|(t, table)| (0..table.n_cols()).map(move |c| (t, c)))
            .collect();
        columns.shuffle(&mut rng);
        let n_domain = rng.random_range(1..4usize).min(columns.len());
        let mut cuts: Vec<usize> = (1..columns.len()).collect();
        cuts.shuffle(&mut rng);
        cuts.truncate(n_domain - 1);
        cuts.sort_unstable();
        let (mut folds, mut start) = (Vec::new(), 0);
        for end in cuts.into_iter().chain([columns.len()]) {
            folds.push(Fold { columns: columns[start..end].to_vec() });
            start = end;
        }

        let mut quality =
            QualityFolds { entries: Vec::new(), budgets: Vec::new(), members: Vec::new() };
        for (fi, fold) in folds.iter().enumerate() {
            let mode = rng.random_range(0..4u32);
            let budget = if mode == 0 { 0 } else { rng.random_range(1..4usize) };
            let (qfolds, membership) = match mode {
                0 => (Vec::new(), FoldMembership::default()),
                1 => {
                    let (q, m) = single_quality_fold(&lake, fold, &features).expect("cells");
                    (vec![q], m)
                }
                2 => {
                    let k = MiniBatchKMeansConfig {
                        k: rng.random_range(1..5),
                        batch_size: 4,
                        iterations: 5,
                        seed: rng.random_range(0..1000),
                    };
                    quality_folds(&lake, fold, &features, k, &Obs::disabled())
                }
                _ => {
                    let n: usize = fold.columns.iter().map(|&(t, _)| lake[t].n_rows()).sum();
                    let n_folds = rng.random_range(1..5usize).min(n);
                    let mut index: Vec<u32> =
                        (0..n).map(|_| rng.random_range(0..n_folds as u32)).collect();
                    // Every quality fold keeps at least one member.
                    let mut order: Vec<usize> = (0..n).collect();
                    order.shuffle(&mut rng);
                    for (q, &k) in order.iter().take(n_folds).enumerate() {
                        index[k] = q as u32;
                    }
                    let centroid = |rng: &mut StdRng| QualityFold {
                        centroid: (0..dim).map(|_| palette_value(rng, true)).collect(),
                    };
                    let qfolds = (0..n_folds).map(|_| centroid(&mut rng)).collect();
                    (qfolds, FoldMembership { columns: fold.columns.clone(), index })
                }
            };
            for fold in qfolds {
                let labeled = mode == 1 || rng.random_bool(0.75);
                quality.entries.push(QualityFoldEntry { domain_fold: fi, fold, labeled });
            }
            quality.budgets.push(budget);
            quality.members.push(membership);
        }
        (lake, FeaturizedLake { features }, quality)
    }

    /// The label pass as it ran over one `CellId` list per quality fold,
    /// kept verbatim: the lists the clustering scattered (each domain
    /// fold's cells, columns in fold order and rows ascending, pushed
    /// onto their fold's list), `QualityFold::sample`, the propagation
    /// fold by fold and the uncertainty refinement with its own `sq`.
    /// Returns the labels and each labeled fold's (entry, anchor,
    /// verdict).
    fn reference_label_pass(
        ctx: &StageContext<'_>,
        (quality, featurized): (&QualityFolds, &FeaturizedLake),
        labeler: &mut dyn Labeler,
        budget: usize,
    ) -> (Vec<Vec<Option<bool>>>, Vec<(usize, CellId, bool)>) {
        let lake = ctx.lake;
        let mut lists: Vec<Vec<CellId>> = vec![Vec::new(); quality.n_total()];
        let mut first = 0;
        for (fi, m) in quality.members.iter().enumerate() {
            let mut k = 0;
            for &(t, c) in &m.columns {
                for r in 0..lake[t].n_rows() {
                    lists[first + m.index[k] as usize].push(CellId::new(t, r, c));
                    k += 1;
                }
            }
            first += quality.entries.iter().filter(|e| e.domain_fold == fi).count();
        }
        let sample = |cells: &[CellId], centroid: &[f32]| {
            let mut best = cells[0];
            let mut best_d = f32::INFINITY;
            for &id in cells {
                let d = sq_dist(featurized.of(id), centroid);
                if d < best_d || (d == best_d && id < best) {
                    best_d = d;
                    best = id;
                }
            }
            best
        };
        let mut labels: Vec<Vec<Option<bool>>> =
            lake.tables.iter().map(|t| vec![None; t.n_rows() * t.n_cols()]).collect();
        let mut labeled_folds = Vec::new();
        for (i, e) in quality.entries.iter().enumerate().filter(|(_, e)| e.labeled) {
            let anchor = sample(&lists[i], &e.fold.centroid);
            let verdict = labeler.label(anchor);
            for &id in &lists[i] {
                labels[id.table][id.row * lake[id.table].n_cols() + id.col] = Some(verdict);
            }
            labeled_folds.push((i, anchor, verdict));
        }
        let phase1 = labeler.labels_used();
        let remaining = if phase1_budget(ctx.config, budget) < budget {
            budget.saturating_sub(phase1)
        } else {
            0
        };
        if remaining == 0 || labeled_folds.is_empty() {
            return (labels, labeled_folds);
        }
        let models = fit_column_models(ctx, featurized, &labels);
        let proba = |id: CellId| models[id.table][id.col].predict_proba(featurized.of(id));
        let ambiguity = |id: CellId| 1.0 - 2.0 * (proba(id) - 0.5).abs();
        let mut ranked: Vec<(f64, usize)> = labeled_folds
            .iter()
            .enumerate()
            .map(|(i, &(e, _, _))| {
                let cells = &lists[e];
                let mean: f64 =
                    cells.iter().map(|&id| ambiguity(id)).sum::<f64>() / cells.len() as f64;
                (mean, i)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let sq =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        for &(_, fi) in ranked.iter().take(remaining) {
            let (e, anchor, anchor_verdict) = labeled_folds[fi];
            let Some(&probe) = lists[e]
                .iter()
                .filter(|&&id| id != anchor)
                .max_by(|&&a, &&b| ambiguity(a).total_cmp(&ambiguity(b)))
            else {
                continue;
            };
            let probe_verdict = labeler.label(probe);
            if probe_verdict == anchor_verdict {
                continue;
            }
            let av = featurized.of(anchor).to_vec();
            let pv = featurized.of(probe).to_vec();
            for &id in &lists[e] {
                let fv = featurized.of(id);
                let v = if sq(fv, &pv) < sq(fv, &av) { probe_verdict } else { anchor_verdict };
                labels[id.table][id.row * lake[id.table].n_cols() + id.col] = Some(v);
            }
        }
        (labels, labeled_folds)
    }

    // The label pass over the membership index is pinned to the per-fold
    // lists it replaced: the same anchors and probes asked in the same
    // order, the same labeled folds, and the same propagated and split
    // labels, with and without refinement.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn label_pass_over_the_index_equals_the_per_fold_lists(
            seed in 0u64..1_000_000,
            refine in 0usize..3,
            extra in 0usize..5,
            threads in 1usize..3,
        ) {
            let (lake, featurized, quality) = label_input(seed, refine == 0);
            let labeling = if refine == 0 {
                LabelingStrategy::CentroidPerFold
            } else {
                LabelingStrategy::UncertaintyRefinement
            };
            let cfg = MateldaConfig { threads, labeling, ..Default::default() };
            let n_labeled = quality.entries.iter().filter(|e| e.labeled).count();
            let budget = (n_labeled + extra).max(4);

            let mut ctx = StageContext::new(&lake, &cfg);
            let mut new = Recording { salt: seed as usize, asked: Vec::new() };
            let got =
                LabelStage { labeler: &mut new, budget }.run(&mut ctx, (&quality, &featurized));
            let mut old = Recording { salt: seed as usize, asked: Vec::new() };
            let (labels, labeled) =
                reference_label_pass(&ctx, (&quality, &featurized), &mut old, budget);

            prop_assert_eq!(&new.asked, &old.asked, "anchors, then probes");
            let got_labeled: Vec<(usize, CellId, bool)> =
                got.labeled_folds.iter().map(|lf| (lf.fold, lf.anchor, lf.verdict)).collect();
            prop_assert_eq!(got_labeled, labeled);
            prop_assert_eq!(&got.labels, &labels);
            prop_assert_eq!(got.labels_used, old.asked.len());
        }
    }
}
