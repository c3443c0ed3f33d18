//! The Matelda pipeline orchestrator (paper Alg. 1, Steps 1–5).
//!
//! [`Matelda::detect`] composes the typed stages of [`crate::engine`];
//! this module holds the run configuration, the result type and the
//! facade. See the engine module for the stage and artifact types, and
//! [`Matelda::detect_durable`] for the checkpoint/resume entry point.

use std::path::PathBuf;
use std::time::Duration;

use crate::domain_fold::DomainFolding;
use crate::engine::{
    phase1_budget, ClassifyStage, DomainFoldStage, DomainFolds, EmbedStage, FeaturizeStage,
    FeaturizedLake, LabelStage, PropagatedLabels, QualityFoldStage, QualityFolds, Stage,
    StageContext, TableSource,
};
use crate::snapshot::{decode_snapshot, encode_snapshot, ArtifactCodec, CtxState};
use matelda_ckpt::{CheckpointStore, CkptError, Manifest, Vfs};
use matelda_detect::FeatureConfig;
use matelda_embed::encoder::EncoderConfig;
use matelda_exec::{faultpoint, Executor, RunReport};
use matelda_ml::ClassifierKind;
use matelda_obs::{Obs, Val};
use matelda_table::chunked::ChunkedError;
use matelda_table::fingerprint::Fnv1a;
use matelda_table::oracle::Labeler;
use matelda_table::{lake_fingerprint, CellMask, Lake};

/// How the pipeline reacts to a faulted work item (a panic or error in
/// one table's embedding/featurization, one fold's clustering, or one
/// column's classifier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Abort the run on the first fault (the historical behavior): the
    /// fault is re-raised as a panic naming the stage and item.
    #[default]
    Fail,
    /// Quarantine-and-continue: the faulted unit is removed from the run
    /// (table quarantined, fold degraded to a single quality fold, column
    /// falls back to propagated labels), the fault is logged in the
    /// [`matelda_exec::RunReport`], and everything else proceeds —
    /// deterministically, at any thread count.
    Skip,
}

/// How the labeling budget is spent in Step 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelingStrategy {
    /// The paper's protocol: one label per quality fold, at the cell
    /// nearest the fold centroid.
    CentroidPerFold,
    /// Extension (paper §6 calls minimizing labeling effort future work):
    /// spend half the budget on centroid labels, train preliminary
    /// per-column models, then spend the rest on the folds whose members
    /// the models are most *uncertain* about — labeling the most
    /// ambiguous member and splitting the fold if the new label
    /// contradicts the propagated one. Requires
    /// [`TrainingStrategy::PerColumn`].
    UncertaintyRefinement,
}

/// How per-cell classifiers are trained in Step 5 (paper §4.5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingStrategy {
    /// The default: one gradient-boosting model per column, trained on the
    /// column's propagated labels.
    PerColumn,
    /// Matelda-TPDF: one model per domain fold.
    PerDomainFold,
    /// Matelda-TUCF: one model per domain fold, but quality folding
    /// produces 2k folds of which only the k largest are labeled — label
    /// propagation stays within smaller, more coherent clusters and some
    /// folds remain unlabeled.
    UnlabeledCellFolds,
}

/// Full pipeline configuration. `Default` reproduces the paper's standard
/// Matelda; every field maps to a published variant or parameter.
#[derive(Debug, Clone)]
pub struct MateldaConfig {
    /// Step 1 strategy (standard / EDF / RS / Santos).
    pub domain_folding: DomainFolding,
    /// Apply the `+SF` column-level refinement after Step 1.
    pub syntactic_refinement: bool,
    /// Detector families for the unified feature space (NOD/NTD/NRVD).
    pub features: FeatureConfig,
    /// Step 5 training strategy.
    pub training: TrainingStrategy,
    /// Table-embedding configuration (Step 1).
    pub encoder: EncoderConfig,
    /// Mini-batch size for quality folding (paper: 256 × cores).
    pub kmeans_batch: usize,
    /// Mini-batch k-means iterations.
    pub kmeans_iterations: usize,
    /// Per-column/fold learner (paper: gradient boosting with library
    /// defaults; a random forest is available for the classifier
    /// ablation).
    pub classifier: ClassifierKind,
    /// Step 3 labeling protocol.
    pub labeling: LabelingStrategy,
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Executor worker threads for the parallel stages; `0` means the
    /// host's available parallelism. Output is bit-identical at every
    /// value — the executor merges in index order and all stochastic
    /// work derives per-index seeds.
    pub threads: usize,
    /// What to do when a work item faults (see [`FaultPolicy`]).
    pub on_error: FaultPolicy,
    /// Watchdog deadline per stage: work items claimed after a stage
    /// has run this long are not started — they fault with
    /// [`matelda_exec::DEADLINE_FAULT`] and degrade (or abort) per
    /// [`MateldaConfig::on_error`]. `None` (the default) disables the
    /// watchdog. Wall-clock deadlines are inherently nondeterministic;
    /// tests arm the `timeout:<stage>` faultpoint instead.
    pub stage_timeout: Option<Duration>,
    /// Byte budget for the dense O(n²) matrices the fold stages would
    /// otherwise allocate unchecked. `None` (the default) disables the
    /// check. When a stage's matrix would exceed the budget it faults
    /// with a structured [`matelda_cluster::ScaleError`] instead of
    /// OOM-aborting, and degrades (or panics) per
    /// [`MateldaConfig::on_error`].
    pub mem_budget_bytes: Option<u64>,
}

impl Default for MateldaConfig {
    fn default() -> Self {
        Self {
            domain_folding: DomainFolding::Hdbscan,
            syntactic_refinement: false,
            features: FeatureConfig::default(),
            training: TrainingStrategy::PerColumn,
            encoder: EncoderConfig::default(),
            kmeans_batch: 256,
            kmeans_iterations: 100,
            classifier: ClassifierKind::default(),
            labeling: LabelingStrategy::CentroidPerFold,
            seed: 0,
            threads: 0,
            on_error: FaultPolicy::Fail,
            stage_timeout: None,
            mem_budget_bytes: None,
        }
    }
}

impl MateldaConfig {
    /// Applies a paper variant by its short name — the one table behind
    /// the CLI's `--variant` and the daemon's `DetectJob::variant`:
    /// `standard` (no change), `edf`, `rs`, `santos`, `sf`, `tpdf` or
    /// `tucf`. Any other name is an error naming it.
    pub fn apply_variant(&mut self, name: &str) -> Result<(), String> {
        match name {
            "standard" => {}
            "edf" => self.domain_folding = DomainFolding::ExtremeDomainFolding,
            "rs" => self.domain_folding = DomainFolding::RowSampling(0.1),
            "santos" => self.domain_folding = DomainFolding::SantosLike,
            "sf" => self.syntactic_refinement = true,
            "tpdf" => self.training = TrainingStrategy::PerDomainFold,
            "tucf" => self.training = TrainingStrategy::UnlabeledCellFolds,
            other => return Err(format!("unknown variant {other:?}")),
        }
        Ok(())
    }
}

/// How [`Matelda::detect_durable`] reacts to the *storage* failing —
/// the filesystem, not the pipeline (that is [`FaultPolicy`]).
///
/// The split the contract draws: an I/O errno (`ENOSPC`, `EIO`, a
/// failed fsync) means durability is unavailable but the computation is
/// untouched; a [`CkptError::Corrupt`] or [`CkptError::Mismatch`]
/// snapshot means the *resume inputs* are untrustworthy. Degrade
/// forgives the former and still hard-fails the latter — a run never
/// silently reuses questionable bytes under either policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Any checkpoint failure fails the run (the historical behavior).
    #[default]
    Fail,
    /// An I/O failure downgrades the run to non-durable: checkpointing
    /// stops, an `obs` `ckpt.degraded` event records where and why, the
    /// result is still computed (bit-identical to a durable run) and
    /// [`DetectionResult::durability_degraded`] is set. Resume is then
    /// unavailable for this run — that is the entire cost.
    Degrade,
}

/// Output of a detection run.
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// Cells predicted erroneous. Cells of quarantined tables are never
    /// flagged — they are unscored, not "clean"; consult
    /// [`DetectionResult::quarantine`] before computing metrics.
    pub predicted: CellMask,
    /// Labels actually drawn from the user/oracle.
    pub labels_used: usize,
    /// Number of domain folds formed in Step 1 (after any refinement).
    pub n_domain_folds: usize,
    /// Total quality folds formed in Step 2.
    pub n_quality_folds: usize,
    /// Per-stage wall time and work counters for the run, including the
    /// structured fault log under [`FaultPolicy::Skip`].
    pub report: RunReport,
    /// What was quarantined or degraded during the run (empty unless
    /// faults occurred under [`FaultPolicy::Skip`]).
    pub quarantine: crate::engine::QuarantineReport,
    /// Whether checkpointing was abandoned mid-run under
    /// [`DurabilityPolicy::Degrade`]: the result is still bit-correct,
    /// but resuming this run is no longer possible. Deliberately
    /// excluded from [`DetectionResult::digest`] — a degraded run and a
    /// durable run of the same inputs are the same bits.
    pub durability_degraded: bool,
}

impl DetectionResult {
    /// An order-stable FNV-1a digest of everything the durability
    /// contract promises to reproduce: predictions, label spend, fold
    /// counts and the quarantine record (stage wall times are excluded
    /// on purpose). Crash-recovery tests — and the serve client —
    /// compare this value between a clean run and a
    /// crashed-then-resumed one.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.predicted.count() as u64);
        for id in self.predicted.iter_set() {
            h.write_u64(id.table as u64);
            h.write_u64(id.row as u64);
            h.write_u64(id.col as u64);
        }
        h.write_u64(self.labels_used as u64);
        h.write_u64(self.n_domain_folds as u64);
        h.write_u64(self.n_quality_folds as u64);
        let q = &self.quarantine;
        h.write_u64(q.tables.len() as u64);
        for &t in &q.tables {
            h.write_u64(t as u64);
        }
        h.write_u64(q.columns.len() as u64);
        for &(t, c) in &q.columns {
            h.write_u64(t as u64);
            h.write_u64(c as u64);
        }
        h.write_u64(q.fold_fallbacks.len() as u64);
        for &f in &q.fold_fallbacks {
            h.write_u64(f as u64);
        }
        h.finish()
    }
}

/// The intermediate artifacts of one [`Matelda::detect_explained`] run,
/// kept alive past the result so failure analysis can attribute each
/// misclassified cell to its features, quality fold and propagated
/// label (see [`crate::report`]).
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The unified detector feature space (Alg. 1 line 10).
    pub featurized: FeaturizedLake,
    /// Step-1 output: the domain folds.
    pub domain: DomainFolds,
    /// Step-2 output: quality folds with provenance.
    pub quality: QualityFolds,
    /// Steps 3+4 output: per-cell propagated labels and labeled folds.
    pub propagated: PropagatedLabels,
}

/// Checkpoint/resume options for [`Matelda::detect_durable`].
#[derive(Debug, Clone, Default)]
pub struct Durability {
    /// Directory to persist stage snapshots into; `None` disables
    /// checkpointing entirely (and makes `detect_durable` infallible).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from snapshots found in `checkpoint_dir`: stages whose
    /// snapshot verifies are restored instead of recomputed. Requires
    /// the on-disk manifest to match the live run's determinism inputs
    /// (config, lake fingerprint, seed, budget — thread count exempt).
    pub resume: bool,
    /// What a storage failure does to the run (see [`DurabilityPolicy`]).
    pub policy: DurabilityPolicy,
    /// The storage handle checkpoint I/O goes through. The default
    /// ([`Vfs::real`]) is plain filesystem I/O; tests and budgeted
    /// daemons substitute fault-injecting or byte-accounting handles.
    pub vfs: Vfs,
}

/// FNV-1a digest of every configuration field that shapes output bits.
/// `threads` is excluded (it only changes wall-clock), so snapshots
/// survive a thread-count change, and `seed` is excluded only because
/// the [`Manifest`] carries it as its own field (a seed change is then
/// reported as a *seed* mismatch, not an opaque config-hash one);
/// everything else — strategies, feature families, encoder, classifier,
/// even the watchdog timeout — participates, so a resumed run can never
/// silently mix artifacts from differently-configured runs.
fn config_hash(cfg: &MateldaConfig) -> u64 {
    let mut h = Fnv1a::new();
    for part in [
        format!("{:?}", cfg.domain_folding),
        format!("{:?}", cfg.syntactic_refinement),
        format!("{:?}", cfg.features),
        format!("{:?}", cfg.training),
        format!("{:?}", cfg.encoder),
        format!("{:?}", cfg.kmeans_batch),
        format!("{:?}", cfg.kmeans_iterations),
        format!("{:?}", cfg.classifier),
        format!("{:?}", cfg.labeling),
        format!("{:?}", cfg.on_error),
        format!("{:?}", cfg.stage_timeout),
        format!("{:?}", cfg.mem_budget_bytes),
    ] {
        h.write_str(&part);
    }
    h.finish()
}

/// The mutable durability state of one `detect_durable` call: the open
/// store (dropped on degradation), the resume frontier, and the policy
/// deciding whether an I/O failure kills the run or just its
/// durability.
struct DurabilityState {
    store: Option<CheckpointStore>,
    resume_ok: bool,
    policy: DurabilityPolicy,
    degraded: bool,
}

impl DurabilityState {
    /// Downgrades the run to non-durable: the store is dropped, nothing
    /// else changes. Every degradation is announced — the `ckpt.degraded`
    /// event names the stage and errno so an operator can tell "disk
    /// full at classify" from "flaky mount at embed".
    fn degrade(&mut self, obs: &Obs, stage: &str, during: &str, err: &CkptError) {
        self.store = None;
        self.resume_ok = false;
        self.degraded = true;
        obs.counter_add("ckpt.degraded", 1);
        if obs.is_enabled() {
            obs.event(
                "ckpt.degraded",
                &[
                    ("stage", Val::S(stage)),
                    ("during", Val::S(during)),
                    ("error", Val::S(&err.to_string())),
                ],
            );
        }
    }

    /// Whether `err` is forgivable under the policy: only plain I/O
    /// errnos qualify — corrupt or foreign snapshots stay fatal because
    /// they question the *inputs*, not the disk.
    fn forgives(&self, err: &CkptError) -> bool {
        self.policy == DurabilityPolicy::Degrade && matches!(err, CkptError::Io { .. })
    }
}

/// Runs a stage, or restores its snapshot when resuming.
///
/// While `resume_ok` holds, a verified snapshot short-circuits the
/// stage: the stored [`CtxState`] replaces the context's accumulated
/// state and the artifact is returned without recomputation. The first
/// *missing* snapshot flips `resume_ok` off — that is where the
/// interrupted run died, so everything from here on recomputes (and
/// re-checkpoints). A corrupt or foreign snapshot is a hard error, per
/// the durability contract: never silently reused, never silently
/// recomputed either, because the caller asked to resume *this* run.
///
/// Under [`DurabilityPolicy::Degrade`] an I/O failure — loading or
/// committing — degrades the run instead (see
/// [`DurabilityState::degrade`]): the stage runs (or keeps its computed
/// artifact), and checkpointing is abandoned from here on.
fn run_or_restore<A, F>(
    ctx: &mut StageContext<'_>,
    dur: &mut DurabilityState,
    name: &str,
    run: F,
) -> Result<A, CkptError>
where
    A: ArtifactCodec,
    F: FnOnce(&mut StageContext<'_>) -> A,
{
    if dur.resume_ok {
        if let Some(s) = &dur.store {
            let path = s.dir().join(format!("{name}.ckpt"));
            let loaded = s.load_stage(name);
            match loaded {
                Ok(Some(payload)) => {
                    let (state, artifact) = decode_snapshot::<A>(&payload)
                        .map_err(|reason| CkptError::Corrupt { path, reason })?;
                    state.restore(ctx);
                    ctx.obs.event("ckpt.restore", &[("stage", Val::S(name))]);
                    ctx.obs.counter_add("ckpt.restored_stages", 1);
                    return Ok(artifact);
                }
                Ok(None) => {
                    dur.resume_ok = false;
                    ctx.obs.event("ckpt.resume_frontier", &[("stage", Val::S(name))]);
                }
                Err(e) if dur.forgives(&e) => dur.degrade(&ctx.obs, name, "load", &e),
                Err(e) => return Err(e),
            }
        }
    }
    let artifact = run(ctx);
    if dur.store.is_some() {
        let payload = encode_snapshot(&CtxState::capture(ctx), &artifact);
        let saved = dur.store.as_ref().expect("checked above").save_stage(name, &payload);
        match saved {
            Ok(()) => {}
            Err(e) if dur.forgives(&e) => dur.degrade(&ctx.obs, name, "commit", &e),
            Err(e) => return Err(e),
        }
    }
    Ok(artifact)
}

/// The Matelda estimator.
#[derive(Debug, Clone, Default)]
pub struct Matelda {
    pub(crate) config: MateldaConfig,
    pub(crate) obs: Obs,
    /// A caller-supplied executor (see [`Matelda::with_executor`]);
    /// `None` builds a fresh pool per run from `config.threads`.
    pub(crate) executor: Option<Executor>,
}

impl Matelda {
    /// Creates a pipeline with the given configuration (observability
    /// disabled — recording costs nothing until a handle is attached).
    pub fn new(config: MateldaConfig) -> Self {
        Self { config, obs: Obs::disabled(), executor: None }
    }

    /// Attaches an observability handle: the run emits a `run` span,
    /// per-stage spans and metrics, executor worker spans, checkpoint
    /// and fault events. Recording never changes results, checkpoints
    /// or their checksums (DESIGN.md §7) — keep a clone of the handle
    /// to export the trace after the run.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Runs this pipeline's stages on a caller-supplied executor instead
    /// of spawning a worker pool per run. Clones of one [`Executor`]
    /// share a single pool, so a long-lived service can run many
    /// sequential — or concurrent — detections without respawning
    /// threads; [`MateldaConfig::threads`] is then ignored in favour of
    /// the executor's width. Results are bit-identical either way.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The determinism identity of a run over `lake` with this
    /// configuration and `budget`: the same [`Manifest`] that
    /// [`Matelda::detect_durable`] stamps into checkpoints. Its
    /// [`Manifest::hash`] covers exactly the inputs that shape output
    /// bits (config, lake fingerprint, seed, budget — threads exempt),
    /// which makes it a safe memo-cache key: equal hash ⇒ bit-equal
    /// result.
    pub fn manifest(&self, lake: &Lake, budget: usize) -> Manifest {
        self.manifest_for(lake_fingerprint(lake), budget)
    }

    /// [`Matelda::manifest`] for a lake whose [`lake_fingerprint`] the
    /// caller already holds, so a service that keeps a parsed lake
    /// across requests fingerprints it once, not per request.
    pub fn manifest_for(&self, fingerprint: u64, budget: usize) -> Manifest {
        Manifest {
            config_hash: config_hash(&self.config),
            lake_fingerprint: fingerprint,
            seed: self.config.seed,
            budget: budget as u64,
            // Informational only — never hashed or validated.
            threads: match &self.executor {
                Some(e) => e.threads() as u64,
                None => self.config.threads as u64,
            },
        }
    }

    /// Runs the full staged pipeline on `lake` with a total labeling
    /// budget of `budget` cells, asking `labeler` for each sampled
    /// cell's label. The labeler is never asked for more than `budget`
    /// labels.
    pub fn detect(&self, lake: &Lake, labeler: &mut dyn Labeler, budget: usize) -> DetectionResult {
        self.detect_durable(lake, labeler, budget, &Durability::default())
            .expect("detection without a checkpoint store is infallible")
    }

    /// [`Matelda::detect_durable`], but also returning the run's
    /// intermediate artifacts so callers can *explain* the predictions:
    /// the feature vectors, the fold structure and the propagated labels
    /// that the failure-analysis report ([`crate::report`]) attributes
    /// misclassified cells to. Every stage snapshot carries its artifact,
    /// so a run resumed from checkpoints returns the same artifacts as an
    /// uninterrupted one — and the [`DetectionResult`] is bit-identical
    /// to [`Matelda::detect`] on the same inputs (pinned by a digest
    /// test).
    pub fn detect_explained(
        &self,
        lake: &Lake,
        labeler: &mut dyn Labeler,
        budget: usize,
        opts: &Durability,
    ) -> Result<(DetectionResult, RunArtifacts), CkptError> {
        self.run_stages(lake, TableSource::Resident, opts, labeler, budget, "detect").map_err(|e| {
            match e {
                RunError::Ckpt(e) => e,
                RunError::Storage(e) => unreachable!("a resident lake does no storage I/O: {e}"),
            }
        })
    }

    /// [`Matelda::detect`] with stage-level checkpointing and crash-safe
    /// resume.
    ///
    /// With [`Durability::checkpoint_dir`] set, every completed stage's
    /// artifact (plus the cumulative run state) is committed atomically
    /// before the next stage starts. With [`Durability::resume`] also
    /// set, stages whose snapshot verifies are restored instead of
    /// recomputed — and because the pipeline is bit-deterministic, the
    /// resumed run's [`DetectionResult`] is bit-identical to an
    /// uninterrupted run, at any thread count (stage wall times
    /// excepted: restored stages report the original run's timings).
    ///
    /// The caveat: the contract covers the pipeline, not the labeler.
    /// Resume replays *recorded* labels for restored stages but queries
    /// `labeler` live for recomputed ones, so the labeler must be a
    /// deterministic function of the cell identity (an [`crate::Oracle`]
    /// is; a human is, for the cells they already answered).
    ///
    /// Errors are structured and conservative: a snapshot that is
    /// corrupt ([`CkptError::Corrupt`]) or stamped by a run with
    /// different determinism inputs ([`CkptError::Mismatch`]) fails the
    /// call rather than being silently reused or recomputed.
    pub fn detect_durable(
        &self,
        lake: &Lake,
        labeler: &mut dyn Labeler,
        budget: usize,
        opts: &Durability,
    ) -> Result<DetectionResult, CkptError> {
        self.detect_explained(lake, labeler, budget, opts).map(|(result, _)| result)
    }

    /// Opens the run sink: the checkpoint store `opts` asks for, or
    /// nothing. Restoration stops at the first missing snapshot; from
    /// there the interrupted run is recomputed (and re-checkpointed)
    /// stage by stage.
    fn open_sink(
        &self,
        lake: &Lake,
        budget: usize,
        threads: usize,
        opts: &Durability,
    ) -> Result<DurabilityState, CkptError> {
        let store = match &opts.checkpoint_dir {
            Some(dir) => {
                let mut manifest = self.manifest(lake, budget);
                manifest.threads = threads as u64;
                match CheckpointStore::open_with(dir, manifest, opts.resume, opts.vfs.clone()) {
                    Ok(s) => Some(s.with_obs(self.obs.clone())),
                    // The directory may be unreachable before a single
                    // snapshot exists; under Degrade the run simply
                    // starts life non-durable.
                    Err(e @ CkptError::Io { .. }) if opts.policy == DurabilityPolicy::Degrade => {
                        self.obs.counter_add("ckpt.degraded", 1);
                        self.obs.event(
                            "ckpt.degraded",
                            &[
                                ("stage", Val::S("open")),
                                ("during", Val::S("open")),
                                ("error", Val::S(&e.to_string())),
                            ],
                        );
                        None
                    }
                    Err(e) => return Err(e),
                }
            }
            None => None,
        };
        Ok(DurabilityState {
            resume_ok: opts.resume && store.is_some(),
            degraded: opts.checkpoint_dir.is_some() && store.is_none(),
            store,
            policy: opts.policy,
        })
    }

    /// The one stage driver (paper Alg. 1) behind every entry point.
    ///
    /// It builds the context, opens one `run` span over all six stages,
    /// runs each stage through [`run_or_restore`] and assembles the
    /// result. Its two seams: `source` says where embed and featurize
    /// read cell values (the resident `lake`, or a columnar directory of
    /// which `lake` is the skeleton), and `opts` opens the run sink (a
    /// checkpoint store, or nothing).
    pub(crate) fn run_stages<'a>(
        &self,
        lake: &'a Lake,
        source: TableSource<'a>,
        opts: &Durability,
        labeler: &mut dyn Labeler,
        budget: usize,
        run_name: &str,
    ) -> Result<(DetectionResult, RunArtifacts), RunError> {
        let cfg = &self.config;
        let mut ctx = match &self.executor {
            Some(exec) => StageContext::with_executor(lake, cfg, self.obs.clone(), exec.clone()),
            None => StageContext::with_obs(lake, cfg, self.obs.clone()),
        };
        ctx.source = source;
        // The run span scopes the whole pipeline: stage spans nest under
        // it, and an error path still records it on drop.
        let mut run_span = self.obs.span_scope("run", run_name);
        run_span.arg("budget", budget as f64);
        run_span.arg("threads", ctx.executor.threads() as f64);
        let sink = &mut self.open_sink(lake, budget, ctx.executor.threads(), opts)?;

        // The two per-table stages run first so that any table faulting
        // under FaultPolicy::Skip is quarantined *before* cross-table
        // clustering — survivors then fold, label and classify exactly
        // as they would in a lake without the quarantined tables.
        let embedded = run_or_restore(&mut ctx, sink, "embed", |ctx| {
            EmbedStage::from_config(cfg).run(ctx, ())
        })?;
        ctx.storage_failure()?;
        let featurized = run_or_restore(&mut ctx, sink, "featurize", |ctx| {
            FeaturizeStage::default().run(ctx, ())
        })?;
        let featurized = ctx.reload_spills(featurized)?;

        // Step 1: domain-based cell folding (cluster the embedding).
        let domain = run_or_restore(&mut ctx, sink, "domain_folds", |ctx| {
            DomainFoldStage.run(ctx, &embedded)
        })?;

        // Step 2: quality-based cell folding.
        let quality = run_or_restore(&mut ctx, sink, "quality_folds", |ctx| {
            QualityFoldStage { budget: phase1_budget(cfg, budget) }.run(ctx, (&domain, &featurized))
        })?;

        // Steps 3 + 4: sampling, labeling and propagation (plus the
        // optional uncertainty refinement).
        let propagated = run_or_restore(&mut ctx, sink, "label", |ctx| {
            LabelStage { labeler, budget }.run(ctx, (&quality, &featurized))
        })?;

        // Step 5: classification.
        let predictions = run_or_restore(&mut ctx, sink, "classify", |ctx| {
            ClassifyStage.run(ctx, (&domain, &featurized, &propagated))
        })?;

        // Crash-test hook for "killed after the last stage boundary":
        // fires between the final snapshot commit and result assembly.
        faultpoint::hit("finalize", 0);

        ctx.quarantine.normalize();
        if self.obs.is_enabled() {
            self.obs.counter_add("quarantine.tables", ctx.quarantine.tables.len() as u64);
            self.obs.counter_add("quarantine.columns", ctx.quarantine.columns.len() as u64);
            self.obs.counter_add(
                "quarantine.fold_fallbacks",
                ctx.quarantine.fold_fallbacks.len() as u64,
            );
        }
        run_span.finish_secs();
        let result = DetectionResult {
            predicted: predictions.mask,
            labels_used: propagated.labels_used,
            n_domain_folds: domain.folds.len(),
            n_quality_folds: quality.n_total(),
            report: ctx.report,
            quarantine: ctx.quarantine,
            durability_degraded: sink.degraded,
        };
        Ok((result, RunArtifacts { featurized, domain, quality, propagated }))
    }
}

/// Why [`Matelda::run_stages`] stopped: the run sink or the table
/// source failed.
#[derive(Debug)]
pub(crate) enum RunError {
    /// The checkpoint store failed or rejected a snapshot.
    Ckpt(CkptError),
    /// A columnar table source failed to read a table or write a spill.
    Storage(ChunkedError),
}

impl From<CkptError> for RunError {
    fn from(e: CkptError) -> Self {
        RunError::Ckpt(e)
    }
}

impl From<ChunkedError> for RunError {
    fn from(e: ChunkedError) -> Self {
        RunError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_lakegen::QuintetLake;
    use matelda_table::oracle::Oracle;
    use matelda_table::Confusion;

    fn small_quintet() -> matelda_lakegen::GeneratedLake {
        QuintetLake { rows_per_table: 60, error_rate: 0.09 }.generate(42)
    }

    #[test]
    fn end_to_end_beats_chance() {
        let lake = small_quintet();
        let mut oracle = Oracle::new(&lake.errors);
        let result = Matelda::new(MateldaConfig::default()).detect(&lake.dirty, &mut oracle, 60);
        let conf = Confusion::from_masks(&result.predicted, &lake.errors);
        // Random guessing at the 9% error rate has precision ≈ 0.09 and
        // F1 ≈ 0.16 at best; the pipeline must do far better even with
        // ~1 label per 30 columns.
        assert!(conf.precision() > 0.2, "precision {} too low", conf.precision());
        assert!(conf.recall() > 0.2, "recall {} too low", conf.recall());
        assert!(conf.f1() > 0.25, "f1 {} too low", conf.f1());
        assert!(result.labels_used > 0);
        assert!(result.n_domain_folds >= 1);
        assert!(result.n_quality_folds >= result.n_domain_folds);
    }

    #[test]
    fn deterministic_given_seed() {
        let lake = small_quintet();
        let run = || {
            let mut oracle = Oracle::new(&lake.errors);
            Matelda::new(MateldaConfig::default()).detect(&lake.dirty, &mut oracle, 40)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.labels_used, b.labels_used);
    }

    #[test]
    fn detect_explained_matches_detect_bit_for_bit() {
        let lake = small_quintet();
        let mut o1 = Oracle::new(&lake.errors);
        let plain = Matelda::new(MateldaConfig::default()).detect(&lake.dirty, &mut o1, 40);
        let mut o2 = Oracle::new(&lake.errors);
        let (explained, artifacts) = Matelda::new(MateldaConfig::default())
            .detect_explained(&lake.dirty, &mut o2, 40, &Durability::default())
            .expect("no checkpoint store");
        assert_eq!(explained.digest(), plain.digest());
        assert_eq!(explained.predicted, plain.predicted);
        // The artifacts cover the whole lake and are mutually consistent.
        assert_eq!(artifacts.featurized.features.len(), lake.dirty.n_tables());
        assert_eq!(artifacts.propagated.labels_used, plain.labels_used);
        assert_eq!(artifacts.quality.n_total(), plain.n_quality_folds);
        assert_eq!(artifacts.domain.folds.len(), plain.n_domain_folds);
    }

    #[test]
    fn budget_controls_labels_used() {
        let lake = small_quintet();
        let mut o1 = Oracle::new(&lake.errors);
        let small = Matelda::new(MateldaConfig::default()).detect(&lake.dirty, &mut o1, 12);
        let mut o2 = Oracle::new(&lake.errors);
        let large = Matelda::new(MateldaConfig::default()).detect(&lake.dirty, &mut o2, 120);
        assert!(large.labels_used > small.labels_used);
        // The budget is a hard ceiling.
        assert!(small.labels_used <= 12, "{}", small.labels_used);
        assert!(large.labels_used <= 120, "{}", large.labels_used);
        assert!(small.labels_used >= 2);
    }

    #[test]
    fn all_variants_run() {
        let lake = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(5);
        let variants = vec![
            MateldaConfig {
                domain_folding: DomainFolding::ExtremeDomainFolding,
                ..Default::default()
            },
            MateldaConfig { domain_folding: DomainFolding::RowSampling(0.3), ..Default::default() },
            MateldaConfig { domain_folding: DomainFolding::SantosLike, ..Default::default() },
            MateldaConfig { syntactic_refinement: true, ..Default::default() },
            MateldaConfig { training: TrainingStrategy::PerDomainFold, ..Default::default() },
            MateldaConfig { training: TrainingStrategy::UnlabeledCellFolds, ..Default::default() },
            MateldaConfig { features: FeatureConfig::no_outliers(), ..Default::default() },
            MateldaConfig { features: FeatureConfig::no_typos(), ..Default::default() },
            MateldaConfig { features: FeatureConfig::no_rules(), ..Default::default() },
        ];
        for cfg in variants {
            let mut oracle = Oracle::new(&lake.errors);
            let r = Matelda::new(cfg.clone()).detect(&lake.dirty, &mut oracle, 20);
            assert_eq!(r.predicted.n_cells(), lake.dirty.n_cells(), "variant {cfg:?}");
            assert!(r.labels_used <= 20, "variant {cfg:?} overspent: {}", r.labels_used);
        }
    }

    #[test]
    fn mem_budget_degrades_domain_folds_instead_of_aborting() {
        let lake = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(5);
        // 64 bytes can't hold the 5×5 mutual-reachability matrix, so the
        // domain-fold stage goes over budget; under Skip the run must
        // complete, degraded to extreme domain folding, with the fault
        // on the record.
        let cfg = MateldaConfig {
            mem_budget_bytes: Some(64),
            on_error: FaultPolicy::Skip,
            ..Default::default()
        };
        let mut oracle = Oracle::new(&lake.errors);
        let r = Matelda::new(cfg).detect(&lake.dirty, &mut oracle, 20);
        assert_eq!(r.n_domain_folds, 1, "degrades to one fold of all tables");
        assert_eq!(r.predicted.n_cells(), lake.dirty.n_cells());
        let fault = r
            .report
            .faults
            .iter()
            .find(|f| f.stage == "domain_folds")
            .expect("budget fault recorded");
        assert!(fault.message.contains("memory budget"), "{}", fault.message);
        // A budget that fits changes nothing: same bits as no budget.
        let run = |budget| {
            let cfg = MateldaConfig { mem_budget_bytes: budget, ..Default::default() };
            let mut oracle = Oracle::new(&lake.errors);
            Matelda::new(cfg).detect(&lake.dirty, &mut oracle, 20)
        };
        assert_eq!(run(Some(1 << 30)).digest(), run(None).digest());
    }

    #[test]
    #[should_panic(expected = "domain_folds")]
    fn mem_budget_aborts_under_fail_policy() {
        let lake = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(5);
        let cfg = MateldaConfig { mem_budget_bytes: Some(64), ..Default::default() };
        let mut oracle = Oracle::new(&lake.errors);
        let _ = Matelda::new(cfg).detect(&lake.dirty, &mut oracle, 20);
    }

    #[test]
    fn adaptive_labeling_respects_budget_and_runs() {
        let lake = small_quintet();
        let budget = 3 * lake.dirty.n_columns();
        let cfg = MateldaConfig {
            labeling: LabelingStrategy::UncertaintyRefinement,
            ..Default::default()
        };
        let mut oracle = Oracle::new(&lake.errors);
        let r = Matelda::new(cfg).detect(&lake.dirty, &mut oracle, budget);
        // Phase 1 spends at most half the budget; phase 2 at most the
        // remainder — the total never exceeds the grant.
        assert!(r.labels_used <= budget, "{}", r.labels_used);
        let conf = Confusion::from_masks(&r.predicted, &lake.errors);
        assert!(conf.f1() > 0.2, "adaptive f1 {}", conf.f1());
    }

    #[test]
    fn empty_lake() {
        let lake = Lake::default();
        let truth = CellMask::empty(&lake);
        let mut oracle = Oracle::new(&truth);
        let r = Matelda::default().detect(&lake, &mut oracle, 10);
        assert_eq!(r.labels_used, 0);
        assert_eq!(r.n_domain_folds, 0);
        assert_eq!(r.report.stages.len(), 6, "all stages report even on an empty lake");
    }

    #[test]
    fn single_table_lake_forms_a_singleton_fold() {
        // One table: HDBSCAN has a single point to cluster; the pipeline
        // must form the singleton fold rather than panic or drop it.
        let gl = QuintetLake { rows_per_table: 20, error_rate: 0.1 }.generate(2);
        let lake = Lake::new(vec![gl.dirty.tables[0].clone()]);
        let truth = CellMask::from_cells(
            &lake,
            gl.errors.iter_set().filter(|id| id.table == 0).collect::<Vec<_>>(),
        );
        let mut oracle = Oracle::new(&truth);
        let r = Matelda::default().detect(&lake, &mut oracle, 10);
        assert_eq!(r.n_domain_folds, 1);
        assert!(r.labels_used <= 10);
        assert_eq!(r.predicted.n_cells(), lake.n_cells());
        assert!(r.quarantine.is_empty());
    }

    #[test]
    fn zero_row_and_zero_column_tables_flow_through_every_stage() {
        use matelda_table::{Column, Table};
        // A normal table plus two degenerate ones: a table whose columns
        // hold no values, and a table with no columns at all. Every
        // stage must pass them through under both fault policies.
        let gl = QuintetLake { rows_per_table: 15, error_rate: 0.1 }.generate(9);
        let zero_rows = Table::new(
            "zero_rows",
            vec![Column::new("a", Vec::<String>::new()), Column::new("b", Vec::<String>::new())],
        );
        let zero_cols = Table::new("zero_cols", Vec::new());
        let mut tables = gl.dirty.tables.clone();
        tables.push(zero_rows);
        tables.push(zero_cols);
        let lake = Lake::new(tables);
        let truth = CellMask::from_cells(&lake, gl.errors.iter_set().collect::<Vec<_>>());
        for on_error in [FaultPolicy::Fail, FaultPolicy::Skip] {
            let mut oracle = Oracle::new(&truth);
            let cfg = MateldaConfig { on_error, ..Default::default() };
            let r = Matelda::new(cfg).detect(&lake, &mut oracle, 15);
            assert_eq!(r.report.stages.len(), 6, "{on_error:?}");
            assert!(r.labels_used <= 15, "{on_error:?}");
            assert_eq!(r.predicted.n_cells(), lake.n_cells(), "{on_error:?}");
            // Degenerate tables have no cells, so nothing to flag there;
            // and they must not be quarantined — empty is not faulty.
            assert!(r.quarantine.tables.is_empty(), "{on_error:?}: {:?}", r.quarantine);
        }
    }

    #[test]
    fn zero_budget_spends_no_labels() {
        // The paper's 2-per-fold floor is clamped to the grant: with no
        // budget the pipeline must not ask the labeler for anything.
        let lake = small_quintet();
        let mut oracle = Oracle::new(&lake.errors);
        let r = Matelda::default().detect(&lake.dirty, &mut oracle, 0);
        assert_eq!(r.labels_used, 0);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("matelda-core-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn durable_run_without_resume_matches_plain_detect() {
        let lake = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(3);
        let dir = ckpt_dir("plain");
        let mut o1 = Oracle::new(&lake.errors);
        let plain = Matelda::default().detect(&lake.dirty, &mut o1, 20);
        let mut o2 = Oracle::new(&lake.errors);
        let opts =
            Durability { checkpoint_dir: Some(dir.clone()), resume: false, ..Default::default() };
        let durable = Matelda::default().detect_durable(&lake.dirty, &mut o2, 20, &opts).unwrap();
        assert_eq!(durable.predicted, plain.predicted);
        assert_eq!(durable.labels_used, plain.labels_used);
        // All six stage snapshots plus the manifest are on disk.
        for stage in ["embed", "featurize", "domain_folds", "quality_folds", "label", "classify"] {
            assert!(dir.join(format!("{stage}.ckpt")).is_file(), "{stage}");
        }
        assert!(dir.join("manifest.ckpt").is_file());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_durable_runs_write_identical_embedding_artifacts() {
        // The embed snapshot's artifact, re-encoded, is the same bytes in
        // two runs of one lake. (The snapshot files themselves differ:
        // their run state carries each stage's wall time.)
        use crate::domain_fold::EmbeddedLake;
        use crate::snapshot::{decode_snapshot, ArtifactCodec};
        use matelda_table::wire::Writer;
        let lake = QuintetLake::default().generate(3);
        let matelda = Matelda::default();
        let artifact = || {
            let dir = ckpt_dir("embed-bits");
            let mut oracle = Oracle::new(&lake.errors);
            let opts = Durability {
                checkpoint_dir: Some(dir.clone()),
                resume: false,
                ..Default::default()
            };
            matelda.detect_durable(&lake.dirty, &mut oracle, 20, &opts).unwrap();
            let store = CheckpointStore::open(&dir, matelda.manifest(&lake.dirty, 20), true);
            let payload = store.unwrap().load_stage("embed").unwrap().expect("embed snapshot");
            let (_, embedded) = decode_snapshot::<EmbeddedLake>(&payload).unwrap();
            assert!(matches!(embedded, EmbeddedLake::Vectors(_)), "{embedded:?}");
            let mut w = Writer::new();
            embedded.encode_into(&mut w);
            std::fs::remove_dir_all(&dir).unwrap();
            w.into_bytes()
        };
        assert_eq!(artifact(), artifact());
    }

    #[test]
    fn resume_restores_everything_without_querying_the_labeler() {
        let lake = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(4);
        let dir = ckpt_dir("resume");
        let mut o1 = Oracle::new(&lake.errors);
        let opts =
            Durability { checkpoint_dir: Some(dir.clone()), resume: false, ..Default::default() };
        let first = Matelda::default().detect_durable(&lake.dirty, &mut o1, 20, &opts).unwrap();
        // Second run resumes off the completed snapshots: bit-identical
        // result, and the labeler is never consulted.
        let mut o2 = Oracle::new(&lake.errors);
        let opts =
            Durability { checkpoint_dir: Some(dir.clone()), resume: true, ..Default::default() };
        let second = Matelda::default().detect_durable(&lake.dirty, &mut o2, 20, &opts).unwrap();
        assert_eq!(second.predicted, first.predicted);
        assert_eq!(second.labels_used, first.labels_used);
        assert_eq!(o2.labels_used(), 0, "restored run must not spend labels");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_with_different_inputs_is_rejected_not_reused() {
        let lake = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(5);
        let dir = ckpt_dir("mismatch");
        let mut o1 = Oracle::new(&lake.errors);
        let opts =
            Durability { checkpoint_dir: Some(dir.clone()), resume: false, ..Default::default() };
        Matelda::default().detect_durable(&lake.dirty, &mut o1, 20, &opts).unwrap();
        let resume =
            Durability { checkpoint_dir: Some(dir.clone()), resume: true, ..Default::default() };
        // Different seed.
        let mut o2 = Oracle::new(&lake.errors);
        let other = Matelda::new(MateldaConfig { seed: 99, ..Default::default() });
        let err = other.detect_durable(&lake.dirty, &mut o2, 20, &resume).unwrap_err();
        assert!(err.to_string().contains("seed"), "got: {err}");
        // Different budget.
        let mut o3 = Oracle::new(&lake.errors);
        let err = Matelda::default().detect_durable(&lake.dirty, &mut o3, 21, &resume).unwrap_err();
        assert!(err.to_string().contains("budget"), "got: {err}");
        // Different lake content.
        let mut dirty = lake.dirty.clone();
        dirty.tables[0].columns[0].values[0] = "mutated".into();
        let mut o4 = Oracle::new(&lake.errors);
        let err = Matelda::default().detect_durable(&dirty, &mut o4, 20, &resume).unwrap_err();
        assert!(err.to_string().contains("lake fingerprint"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_fault_under_degrade_still_lands_the_clean_digest() {
        use matelda_ckpt::{FaultKind, InjectAt, Vfs};
        let lake = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(12);
        let mut o1 = Oracle::new(&lake.errors);
        let clean = Matelda::default().detect(&lake.dirty, &mut o1, 20);
        assert!(!clean.durability_degraded);

        // ENOSPC at the very first checkpoint operation: under Degrade
        // the run proceeds non-durably and reports it; the bits match.
        let dir = ckpt_dir("degrade");
        let obs = Obs::enabled();
        let opts = Durability {
            checkpoint_dir: Some(dir.clone()),
            resume: false,
            policy: DurabilityPolicy::Degrade,
            vfs: Vfs::with_injector(InjectAt::new(
                0,
                FaultKind::Errno(std::io::ErrorKind::StorageFull),
            )),
        };
        let mut o2 = Oracle::new(&lake.errors);
        let degraded = Matelda::default()
            .with_obs(obs.clone())
            .detect_durable(&lake.dirty, &mut o2, 20, &opts)
            .expect("Degrade must not fail the run");
        assert!(degraded.durability_degraded);
        assert_eq!(degraded.digest(), clean.digest(), "degraded run must keep the clean bits");
        assert_eq!(obs.counter("ckpt.degraded"), Some(1));
        assert!(!obs.events_named("ckpt.degraded").is_empty());

        // The same fault under Fail is a hard error, not a panic.
        let opts = Durability {
            checkpoint_dir: Some(dir.clone()),
            resume: false,
            policy: DurabilityPolicy::Fail,
            vfs: Vfs::with_injector(InjectAt::new(
                0,
                FaultKind::Errno(std::io::ErrorKind::StorageFull),
            )),
        };
        let mut o3 = Oracle::new(&lake.errors);
        let err = Matelda::default().detect_durable(&lake.dirty, &mut o3, 20, &opts).unwrap_err();
        assert!(matches!(err, CkptError::Io { .. }), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degrade_never_forgives_corrupt_snapshots() {
        // Degrade forgives the disk, not the bytes: a corrupt snapshot
        // on resume stays a hard error under either policy.
        let lake = QuintetLake { rows_per_table: 25, error_rate: 0.1 }.generate(13);
        let dir = ckpt_dir("degrade-corrupt");
        let mut o1 = Oracle::new(&lake.errors);
        let write =
            Durability { checkpoint_dir: Some(dir.clone()), resume: false, ..Default::default() };
        Matelda::default().detect_durable(&lake.dirty, &mut o1, 20, &write).unwrap();
        let path = dir.join("embed.ckpt");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let opts = Durability {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            policy: DurabilityPolicy::Degrade,
            ..Default::default()
        };
        let mut o2 = Oracle::new(&lake.errors);
        let err = Matelda::default().detect_durable(&lake.dirty, &mut o2, 20, &opts).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_flag_is_excluded_from_the_digest() {
        let lake = QuintetLake { rows_per_table: 20, error_rate: 0.1 }.generate(14);
        let mut oracle = Oracle::new(&lake.errors);
        let mut r = Matelda::default().detect(&lake.dirty, &mut oracle, 15);
        let before = r.digest();
        r.durability_degraded = true;
        assert_eq!(r.digest(), before);
    }

    #[test]
    fn identical_predictions_across_thread_counts() {
        let lake = QuintetLake { rows_per_table: 40, error_rate: 0.1 }.generate(11);
        let run = |threads: usize| {
            let mut oracle = Oracle::new(&lake.errors);
            Matelda::new(MateldaConfig { threads, ..Default::default() }).detect(
                &lake.dirty,
                &mut oracle,
                30,
            )
        };
        let base = run(1);
        for threads in [2, 4] {
            let r = run(threads);
            assert_eq!(r.predicted, base.predicted, "threads={threads}");
            assert_eq!(r.labels_used, base.labels_used, "threads={threads}");
            assert_eq!(r.n_quality_folds, base.n_quality_folds, "threads={threads}");
        }
    }
}
