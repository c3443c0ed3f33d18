//! The out-of-core scale bench: generates a scale-tier lake straight to
//! disk, converts it to the columnar layout, runs the out-of-core
//! detection path at 1/2/4 threads, and checks the whole contract —
//! digest bit-identity with the in-memory path, peak RSS under a fixed
//! multiple of the on-disk lake size, spill accounting — then merges a
//! `scale` section into `BENCH_stages.json` for the bench gate and an
//! eval row (keyed by the tier, so it never collides with the
//! quick/full baselines) into `EVAL_matrix.json`.
//!
//! Protocol notes:
//!
//! * `MATELDA_SCALE` picks the tier (`quick`/`full`/`large-ci`/`large`,
//!   default `large-ci` — the CI job's bounded tier);
//! * peak RSS is `VmHWM` from `/proc/self/status`, which is monotonic —
//!   so the out-of-core legs run *first* and the high-water mark is read
//!   *before* the in-memory digest leg materializes the lake;
//! * the RSS budget is `lake_bytes × 32 + 128 MiB`: cell values are
//!   never lake-wide resident, but the featurized lake is (quality-fold
//!   k-means clusters all cells at once), and features cost 4 bytes
//!   per cell (one pattern code) plus a small per-table pattern table,
//!   against ~14 columnar bytes per cell — a fixed multiple of the lake
//!   size, independent of tier, well inside the budget. The constant
//!   covers the runtime floor on small lakes.
//!   Exceeding the budget → nonzero exit, which is the CI job's
//!   assertion; the tighter check is the gate's relative clause (fresh
//!   peak ≤ 1.5× the committed baseline's).

use matelda_bench::json::Json;
use matelda_bench::{secs, Scale};
use matelda_core::{Matelda, MateldaConfig, OutOfCoreOpts};
use matelda_lakegen::{ScaleLake, ScaleTier};
use matelda_table::chunked::{csv_dir_to_columnar, read_lake_columnar, DEFAULT_CHUNK_LEN};
use matelda_table::{CellId, Confusion, Labeler, StdFs};
use std::path::PathBuf;
use std::time::Instant;

/// Deterministic id-keyed labeler: the same cell id gets the same label
/// regardless of which path (in-memory or out-of-core) asks, so the
/// digest comparison isolates the pipeline, not the oracle.
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

/// `VmHWM` (peak resident set, bytes) from `/proc/self/status`; 0 when
/// unavailable (non-Linux), which disables the local assertion but
/// still records the field.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Replaces (or adds) the `scale` section in `BENCH_stages.json`.
/// Everything else in the file is preserved — the stages bench owns the
/// rest.
fn merge_scale_section(path: &str, section: Json) -> std::io::Result<()> {
    let doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or(Json::Obj(vec![("bench".into(), Json::Str("stages".into()))]));
    let Json::Obj(fields) = doc else {
        return Err(std::io::Error::other("BENCH_stages.json is not an object"));
    };
    let mut out: Vec<(String, Json)> = fields.into_iter().filter(|(k, _)| k != "scale").collect();
    out.push(("scale".into(), section));
    std::fs::write(path, Json::Obj(out).render() + "\n")
}

fn main() {
    let tier_name = std::env::var("MATELDA_SCALE").unwrap_or_default();
    let tier = ScaleTier::parse(&tier_name).unwrap_or(ScaleTier::LargeCi);
    let eval_scale = match tier {
        ScaleTier::Quick => Scale::Quick,
        ScaleTier::Full => Scale::Full,
        ScaleTier::LargeCi => Scale::LargeCi,
        ScaleTier::Large => Scale::Large,
    };
    println!("=== scale bench: out-of-core detection at tier `{}` ===\n", tier.name());

    let work: PathBuf =
        std::env::var("MATELDA_SCALE_DIR").map(PathBuf::from).unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("matelda_scale_bench_{}", std::process::id()))
        });
    let csv_dir = work.join("csv");
    let columnar_dir = work.join("columnar");
    let spill_dir = work.join("spill");
    let _ = std::fs::remove_dir_all(&work);

    // Phase 1: generate the dirty lake straight to disk, one table
    // resident at a time.
    let t0 = Instant::now();
    let on_disk = ScaleLake::new(tier).generate_to_disk(1, &csv_dir).expect("generate lake");
    println!(
        "generated {} tables / {} cells / {} CSV bytes in {}",
        on_disk.n_tables,
        on_disk.n_cells,
        on_disk.bytes_written,
        secs(t0.elapsed().as_secs_f64())
    );

    // Phase 2: CSV → columnar, still one table at a time.
    let fs = StdFs;
    let t0 = Instant::now();
    let n = csv_dir_to_columnar(&fs, &csv_dir, &columnar_dir, DEFAULT_CHUNK_LEN)
        .expect("columnar conversion");
    assert_eq!(n, on_disk.n_tables);
    println!("converted to columnar in {}", secs(t0.elapsed().as_secs_f64()));

    // Phase 3: the out-of-core legs — BEFORE the in-memory leg, so the
    // monotonic VmHWM read below covers only the streaming path.
    let budget = 2 * on_disk.n_tables;
    let mem_budget = std::env::var("MATELDA_MEM_BUDGET_BYTES").ok().and_then(|s| s.parse().ok());
    let opts = OutOfCoreOpts::new(&spill_dir);
    let mut digests = Vec::new();
    let mut one_thread_run = None;
    for threads in [1usize, 2, 4] {
        let config =
            MateldaConfig { threads, mem_budget_bytes: mem_budget, ..MateldaConfig::default() };
        let mut labeler = HashLabeler { used: 0 };
        let t0 = Instant::now();
        let run = Matelda::new(config)
            .detect_out_of_core(&fs, &columnar_dir, &mut labeler, budget, &opts)
            .expect("out-of-core detection");
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "out-of-core @{threads}t: digest {:016x}, {} spills, {} labels, {}",
            run.result.digest(),
            run.spill_count,
            labeler.used,
            secs(wall)
        );
        assert_eq!(run.cells, on_disk.n_cells, "streamed cell count");
        assert_eq!(run.spill_count, on_disk.n_tables, "one spill per table");
        digests.push(run.result.digest());
        if threads == 1 {
            one_thread_run = Some(run);
        }
    }
    let run = one_thread_run.expect("1-thread leg ran");
    let threads_identical = digests.iter().all(|d| *d == digests[0]);

    // Peak RSS of the streaming phase (read before materializing).
    let peak_rss = peak_rss_bytes();
    let rss_budget = run.lake_bytes * 32 + (128 << 20);
    println!(
        "\npeak RSS {peak_rss} bytes over a {} byte columnar lake (budget {rss_budget})",
        run.lake_bytes
    );

    // Phase 4: the in-memory digest leg — the equivalence anchor.
    let lake = read_lake_columnar(&fs, &columnar_dir, DEFAULT_CHUNK_LEN).expect("materialize");
    let mut labeler = HashLabeler { used: 0 };
    let config = MateldaConfig { threads: 1, mem_budget_bytes: mem_budget, ..Default::default() };
    let in_memory = Matelda::new(config).detect(&lake, &mut labeler, budget);
    let in_memory_digest = in_memory.digest();
    let fingerprint_ok = run.fingerprint == matelda_table::lake_fingerprint(&lake);
    let digest_ok = threads_identical && digests[0] == in_memory_digest && fingerprint_ok;
    println!(
        "in-memory digest {in_memory_digest:016x} — {}",
        if digest_ok { "bit-identical" } else { "DIVERGED" }
    );

    // Accuracy against the generator's truth, recorded under this tier's
    // scale key so it cannot collide with the quick/full baseline rows.
    let conf = Confusion::from_masks(&run.result.predicted, &on_disk.errors);
    println!(
        "accuracy: precision {:.3} recall {:.3} f1 {:.3}",
        conf.precision(),
        conf.recall(),
        conf.f1()
    );
    let mut rec = matelda_bench::eval::EvalRecorder::for_experiment("scale_bench", eval_scale);
    rec.record_metrics("scale", "Matelda", 2.0, 1, conf.precision(), conf.recall(), conf.f1());
    rec.flush().expect("flush eval matrix");

    // The per-stage cells/s of the 1-thread leg: the stable numbers the
    // gate bands at 25%.
    let stage_rows: Vec<Json> = run
        .result
        .report
        .stages
        .iter()
        .filter(|s| s.wall_secs > 0.0)
        .map(|s| {
            Json::Obj(vec![
                ("stage".into(), Json::Str(s.name.clone())),
                ("cells_per_sec".into(), Json::Num(on_disk.n_cells as f64 / s.wall_secs)),
            ])
        })
        .collect();
    let section = Json::Obj(vec![
        ("tier".into(), Json::Str(tier.name().into())),
        ("cells".into(), Json::Num(on_disk.n_cells as f64)),
        ("lake_bytes".into(), Json::Num(run.lake_bytes as f64)),
        ("peak_rss_bytes".into(), Json::Num(peak_rss as f64)),
        ("rss_budget_bytes".into(), Json::Num(rss_budget as f64)),
        ("spill_count".into(), Json::Num(run.spill_count as f64)),
        ("digest_ok".into(), Json::Bool(digest_ok)),
        ("stages".into(), Json::Arr(stage_rows)),
    ]);
    let bench_path =
        std::env::var("MATELDA_BENCH_OUT").unwrap_or_else(|_| "BENCH_stages.json".to_string());
    merge_scale_section(&bench_path, section).expect("merge scale section");
    println!("merged `scale` section into {bench_path}");

    let _ = std::fs::remove_dir_all(&work);

    // The CI assertions: digest equivalence is correctness, the RSS
    // budget is the out-of-core promise. Either failing is a red job.
    assert!(digest_ok, "out-of-core digest diverged from the in-memory path");
    if peak_rss > 0 {
        assert!(
            peak_rss <= rss_budget,
            "peak RSS {peak_rss} exceeds budget {rss_budget} ({}x lake size)",
            peak_rss / run.lake_bytes.max(1)
        );
    }
    println!("\nscale bench PASSED");
}
