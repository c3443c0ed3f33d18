//! End-to-end test of the `matelda-cli` binary: generate → profile →
//! detect → repair over a real temp directory, driving the compiled
//! binary through `std::process::Command` (the way a user would).

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    // Cargo exposes the path of sibling binaries to integration tests.
    Command::new(env!("CARGO_BIN_EXE_matelda-cli"))
}

fn tmp_dir() -> PathBuf {
    // Unique per call: the test harness runs tests in parallel threads,
    // so a process-wide path would let tests delete each other's lakes.
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("matelda_cli_it_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn generate_profile_detect_repair_round_trip() {
    let dir = tmp_dir();
    let dir_s = dir.to_string_lossy().to_string();

    // generate
    let out = cli()
        .args(["generate", &dir_s, "--lake", "dgov-ntr", "--tables", "6", "--seed", "3"])
        .output()
        .expect("spawn generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote 6 tables"), "{stdout}");
    assert!(dir.join("dirty").exists() && dir.join("clean").exists());

    // profile
    let dirty = dir.join("dirty").to_string_lossy().to_string();
    let out = cli().args(["profile", &dirty]).output().expect("spawn profile");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("6 tables"), "{stdout}");
    assert!(stdout.contains("distinct"), "{stdout}");
    assert!(stdout.contains("FDs"), "profile should mine FDs: {stdout}");

    // detect + repair
    let clean = dir.join("clean").to_string_lossy().to_string();
    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--repair", "yes"])
        .output()
        .expect("spawn detect");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("evaluation vs clean"), "{stdout}");
    assert!(stdout.contains("repair suggestions"), "{stdout}");
    // The f1 line should report a percentage (sanity that metrics printed).
    assert!(stdout.contains("f1 "), "{stdout}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = cli().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "bad arguments exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn detect_requires_clean_dir() {
    let out = cli().args(["detect", "/tmp/nowhere"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "bad arguments exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--clean"));
}

#[test]
fn help_documents_flags_and_exit_codes() {
    let out = cli().arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "exit codes",
        "--checkpoint-dir",
        "--resume",
        "--stage-timeout-ms",
        "--max-quarantined",
        "--trace",
        "--metrics",
        "never silently reused",
    ] {
        assert!(stdout.contains(needle), "--help must mention {needle:?}: {stdout}");
    }
}

/// The `--trace` / `--metrics` contract: the trace directory gets all
/// three artifacts, `--metrics` prints the registry, the run's digest is
/// identical with and without tracing, and a failing run still writes
/// its trace while keeping its own exit code.
#[test]
fn trace_and_metrics_flags_export_diagnostics_without_changing_results() {
    let dir = tmp_dir();
    let dir_s = dir.to_string_lossy().to_string();
    let out =
        cli().args(["generate", &dir_s, "--lake", "quintet", "--seed", "5"]).output().expect("gen");
    assert_eq!(out.status.code(), Some(0));
    let dirty = dir.join("dirty").to_string_lossy().to_string();
    let clean = dir.join("clean").to_string_lossy().to_string();
    let digest_of = |stdout: &str| {
        stdout.lines().find_map(|l| l.strip_prefix("digest: ")).expect("digest line").to_string()
    };

    // Untraced reference run.
    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--budget-cells", "20", "--threads", "2"])
        .output()
        .expect("plain detect");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let plain_digest = digest_of(&String::from_utf8_lossy(&out.stdout));

    // Traced run: same digest, artifacts present, metrics printed.
    let trace = dir.join("trace").to_string_lossy().to_string();
    let out = cli()
        .args([
            "detect",
            &dirty,
            "--clean",
            &clean,
            "--budget-cells",
            "20",
            "--threads",
            "2",
            "--trace",
            &trace,
            "--metrics",
        ])
        .output()
        .expect("traced detect");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(digest_of(&stdout), plain_digest, "tracing must not change results");
    assert!(stdout.contains("\"counters\""), "--metrics must print the registry: {stdout}");
    for file in ["trace.json", "events.jsonl", "metrics.json"] {
        let path = dir.join("trace").join(file);
        assert!(path.exists(), "--trace must write {file}");
        assert!(std::fs::metadata(&path).expect("stat").len() > 0, "{file} empty");
    }
    let trace_json =
        std::fs::read_to_string(dir.join("trace").join("trace.json")).expect("read trace");
    assert!(trace_json.contains("\"traceEvents\""), "chrome://tracing shape");
    assert!(trace_json.contains("\"name\":\"detect\""), "run span present");

    // A failing run (ingest error: dirty dir with no CSVs) keeps its
    // own exit code — --trace never masks the failure class.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).expect("mkdir");
    let trace2 = dir.join("trace2").to_string_lossy().to_string();
    let out = cli()
        .args(["detect", &empty.to_string_lossy(), "--clean", &clean, "--trace", &trace2])
        .output()
        .expect("failing detect");
    assert_eq!(out.status.code(), Some(3), "ingest failure stays exit 3 under --trace");

    // --trace without a value is a usage error.
    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--trace", "--metrics"])
        .output()
        .expect("bad trace flag");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The exit-code contract documented in `--help`: each failure class has
/// its own code, so scripts can tell a typo (2) from a broken lake (3),
/// an over-degraded run (4) or a rejected checkpoint (5).
#[test]
fn exit_codes_distinguish_failure_classes() {
    let dir = tmp_dir();
    let dir_s = dir.to_string_lossy().to_string();
    let out =
        cli().args(["generate", &dir_s, "--lake", "quintet", "--seed", "9"]).output().expect("gen");
    assert_eq!(out.status.code(), Some(0));
    let dirty = dir.join("dirty").to_string_lossy().to_string();
    let clean = dir.join("clean").to_string_lossy().to_string();

    // 2 — unparseable flag value.
    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--budget-cells", "lots"])
        .output()
        .expect("bad number");
    assert_eq!(out.status.code(), Some(2), "bad numeric flag exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget-cells"));

    // 2 — --resume without a checkpoint directory.
    let out =
        cli().args(["detect", &dirty, "--clean", &clean, "--resume"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "--resume without --checkpoint-dir exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint-dir"));

    // 2 — an unknown flag (a typo must not silently run with defaults).
    let out =
        cli().args(["detect", &dirty, "--clean", &clean, "--thread", "4"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "unknown flag exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--thread"));

    // 1 — a blown stage deadline under --on-error fail aborts as a
    // runtime failure, not a raw panic trace (exit 101).
    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--stage-timeout-ms", "0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "fail-policy deadline exits 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("run aborted"));

    // 3 — the lake cannot be ingested.
    let out = cli()
        .args(["detect", dir.join("absent").to_str().unwrap(), "--clean", &clean])
        .output()
        .expect("missing dir");
    assert_eq!(out.status.code(), Some(3), "ingest failure exits 3");

    // 4 — degraded run over the quarantine ceiling: an injected embed
    // fault under --on-error skip quarantines one table.
    let out = cli()
        .env("MATELDA_FAULTPOINTS", "embed:1")
        .args(["detect", &dirty, "--clean", &clean, "--on-error", "skip", "--max-quarantined", "0"])
        .output()
        .expect("quarantine ceiling");
    assert_eq!(out.status.code(), Some(4), "quarantine ceiling exits 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-quarantined"));

    // 5 — resuming a checkpoint written under a different label budget.
    let ckpt = dir.join("ckpt").to_string_lossy().to_string();
    let out = cli()
        .args([
            "detect",
            &dirty,
            "--clean",
            &clean,
            "--budget-cells",
            "20",
            "--checkpoint-dir",
            &ckpt,
        ])
        .output()
        .expect("checkpointed run");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args([
            "detect",
            &dirty,
            "--clean",
            &clean,
            "--budget-cells",
            "10",
            "--checkpoint-dir",
            &ckpt,
            "--resume",
        ])
        .output()
        .expect("mismatched resume");
    assert_eq!(out.status.code(), Some(5), "checkpoint mismatch exits 5");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("label budget"),
        "mismatch names the differing field: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn tolerant_read_modes_survive_a_corrupted_file() {
    let dir = tmp_dir();
    let dir_s = dir.to_string_lossy().to_string();
    let out = cli()
        .args(["generate", &dir_s, "--lake", "quintet", "--seed", "5"])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let dirty = dir.join("dirty").to_string_lossy().to_string();
    let clean = dir.join("clean").to_string_lossy().to_string();

    // Make one dirty file ragged: an extra trailing field on the first
    // data row. Repair truncates it back to the header width, so the
    // dirty/clean cell alignment survives.
    let victim = std::fs::read_dir(dir.join("dirty"))
        .expect("read dirty dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "csv"))
        .expect("a csv file");
    let contents = std::fs::read_to_string(&victim).expect("read victim");
    let ragged: Vec<String> = contents
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 1 { format!("{l},__extra__") } else { l.to_string() })
        .collect();
    std::fs::write(&victim, ragged.join("\n") + "\n").expect("write victim");

    // Strict (the default) refuses the lake: ingest failure, exit 3.
    let out = cli().args(["detect", &dirty, "--clean", &clean]).output().expect("strict");
    assert_eq!(out.status.code(), Some(3), "strict mode must fail on a ragged file with exit 3");

    // Repair mode loads it, notes the repair, and completes detection.
    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--read", "repair", "--on-error", "skip"])
        .output()
        .expect("repair");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("loaded after repairs"), "{stdout}");
    assert!(stdout.contains("evaluation vs clean"), "{stdout}");

    // Unknown policies are rejected up front.
    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--on-error", "bogus"])
        .output()
        .expect("bad policy");
    assert_eq!(out.status.code(), Some(2), "unknown policy exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --on-error"));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn variant_flag_is_validated() {
    let dir = tmp_dir();
    let dir_s = dir.to_string_lossy().to_string();
    let out = cli()
        .args(["generate", &dir_s, "--lake", "quintet", "--seed", "1"])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let dirty = dir.join("dirty").to_string_lossy().to_string();
    let clean = dir.join("clean").to_string_lossy().to_string();
    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--variant", "bogus"])
        .output()
        .expect("detect");
    assert_eq!(out.status.code(), Some(2), "unknown variant exits 2");
    // The daemon rejects the same name with the same message
    // (`crates/serve/tests/serve.rs`): both go through one variant table.
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown variant \"bogus\""));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn failure_report_names_misclassified_cells_with_evidence() {
    let dir = tmp_dir();
    let dir_s = dir.to_string_lossy().to_string();
    let out = cli()
        .args(["generate", &dir_s, "--lake", "quintet", "--seed", "11"])
        .output()
        .expect("generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let dirty = dir.join("dirty").to_string_lossy().to_string();
    let clean = dir.join("clean").to_string_lossy().to_string();
    let report_dir = dir.join("failures");
    let report_dir_s = report_dir.to_string_lossy().to_string();

    let out = cli()
        .args(["detect", &dirty, "--clean", &clean, "--failure-report", &report_dir_s])
        .output()
        .expect("detect with failure report");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("failure report ("), "{stdout}");

    let md = std::fs::read_to_string(report_dir.join("failure_report.md")).expect("markdown");
    assert!(md.starts_with("# Matelda failure analysis"), "{md}");
    assert!(md.contains("False negatives"), "{md}");
    // Exemplar rows carry a concrete (table,row,col) cell, a ground-truth
    // error type inferred from the dirty/clean diff, and the names of the
    // detector features that fired.
    assert!(md.contains("| ("), "exemplar rows must name a cell: {md}");
    assert!(
        ["| MV |", "| T |", "| FI |", "| NO |", "| VAD |"].iter().any(|t| md.contains(t)),
        "an FN exemplar must carry its inferred error type: {md}"
    );
    assert!(
        ["tf_hist", "gaussian", "typo", "fd_structural", "nv_", "null_flag", "(none)"]
            .iter()
            .any(|f| md.contains(f)),
        "exemplars must list fired features: {md}"
    );

    let json = std::fs::read_to_string(report_dir.join("failure_report.json")).expect("json");
    assert!(json.starts_with("{\"report\":\"matelda-failures\""), "{json}");
    assert!(json.contains("\"truth_type\""), "{json}");
    assert!(json.contains("\"fired\""), "{json}");

    // A checkpointed run writes the same report, and so does a run
    // resumed off its completed checkpoint directory: every snapshot
    // carries its stage's artifacts.
    let ckpt = dir.join("ckpt").to_string_lossy().to_string();
    for (tag, resume) in [("durable", false), ("resumed", true)] {
        let out_dir = dir.join(tag);
        let out_dir_s = out_dir.to_string_lossy().to_string();
        let mut args = vec![
            "detect",
            &dirty,
            "--clean",
            &clean,
            "--failure-report",
            &out_dir_s,
            "--checkpoint-dir",
            &ckpt,
        ];
        if resume {
            args.push("--resume");
        }
        let out = cli().args(&args).output().expect("detect with checkpoints");
        assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
        let bytes = std::fs::read(out_dir.join("failure_report.json")).expect("json");
        assert!(bytes == json.as_bytes(), "{tag} failure report differs from the plain run's");
    }

    // A degraded run reports on the tables it scored: the quarantined
    // table's cells are unscored, so none of them is diagnosed.
    let degraded_dir = dir.join("degraded");
    let degraded_dir_s = degraded_dir.to_string_lossy().to_string();
    let out = cli()
        .env("MATELDA_FAULTPOINTS", "embed:0")
        .args(["detect", &dirty, "--clean", &clean, "--on-error", "skip"])
        .args(["--failure-report", &degraded_dir_s])
        .output()
        .expect("degraded detect with failure report");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 table(s) quarantined"));
    let json = std::fs::read_to_string(degraded_dir.join("failure_report.json")).expect("json");
    assert!(json.contains("\"kind\":\"FN\""), "{json}");
    assert!(!json.contains("\"cell\":[0,"), "quarantined table 0 diagnosed: {json}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
