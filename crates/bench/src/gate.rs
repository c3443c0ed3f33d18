//! The bench-regression gate: compares a freshly produced
//! `BENCH_stages.json` against the committed baseline and reports every
//! violated performance-contract clause (see `DESIGN.md`, "Performance
//! contract"). CI runs this after the stages bench via the `bench_gate`
//! binary; an empty violation list is a pass.
//!
//! Gate clauses:
//!
//! * every baseline stage must still be present in the fresh results,
//!   and its single-thread throughput (`items_per_sec_1t`) must not
//!   drop by more than [`GateConfig::max_drop_pct`] percent;
//! * every overhead section (`fault_isolation`, `checkpoint`,
//!   `observability`, `serve`, `storage`) must stay within its own
//!   `target_pct` budget in the fresh results;
//! * the two files must have been produced at the same `MATELDA_SCALE`
//!   `sweep` size (throughput at different sweep sizes is not
//!   comparable);
//! * when the baseline carries a `scale` section (the out-of-core scale
//!   tier produced by `scale_bench`), the fresh results must carry one
//!   too, at the same tier, with `digest_ok` true, peak RSS under both
//!   the absolute `rss_budget_bytes` and 1.5× the baseline's peak, and
//!   per-stage `cells_per_sec` within the throughput band.
//!
//! By default only single-thread throughput is gated: multi-thread
//! speedups on shared CI runners are noise-dominated, while
//! `items_per_sec_1t` on the same runner class is stable enough for a
//! 25% band. A dedicated CI leg opts into the per-thread-count
//! baseline with [`GateConfig::require_2t`] (the `--require-2t` flag):
//! it additionally gates each stage's `items_per_sec_2t` and its
//! 2-thread scaling ratio `speedup_2t`, so a change that quietly
//! serializes a parallel stage (speedup collapses while 1-thread
//! throughput is unchanged) fails the gate. The JSON parsing lives in
//! [`crate::json`], shared with the accuracy gate (`eval`) — the bench
//! emits a small, known shape and the crate policy is no third-party
//! dependencies.

pub use crate::json::Json;

/// Gate thresholds.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum tolerated single-thread throughput drop, in percent of
    /// the baseline's `items_per_sec_1t`. With [`GateConfig::require_2t`]
    /// the same band also applies to `items_per_sec_2t` and `speedup_2t`.
    pub max_drop_pct: f64,
    /// Also gate the per-thread-count baseline: each baseline stage's
    /// `items_per_sec_2t` and `speedup_2t` must be present in the fresh
    /// results and must not drop by more than `max_drop_pct` percent.
    /// Off by default — only the dedicated 2-thread CI leg (which pins
    /// runner class and thread count) opts in via `--require-2t`.
    pub require_2t: bool,
}

impl Default for GateConfig {
    fn default() -> Self {
        // 25%: wide enough for shared-runner noise on sub-100ms stages,
        // tight enough to catch an accidental algorithmic regression
        // (the fallback paths this PR replaces were 2×+ slower).
        GateConfig { max_drop_pct: 25.0, require_2t: false }
    }
}

/// The overhead sections the gate checks against their own budgets.
const OVERHEAD_SECTIONS: [&str; 5] =
    ["fault_isolation", "checkpoint", "observability", "serve", "storage"];

/// Compares fresh bench results against the committed baseline and
/// returns every violation as a human-readable line. Empty = pass.
pub fn compare(baseline: &Json, fresh: &Json, cfg: GateConfig) -> Vec<String> {
    let mut violations = Vec::new();

    // The sweep size lives under `sweep` (`scale` is the out-of-core
    // section object).
    fn sweep_of(doc: &Json) -> &str {
        doc.get("sweep").and_then(Json::as_str).unwrap_or("?")
    }
    let b_scale = sweep_of(baseline);
    let f_scale = sweep_of(fresh);
    if b_scale != f_scale {
        violations.push(format!(
            "scale mismatch: baseline ran at `{b_scale}`, fresh at `{f_scale}` — throughput not comparable"
        ));
        return violations;
    }

    let empty: [Json; 0] = [];
    let fresh_stages = fresh.get("stages").and_then(Json::as_arr).unwrap_or(&empty);
    for stage in baseline.get("stages").and_then(Json::as_arr).unwrap_or(&empty) {
        let name = stage.get("stage").and_then(Json::as_str).unwrap_or("?");
        let Some(base_ips) = stage.get("items_per_sec_1t").and_then(Json::as_num) else {
            continue;
        };
        let found =
            fresh_stages.iter().find(|s| s.get("stage").and_then(Json::as_str) == Some(name));
        let Some(found) = found else {
            violations
                .push(format!("stage `{name}` present in baseline but missing from fresh results"));
            continue;
        };
        let fresh_ips = found.get("items_per_sec_1t").and_then(Json::as_num).unwrap_or(0.0);
        if base_ips > 0.0 {
            let drop_pct = 100.0 * (base_ips - fresh_ips) / base_ips;
            if drop_pct > cfg.max_drop_pct {
                violations.push(format!(
                    "stage `{name}`: items_per_sec_1t dropped {drop_pct:.1}% \
                     ({base_ips:.1}/s -> {fresh_ips:.1}/s, limit {limit:.0}%)",
                    limit = cfg.max_drop_pct
                ));
            }
        }
        if cfg.require_2t {
            for key in ["items_per_sec_2t", "speedup_2t"] {
                let Some(base) = stage.get(key).and_then(Json::as_num) else {
                    continue;
                };
                let Some(fresh_val) = found.get(key).and_then(Json::as_num) else {
                    violations.push(format!(
                        "stage `{name}`: `{key}` in baseline but missing from fresh results \
                         (per-thread baseline required)"
                    ));
                    continue;
                };
                if base > 0.0 {
                    let drop_pct = 100.0 * (base - fresh_val) / base;
                    if drop_pct > cfg.max_drop_pct {
                        violations.push(format!(
                            "stage `{name}`: {key} dropped {drop_pct:.1}% \
                             ({base:.3} -> {fresh_val:.3}, limit {limit:.0}%)",
                            limit = cfg.max_drop_pct
                        ));
                    }
                }
            }
        }
    }

    for section in OVERHEAD_SECTIONS {
        if baseline.get(section).is_none() {
            continue;
        }
        let Some(s) = fresh.get(section) else {
            violations.push(format!("overhead section `{section}` missing from fresh results"));
            continue;
        };
        let overhead = s.get("overhead_pct").and_then(Json::as_num).unwrap_or(f64::INFINITY);
        let target = s.get("target_pct").and_then(Json::as_num).unwrap_or(0.0);
        if overhead > target {
            violations.push(format!(
                "overhead `{section}`: {overhead:.2}% exceeds its {target:.1}% budget"
            ));
        }
    }

    check_scale_section(baseline, fresh, cfg, &mut violations);

    violations
}

/// How much a fresh peak RSS may exceed the baseline's before the gate
/// trips. 1.5× absorbs allocator and runner noise while rejecting a
/// genuine memory-behavior regression (the negative test doubles RSS).
const RSS_GROWTH_LIMIT: f64 = 1.5;

/// Gates the out-of-core `scale` section (written by `scale_bench`):
/// tier identity, digest equivalence with the in-memory path, peak RSS
/// against both the absolute budget and the baseline, and per-stage
/// streaming throughput. Skipped entirely when the baseline has no
/// section — sweeps that never ran the scale tier are not penalised.
fn check_scale_section(
    baseline: &Json,
    fresh: &Json,
    cfg: GateConfig,
    violations: &mut Vec<String>,
) {
    let Some(base) = baseline.get("scale") else {
        return;
    };
    let Some(found) = fresh.get("scale") else {
        violations.push("scale section present in baseline but missing from fresh results".into());
        return;
    };
    let b_tier = base.get("tier").and_then(Json::as_str).unwrap_or("?");
    let f_tier = found.get("tier").and_then(Json::as_str).unwrap_or("?");
    if b_tier != f_tier {
        violations
            .push(format!("scale tier mismatch: baseline ran `{b_tier}`, fresh ran `{f_tier}`"));
        return;
    }
    if found.get("digest_ok").and_then(Json::as_bool) != Some(true) {
        violations.push(
            "scale: out-of-core digest no longer matches the in-memory path (digest_ok)".into(),
        );
    }
    let fresh_rss = found.get("peak_rss_bytes").and_then(Json::as_num).unwrap_or(f64::INFINITY);
    let rss_budget = found.get("rss_budget_bytes").and_then(Json::as_num).unwrap_or(0.0);
    if fresh_rss > rss_budget {
        violations.push(format!(
            "scale: peak RSS {fresh_rss:.0} bytes exceeds the {rss_budget:.0}-byte budget \
             (out-of-core path held too much resident)"
        ));
    }
    if let Some(base_rss) = base.get("peak_rss_bytes").and_then(Json::as_num) {
        if base_rss > 0.0 && fresh_rss > base_rss * RSS_GROWTH_LIMIT {
            violations.push(format!(
                "scale: peak RSS grew {ratio:.2}x over baseline \
                 ({base_rss:.0} -> {fresh_rss:.0} bytes, limit {RSS_GROWTH_LIMIT}x)",
                ratio = fresh_rss / base_rss
            ));
        }
    }
    let empty: [Json; 0] = [];
    let fresh_stages = found.get("stages").and_then(Json::as_arr).unwrap_or(&empty);
    for stage in base.get("stages").and_then(Json::as_arr).unwrap_or(&empty) {
        let name = stage.get("stage").and_then(Json::as_str).unwrap_or("?");
        let Some(base_cps) = stage.get("cells_per_sec").and_then(Json::as_num) else {
            continue;
        };
        let found_stage =
            fresh_stages.iter().find(|s| s.get("stage").and_then(Json::as_str) == Some(name));
        let Some(found_stage) = found_stage else {
            violations.push(format!(
                "scale stage `{name}` present in baseline but missing from fresh results"
            ));
            continue;
        };
        let fresh_cps = found_stage.get("cells_per_sec").and_then(Json::as_num).unwrap_or(0.0);
        if base_cps > 0.0 {
            let drop_pct = 100.0 * (base_cps - fresh_cps) / base_cps;
            if drop_pct > cfg.max_drop_pct {
                violations.push(format!(
                    "scale stage `{name}`: cells_per_sec dropped {drop_pct:.1}% \
                     ({base_cps:.1}/s -> {fresh_cps:.1}/s, limit {limit:.0}%)",
                    limit = cfg.max_drop_pct
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_baseline() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stages.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_stages.json");
        Json::parse(&text).expect("baseline parses")
    }

    /// Rebuilds the baseline with one stage's throughput scaled.
    fn with_scaled_stage(doc: &Json, stage_name: &str, factor: f64) -> Json {
        with_scaled_stage_key(doc, stage_name, "items_per_sec_1t", factor)
    }

    /// Rebuilds the baseline with one numeric key of one stage scaled.
    fn with_scaled_stage_key(doc: &Json, stage_name: &str, key: &str, factor: f64) -> Json {
        let Json::Obj(fields) = doc else { panic!("doc is an object") };
        let fields = fields
            .iter()
            .map(|(k, v)| {
                if k != "stages" {
                    return (k.clone(), v.clone());
                }
                let stages = v
                    .as_arr()
                    .expect("stages array")
                    .iter()
                    .map(|s| {
                        if s.get("stage").and_then(Json::as_str) != Some(stage_name) {
                            return s.clone();
                        }
                        let Json::Obj(sf) = s else { panic!("stage is an object") };
                        Json::Obj(
                            sf.iter()
                                .map(|(sk, sv)| {
                                    let sv = if sk == key {
                                        Json::Num(sv.as_num().unwrap() * factor)
                                    } else {
                                        sv.clone()
                                    };
                                    (sk.clone(), sv)
                                })
                                .collect(),
                        )
                    })
                    .collect();
                (k.clone(), Json::Arr(stages))
            })
            .collect();
        Json::Obj(fields)
    }

    #[test]
    fn committed_baseline_parses_and_passes_against_itself() {
        let doc = committed_baseline();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("stages"));
        assert!(!doc.get("stages").and_then(Json::as_arr).unwrap_or(&[]).is_empty());
        let violations = compare(&doc, &doc, GateConfig::default());
        assert!(violations.is_empty(), "self-comparison must pass: {violations:?}");
    }

    #[test]
    fn gate_rejects_a_thirty_percent_regression() {
        // The negative control the CI job relies on: a synthetic 30%
        // single-thread throughput drop on the classify stage must trip
        // the 25% gate.
        let baseline = committed_baseline();
        let regressed = with_scaled_stage(&baseline, "classify", 0.70);
        let violations = compare(&baseline, &regressed, GateConfig::default());
        assert_eq!(violations.len(), 1, "exactly the classify clause: {violations:?}");
        assert!(violations[0].contains("classify") && violations[0].contains("30.0%"));
        // A 20% drop stays inside the band.
        let ok = with_scaled_stage(&baseline, "classify", 0.80);
        assert!(compare(&baseline, &ok, GateConfig::default()).is_empty());
        // A tighter configured limit catches it.
        let tight =
            compare(&baseline, &ok, GateConfig { max_drop_pct: 10.0, ..Default::default() });
        assert_eq!(tight.len(), 1);
    }

    #[test]
    fn require_2t_rejects_a_scaling_regression() {
        // The negative control for the per-thread baseline: halving a
        // stage's 2-thread scaling ratio — a change that serializes the
        // stage without touching its single-thread throughput — must
        // trip the `--require-2t` gate and pass the default one.
        let baseline = committed_baseline();
        let regressed = with_scaled_stage_key(&baseline, "classify", "speedup_2t", 0.5);
        assert!(
            compare(&baseline, &regressed, GateConfig::default()).is_empty(),
            "default gate does not watch scaling"
        );
        let strict = GateConfig { require_2t: true, ..Default::default() };
        let v = compare(&baseline, &regressed, strict);
        assert_eq!(v.len(), 1, "exactly the speedup_2t clause: {v:?}");
        assert!(v[0].contains("classify") && v[0].contains("speedup_2t"));

        // Dropping 2-thread throughput past the band also trips it.
        let slow2 = with_scaled_stage_key(&baseline, "embed", "items_per_sec_2t", 0.5);
        let v = compare(&baseline, &slow2, strict);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("embed") && v[0].contains("items_per_sec_2t"));

        // A fresh file missing the per-thread keys entirely fails too.
        let bare = Json::parse(
            r#"{"sweep":"full","stages":[{"stage":"embed","items_per_sec_1t":1e9,
                "items_per_sec_2t":1e9,"speedup_2t":9.9}]}"#,
        )
        .unwrap();
        let stripped =
            Json::parse(r#"{"sweep":"full","stages":[{"stage":"embed","items_per_sec_1t":1e9}]}"#)
                .unwrap();
        assert!(compare(&bare, &stripped, GateConfig::default()).is_empty());
        let v = compare(&bare, &stripped, strict);
        assert_eq!(v.len(), 2, "both per-thread keys reported missing: {v:?}");

        // The committed baseline passes against itself under the strict
        // gate — the keys it requires are present.
        assert!(compare(&baseline, &baseline, strict).is_empty());
    }

    #[test]
    fn gate_flags_missing_stage_and_scale_mismatch() {
        let baseline = Json::parse(
            r#"{"sweep":"full","stages":[{"stage":"embed","items_per_sec_1t":100.0}]}"#,
        )
        .unwrap();
        let empty = Json::parse(r#"{"sweep":"full","stages":[]}"#).unwrap();
        let v = compare(&baseline, &empty, GateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing"));

        let quick = Json::parse(r#"{"sweep":"quick","stages":[]}"#).unwrap();
        let v = compare(&baseline, &quick, GateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("scale mismatch"));
    }

    /// A document with the modern `sweep` key plus a `scale` section.
    fn scale_doc(peak_rss: f64, digest_ok: bool, fold_cps: f64) -> Json {
        Json::parse(&format!(
            r#"{{"sweep":"full","stages":[],
                "scale":{{"tier":"large-ci","cells":1000000,"lake_bytes":50000000,
                          "peak_rss_bytes":{peak_rss},"rss_budget_bytes":900000000,
                          "spill_count":150,"digest_ok":{digest_ok},
                          "stages":[{{"stage":"featurize","cells_per_sec":200000.0}},
                                    {{"stage":"domain_folds","cells_per_sec":{fold_cps}}}]}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn gate_rejects_a_scale_rss_blowup() {
        // The negative control for the scale tier: a synthetic 2× peak-RSS
        // blowup (a change that quietly re-materialises the lake in
        // memory) must trip the 1.5× growth clause.
        let baseline = scale_doc(400e6, true, 100e3);
        let blown = scale_doc(800e6, true, 100e3);
        let v = compare(&baseline, &blown, GateConfig::default());
        assert_eq!(v.len(), 1, "exactly the RSS clause: {v:?}");
        assert!(v[0].contains("peak RSS grew") && v[0].contains("2.00x"));
        // 1.4× stays inside the band.
        let ok = scale_doc(560e6, true, 100e3);
        assert!(compare(&baseline, &ok, GateConfig::default()).is_empty());
        // Blowing the absolute budget trips even without baseline growth:
        // both legs at 2× budget report growth AND budget violations.
        let huge = scale_doc(2000e6, true, 100e3);
        let v = compare(&huge, &huge, GateConfig::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("exceeds the") && v[0].contains("budget"));
    }

    #[test]
    fn gate_rejects_scale_digest_and_throughput_regressions() {
        let baseline = scale_doc(400e6, true, 100e3);
        // Digest divergence between the out-of-core and in-memory paths
        // is a correctness failure, not a perf number.
        let diverged = scale_doc(400e6, false, 100e3);
        let v = compare(&baseline, &diverged, GateConfig::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("digest_ok"));
        // A >25% cells/s drop on one streaming stage trips its clause.
        let slow = scale_doc(400e6, true, 60e3);
        let v = compare(&baseline, &slow, GateConfig::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("domain_folds") && v[0].contains("40.0%"));
        // Tier mismatch short-circuits the rest of the section.
        let other_text = scale_doc(400e6, true, 100e3).render().replace("large-ci", "large");
        let other = Json::parse(&other_text).unwrap();
        let v = compare(&baseline, &other, GateConfig::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("tier mismatch"));
        // Self-comparison passes.
        assert!(compare(&baseline, &baseline, GateConfig::default()).is_empty());
    }

    #[test]
    fn gate_flags_blown_overhead_budget() {
        let baseline = Json::parse(
            r#"{"sweep":"full","stages":[],
                "observability":{"overhead_pct":1.0,"target_pct":5.0}}"#,
        )
        .unwrap();
        let blown = Json::parse(
            r#"{"sweep":"full","stages":[],
                "observability":{"overhead_pct":7.5,"target_pct":5.0}}"#,
        )
        .unwrap();
        assert!(compare(&baseline, &baseline, GateConfig::default()).is_empty());
        let v = compare(&baseline, &blown, GateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("observability") && v[0].contains("7.50%"));
        // Section disappearing entirely is also a violation.
        let gone = Json::parse(r#"{"sweep":"full","stages":[]}"#).unwrap();
        let v = compare(&baseline, &gone, GateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing"));
    }
}
