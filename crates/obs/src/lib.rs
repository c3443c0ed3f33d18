//! # matelda-obs
//!
//! Zero-dependency structured observability for the pipeline. One
//! cloneable [`Obs`] handle carries three instruments behind a single
//! mutex:
//!
//! * **Tracing spans** — hierarchical (run → stage → per-worker batch)
//!   with monotonic timings. A [`SpanGuard`] is also the workspace's
//!   one stopwatch primitive: [`SpanGuard::finish_secs`] returns the
//!   elapsed wall seconds whether or not recording is enabled, so call
//!   sites that used to keep ad-hoc `Instant` pairs next to their
//!   reports now time *through* the span.
//! * **Metrics registry** — typed counters, gauges and fixed-bucket
//!   histograms (e.g. cells/s per stage, fold sizes, labels spent vs
//!   budget, quarantine and checkpoint counts). Keys live in
//!   `BTreeMap`s so every export is deterministically ordered.
//! * **Run event log** — append-only list of timestamped events
//!   (checkpoint commits, restores, per-item faults, injected chaos),
//!   exported as JSONL.
//!
//! The disabled handle ([`Obs::disabled`], also `Default`) holds no
//! allocation and every recording call is a branch on a `None` — the
//! pipeline pays ~nothing when tracing is off. Everything here is
//! *read-only instrumentation*: no result, artifact or checkpoint byte
//! ever depends on an `Obs`, which is what keeps the determinism and
//! durability contracts intact with tracing on (DESIGN.md §7).
//!
//! [`ProcMemory`] reads the process's resident set and its peak from
//! `/proc/self/status` (Linux only); the stage driver records it per
//! stage when tracing is on.
//!
//! Exports: [`Obs::events_jsonl`] (one JSON object per line),
//! [`Obs::metrics_json`], and [`Obs::trace_json`] — the latter in the
//! `chrome://tracing` / Perfetto trace-event format (`ph:"X"` complete
//! spans, `ph:"i"` instants, microsecond timestamps relative to the
//! handle's epoch). [`Obs::write_dir`] writes all three files.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A monotonic stopwatch: the single timing primitive the workspace
/// uses wherever an elapsed-seconds number is needed without a span.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// This process's resident memory, read from `/proc/self/status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcMemory {
    /// `VmRSS`: resident bytes now.
    pub rss_bytes: u64,
    /// `VmHWM`: the peak resident bytes so far (it never decreases).
    pub hwm_bytes: u64,
}

impl ProcMemory {
    /// Reads both values; `None` off Linux or if the file is unreadable.
    ///
    /// `hwm_bytes` is the largest `VmHWM` any read in this process has
    /// seen: a kernel that sums its RSS counters approximately can report
    /// a `VmHWM` a few pages below an earlier report.
    pub fn read() -> Option<Self> {
        static PEAK: AtomicU64 = AtomicU64::new(0);
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let kib = |key: &str| -> Option<u64> {
            let line = status.lines().find_map(|l| l.strip_prefix(key))?;
            line.trim().trim_end_matches("kB").trim().parse::<u64>().ok()?.checked_mul(1024)
        };
        let (rss_bytes, hwm) = (kib("VmRSS:")?, kib("VmHWM:")?);
        Some(ProcMemory { rss_bytes, hwm_bytes: PEAK.fetch_max(hwm, Ordering::Relaxed).max(hwm) })
    }
}

/// A borrowed event field value — call sites build `&[(&str, Val)]`
/// slices on the stack, so emitting an event allocates nothing until
/// (and unless) the handle is enabled.
#[derive(Debug, Clone, Copy)]
pub enum Val<'a> {
    /// An unsigned integer.
    U(u64),
    /// A float.
    F(f64),
    /// A string.
    S(&'a str),
}

/// An owned event field value, as stored in the log.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedVal {
    /// An unsigned integer.
    U(u64),
    /// A float.
    F(f64),
    /// A string.
    S(String),
}

impl Val<'_> {
    fn to_owned_val(self) -> OwnedVal {
        match self {
            Val::U(v) => OwnedVal::U(v),
            Val::F(v) => OwnedVal::F(v),
            Val::S(v) => OwnedVal::S(v.to_string()),
        }
    }
}

/// One recorded event: a timestamp, a name and typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the handle was enabled.
    pub ts_us: u64,
    /// Event name (dotted taxonomy, e.g. `ckpt.commit`).
    pub name: String,
    /// Typed payload fields.
    pub fields: Vec<(String, OwnedVal)>,
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span id (1-based, in creation order).
    pub id: u64,
    /// Id of the enclosing scoped span, or 0 at the root.
    pub parent: u64,
    /// Category (`run`, `stage`, `exec`, ...).
    pub cat: &'static str,
    /// Span name.
    pub name: String,
    /// Display lane: 0 for the coordinating thread, worker index + 1
    /// for executor workers.
    pub tid: u64,
    /// Start, microseconds since the handle was enabled.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Numeric annotations (item counts, busy time, ...).
    pub args: Vec<(String, f64)>,
}

/// Preset histogram bucket layouts. Fixed bounds keep the registry
/// allocation-free per sample and the exports comparable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buckets {
    /// Latencies in microseconds: 1µs .. 2.5s in a 1-2.5-5 ladder.
    LatencyUs,
    /// Set sizes (fold sizes, batch sizes): powers of two up to 65536.
    Size,
}

const LATENCY_US_BOUNDS: &[f64] = &[
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    2_500_000.0,
];
const SIZE_BOUNDS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0, 32768.0, 65536.0,
];

impl Buckets {
    /// The upper bounds of this layout (exclusive of the overflow
    /// bucket appended at export time).
    pub fn bounds(self) -> &'static [f64] {
        match self {
            Buckets::LatencyUs => LATENCY_US_BOUNDS,
            Buckets::Size => SIZE_BOUNDS,
        }
    }
}

/// A fixed-bucket histogram: counts per `value <= bound` bucket plus an
/// overflow bucket, with running count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds, ascending.
    pub bounds: &'static [f64],
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    pub counts: Vec<u64>,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: f64,
    /// Smallest recorded sample.
    pub min: f64,
    /// Largest recorded sample.
    pub max: f64,
}

impl Histogram {
    fn new(buckets: Buckets) -> Self {
        let bounds = buckets.bounds();
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn record(&mut self, v: f64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

#[derive(Default)]
struct State {
    next_id: u64,
    /// Stack of open *scoped* span ids — the top is the parent that new
    /// spans attach to.
    scope: Vec<u64>,
    spans: Vec<SpanRec>,
    events: Vec<Event>,
    metrics: Registry,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// The cloneable observability handle. `Obs::disabled()` (the default)
/// is a no-op shell; `Obs::enabled()` records into shared state that
/// every clone appends to.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.is_enabled()).finish()
    }
}

impl Obs {
    /// A handle that records nothing. Every call is a cheap no-op.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A recording handle; timestamps are relative to this call.
    pub fn enabled() -> Self {
        Obs { inner: Some(Arc::new(Inner { epoch: Instant::now(), state: Mutex::default() })) }
    }

    /// Whether this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(inner: &Inner) -> MutexGuard<'_, State> {
        // Instrumentation must not take the pipeline down: a panic
        // while the state lock was held only loses observability data.
        inner.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn ts_us(inner: &Inner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span attached to the innermost open scoped span. The
    /// guard times even when disabled (see [`SpanGuard::finish_secs`]).
    pub fn span(&self, cat: &'static str, name: &str) -> SpanGuard {
        self.open_span(cat, name, false)
    }

    /// Opens a span that also becomes the parent of spans opened while
    /// it is live (until [`SpanGuard::finish_secs`] or drop).
    pub fn span_scope(&self, cat: &'static str, name: &str) -> SpanGuard {
        self.open_span(cat, name, true)
    }

    fn open_span(&self, cat: &'static str, name: &str, scoped: bool) -> SpanGuard {
        let data = self.inner.as_ref().map(|inner| {
            let mut st = Self::lock(inner);
            st.next_id += 1;
            let id = st.next_id;
            let parent = st.scope.last().copied().unwrap_or(0);
            if scoped {
                st.scope.push(id);
            }
            let start_us = Self::ts_us(inner);
            Box::new(SpanData {
                id,
                parent,
                cat,
                name: name.to_string(),
                tid: 0,
                start_us,
                args: Vec::new(),
                scoped,
            })
        });
        SpanGuard { obs: self.clone(), watch: Stopwatch::start(), data }
    }

    /// Appends an event to the run log. Free when disabled — the field
    /// slice is borrowed and only copied into owned storage on record.
    pub fn event(&self, name: &str, fields: &[(&str, Val<'_>)]) {
        if let Some(inner) = &self.inner {
            let ev = Event {
                ts_us: Self::ts_us(inner),
                name: name.to_string(),
                fields: fields.iter().map(|(k, v)| (k.to_string(), v.to_owned_val())).collect(),
            };
            Self::lock(inner).events.push(ev);
        }
    }

    /// Adds `delta` to a counter (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut st = Self::lock(inner);
            *st.metrics.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Sets a gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            Self::lock(inner).metrics.gauges.insert(name.to_string(), value);
        }
    }

    /// Records `value` into the named histogram with the given layout.
    pub fn record(&self, name: &str, value: f64, buckets: Buckets) {
        if let Some(inner) = &self.inner {
            let mut st = Self::lock(inner);
            st.metrics
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(buckets))
                .record(value);
        }
    }

    /// Current value of a counter, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.inner.as_ref().and_then(|i| Self::lock(i).metrics.counters.get(name).copied())
    }

    /// Current value of a gauge, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.as_ref().and_then(|i| Self::lock(i).metrics.gauges.get(name).copied())
    }

    /// A snapshot of the named histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.as_ref().and_then(|i| Self::lock(i).metrics.histograms.get(name).cloned())
    }

    /// A snapshot of all finished spans, in finish order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.inner.as_ref().map_or_else(Vec::new, |i| Self::lock(i).spans.clone())
    }

    /// A snapshot of the event log, in append order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |i| Self::lock(i).events.clone())
    }

    /// The logged events carrying the given name, in append order.
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        let mut evs = self.events();
        evs.retain(|e| e.name == name);
        evs
    }

    /// The event log as JSON Lines: one object per event, fields
    /// flattened next to `ts_us` and `event`.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!("{{\"ts_us\":{},\"event\":{}", e.ts_us, json_string(&e.name)));
            for (k, v) in &e.fields {
                out.push_str(&format!(",{}:{}", json_string(k), json_val(v)));
            }
            out.push_str("}\n");
        }
        out
    }

    /// The span tree in the `chrome://tracing` trace-event format:
    /// complete (`ph:"X"`) events for spans, instant (`ph:"i"`) events
    /// for the run log, microsecond timestamps.
    pub fn trace_json(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_us, s.id));
        let mut out = String::from(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"matelda\"}}",
        );
        for s in &spans {
            out.push_str(&format!(
                ",{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
                 \"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
                json_string(&s.name),
                json_string(s.cat),
                s.start_us,
                s.dur_us,
                s.tid,
                s.id,
                s.parent,
            ));
            for (k, v) in &s.args {
                out.push_str(&format!(",{}:{}", json_string(k), json_f64(*v)));
            }
            out.push_str("}}");
        }
        for e in self.events() {
            out.push_str(&format!(
                ",{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":1,\
                 \"tid\":0,\"args\":{{",
                json_string(&e.name),
                e.ts_us,
            ));
            for (i, (k, v)) in e.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json_string(k), json_val(v)));
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }

    /// The metrics registry as one JSON object, deterministically
    /// key-ordered.
    pub fn metrics_json(&self) -> String {
        let (counters, gauges, histograms) = match &self.inner {
            Some(inner) => {
                let st = Self::lock(inner);
                (
                    st.metrics.counters.clone(),
                    st.metrics.gauges.clone(),
                    st.metrics.histograms.clone(),
                )
            }
            None => Default::default(),
        };
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"bounds\":[",
                json_string(k),
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max),
            ));
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_f64(*b));
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("}}\n");
        out
    }

    /// Writes `events.jsonl`, `trace.json` and `metrics.json` into
    /// `dir` (created if missing).
    pub fn write_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("events.jsonl"), self.events_jsonl())?;
        std::fs::write(dir.join("trace.json"), self.trace_json())?;
        std::fs::write(dir.join("metrics.json"), self.metrics_json())?;
        Ok(())
    }
}

struct SpanData {
    id: u64,
    parent: u64,
    cat: &'static str,
    name: String,
    tid: u64,
    start_us: u64,
    args: Vec<(String, f64)>,
    scoped: bool,
}

/// An open span. Records itself on [`SpanGuard::finish_secs`] or drop;
/// times monotonically even when the handle is disabled, so call sites
/// need no separate `Instant` pair for their reports.
pub struct SpanGuard {
    obs: Obs,
    watch: Stopwatch,
    data: Option<Box<SpanData>>,
}

impl SpanGuard {
    /// Sets the display lane (worker index + 1; 0 = coordinator).
    pub fn with_tid(mut self, tid: u64) -> Self {
        if let Some(d) = &mut self.data {
            d.tid = tid;
        }
        self
    }

    /// Attaches a numeric annotation (no-op when disabled).
    pub fn arg(&mut self, key: &str, value: f64) {
        if let Some(d) = &mut self.data {
            d.args.push((key.to_string(), value));
        }
    }

    /// Finishes the span and returns the elapsed wall seconds — the
    /// return value is live whether or not recording is enabled.
    pub fn finish_secs(mut self) -> f64 {
        let secs = self.watch.elapsed_secs();
        self.close();
        secs
    }

    fn close(&mut self) {
        let Some(d) = self.data.take() else { return };
        let Some(inner) = &self.obs.inner else { return };
        let end_us = Obs::ts_us(inner);
        let mut st = Obs::lock(inner);
        if d.scoped {
            if let Some(pos) = st.scope.iter().rposition(|&id| id == d.id) {
                st.scope.remove(pos);
            }
        }
        st.spans.push(SpanRec {
            id: d.id,
            parent: d.parent,
            cat: d.cat,
            name: d.name,
            tid: d.tid,
            start_us: d.start_us,
            dur_us: end_us.saturating_sub(d.start_us),
            args: d.args,
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

fn json_val(v: &OwnedVal) -> String {
    match v {
        OwnedVal::U(u) => u.to_string(),
        OwnedVal::F(f) => json_f64(*f),
        OwnedVal::S(s) => json_string(s),
    }
}

/// JSON-renders a float; non-finite values become `null`. (Rust's
/// `{}` prints `1` for `1.0_f64`, which JSON readers accept.)
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders `s` as a JSON string literal: quoted, with `"` and `\`
/// escaped, `\n`, `\r` and `\t` by name and every other control
/// character as `\u00XX`. The workspace's one JSON string writer: the
/// obs exports, the run and failure reports and the eval matrix all
/// render their strings through it.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_but_still_times() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let mut span = obs.span("t", "noop");
        span.arg("items", 3.0);
        obs.event("e", &[("k", Val::U(1))]);
        obs.counter_add("c", 5);
        obs.gauge_set("g", 1.0);
        obs.record("h", 2.0, Buckets::Size);
        let secs = span.finish_secs();
        assert!(secs >= 0.0, "the stopwatch works even when disabled");
        assert!(obs.spans().is_empty());
        assert!(obs.events().is_empty());
        assert_eq!(obs.counter("c"), None);
        assert_eq!(obs.gauge("g"), None);
        assert!(obs.histogram("h").is_none());
    }

    #[test]
    fn spans_nest_under_the_scoped_parent() {
        let obs = Obs::enabled();
        let run = obs.span_scope("run", "detect");
        let stage = obs.span_scope("stage", "embed");
        let worker = obs.span("exec", "embed").with_tid(1);
        drop(worker);
        stage.finish_secs();
        // A span opened after the stage closed attaches to the run.
        let late = obs.span("stage", "featurize");
        drop(late);
        run.finish_secs();

        let spans = obs.spans();
        assert_eq!(spans.len(), 4);
        let by_name = |cat: &str, n: &str| {
            spans
                .iter()
                .find(|s| s.cat == cat && s.name == n)
                .unwrap_or_else(|| panic!("span {cat}/{n}"))
        };
        let (run, stage) = (by_name("run", "detect"), by_name("stage", "embed"));
        assert_eq!(run.parent, 0);
        assert_eq!(stage.parent, run.id);
        let worker = spans.iter().find(|s| s.cat == "exec").expect("worker span");
        assert_eq!(worker.parent, stage.id);
        assert_eq!(worker.tid, 1);
        assert_eq!(by_name("stage", "featurize").parent, run.id);
    }

    #[test]
    fn metrics_accumulate_and_histograms_bucket_correctly() {
        let obs = Obs::enabled();
        obs.counter_add("n", 2);
        obs.counter_add("n", 3);
        assert_eq!(obs.counter("n"), Some(5));
        obs.gauge_set("g", 1.5);
        obs.gauge_set("g", 2.5);
        assert_eq!(obs.gauge("g"), Some(2.5));

        for v in [0.5, 1.0, 3.0, 1e9] {
            obs.record("h", v, Buckets::Size);
        }
        let h = obs.histogram("h").expect("histogram exists");
        assert_eq!(h.count, 4);
        assert_eq!(h.counts.iter().sum::<u64>(), 4);
        assert_eq!(h.counts[0], 2, "0.5 and 1.0 land in the `<= 1` bucket");
        assert_eq!(h.counts[2], 1, "3.0 lands in the `<= 4` bucket");
        assert_eq!(*h.counts.last().unwrap(), 1, "1e9 overflows");
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1e9);
    }

    #[test]
    fn exports_are_well_formed_and_deterministic() {
        let feed = |obs: &Obs| {
            let mut s = obs.span_scope("stage", "embed \"q\"");
            s.arg("items", 7.0);
            s.finish_secs();
            obs.event("ckpt.commit", &[("stage", Val::S("embed")), ("bytes", Val::U(42))]);
            obs.counter_add("stage.items.embed", 7);
            obs.gauge_set("rate", 1.25);
            obs.record("sizes", 3.0, Buckets::Size);
        };
        let (a, b) = (Obs::enabled(), Obs::enabled());
        feed(&a);
        feed(&b);

        let jsonl = a.events_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"event\":\"ckpt.commit\""), "{jsonl}");
        assert!(jsonl.contains("\"bytes\":42"), "{jsonl}");

        let trace = a.trace_json();
        assert!(trace.starts_with("{\"displayTimeUnit\""), "{trace}");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""), "span event present");
        assert!(trace.contains("\"ph\":\"i\""), "instant event present");
        assert!(trace.contains("embed \\\"q\\\""), "names are escaped: {trace}");

        // Metrics export is byte-identical for identical feeds (the
        // registry holds no wall-clock data).
        assert_eq!(a.metrics_json(), b.metrics_json());
        assert!(a.metrics_json().contains("\"stage.items.embed\":7"));
        assert!(a.metrics_json().contains("\"rate\":1.25"));
        assert!(a.metrics_json().contains("\"counts\":["));
    }

    #[test]
    fn write_dir_creates_all_three_artifacts() {
        let obs = Obs::enabled();
        obs.event("e", &[]);
        obs.span("t", "s").finish_secs();
        let dir = std::env::temp_dir().join(format!("matelda_obs_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        obs.write_dir(&dir).expect("write_dir");
        for f in ["events.jsonl", "trace.json", "metrics.json"] {
            assert!(dir.join(f).is_file(), "{f} written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_values_export_as_null() {
        let obs = Obs::enabled();
        obs.gauge_set("bad", f64::NAN);
        obs.gauge_set("inf", f64::INFINITY);
        let json = obs.metrics_json();
        assert!(json.contains("\"bad\":null"), "{json}");
        assert!(json.contains("\"inf\":null"), "{json}");
    }

    #[test]
    fn clones_share_state_across_threads() {
        let obs = Obs::enabled();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let obs = obs.clone();
                scope.spawn(move || {
                    obs.counter_add("shared", 1);
                    obs.span("exec", "work").with_tid(w + 1).finish_secs();
                });
            }
        });
        assert_eq!(obs.counter("shared"), Some(4));
        assert_eq!(obs.spans().len(), 4);
    }

    #[test]
    fn json_string_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd\re\tf\u{1}g"), "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"");
        assert_eq!(json_string("é→"), "\"é→\"", "non-ASCII passes through");
    }
}
