//! # telemetry — structured spans, metrics and Spark-style event logs
//!
//! The observability substrate of the RAAL workspace. RAAL is trained on
//! traces harvested from Spark's own instrumentation (event logs / the
//! History Server), and this crate gives the reproduction the same kind
//! of signal about itself:
//!
//! * **spans** — a thread-local stack of RAII guards ([`span`]); closing
//!   a span emits one JSONL line (name, thread, duration, nesting) and,
//!   when a Chrome trace was asked for, a `trace_event` slice;
//! * **kernel spans** — [`kernel_span`], the cheap variant for one
//!   stage of a request: aggregates durations into a histogram instead
//!   of emitting a line per call. A kernel span wraps work done once per
//!   plan, never once per node;
//! * **counters, gauges and histograms** — [`count`] / [`gauge`] /
//!   [`observe`]. Every value lands in the live [`registry`], so
//!   current rates and windowed p50/p95/p99 can be *read back* while
//!   the process runs ([`metrics_snapshot`], Prometheus/JSON export);
//!   [`shutdown`] additionally summarises them as
//!   `counter`/`gauge`/`histogram` JSONL events;
//! * **prediction-quality monitoring** — [`monitor::QualityMonitor`]
//!   tracks rolling MAE / Q-error per workload class over
//!   `(predicted, observed)` pairs and raises `drift.alarm` events via
//!   a Page–Hinkley detector when the error level shifts;
//! * **events** — [`event`], free-form point records; `sparksim` uses
//!   them for Spark-mimicking `job_start`/`stage_completed`/`task_end`
//!   lines (see [`schema`]);
//! * **run manifest** — [`manifest`] stamps the log (and, via
//!   [`manifest_json`], the bench TSVs) with run id, git sha, wall-clock
//!   origin and config fields.
//!
//! ## Enabling
//!
//! Telemetry is off by default and every entry point starts with one
//! relaxed atomic load ([`enabled`]), so instrumented hot paths cost
//! nothing measurable when disabled. Binaries opt in from the
//! environment via [`init_from_env`]:
//!
//! * `RAAL_TELEMETRY=1` — enable, JSONL events to `raal-events.jsonl`;
//!   any other non-`0` value is used as the output path instead;
//! * `RAAL_TRACE_OUT=trace.json` — additionally export a Chrome trace
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>) on
//!   [`shutdown`];
//! * `RAAL_METRICS_OUT=metrics.prom` — write the final metrics
//!   snapshot in the Prometheus text exposition format on [`shutdown`]
//!   (a `.json` extension selects the JSON snapshot instead);
//! * `RAAL_STACKS_OUT=stacks.folded` — write span self-time as
//!   inferno-compatible collapsed stacks on [`shutdown`].
//!
//! The sink is buffered: call [`flush`] at checkpoints and [`shutdown`]
//! before exit (it also emits the counter/histogram summaries and writes
//! the Chrome trace). All timestamps come from one process-wide
//! monotonic clock ([`clock_us`]/[`clock_ns`]); code that reports
//! wall-clock durations should read the same clock so every number in a
//! run is comparable.

#![deny(missing_docs)]

pub mod hist;
pub mod monitor;
pub mod registry;
pub mod schema;
mod trace;
mod value;

pub use hist::Histogram;
pub use monitor::{DriftAlarm, MonitorConfig, QualityMonitor};
pub use registry::MetricsSnapshot;
pub use value::Value;

use raal_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use raal_sync::sync::Mutex;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Once, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------- clock

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process clock origin. Works whether or not
/// telemetry is enabled — this is *the* clock for wall-time reporting.
#[inline]
pub fn clock_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Nanoseconds since the process clock origin (for µs-scale kernels).
#[inline]
pub fn clock_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ------------------------------------------------------------ global state

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Whether telemetry is currently recording. One relaxed atomic load —
/// the fast path instrumented code checks before doing any work.
#[inline]
pub fn enabled() -> bool {
    // ORDERING: Relaxed is sufficient — this flag only gates best-effort
    // logging, and every reader that acts on `true` then takes the state
    // mutex, whose acquire synchronises with the sink installation done
    // under the same mutex in `init_from_env`/`capture_inner`. No data
    // is published through this load itself.
    ENABLED.load(Ordering::Relaxed)
}

/// Upper bound on the Chrome-trace slices buffered while a trace was
/// asked for; beyond it spans still log to JSONL but are dropped from
/// the trace (counted in `telemetry.trace_dropped`).
const TRACE_CAP: usize = 262_144;

#[derive(Default)]
struct State {
    sink: Option<Box<dyn Write + Send>>,
    trace: Vec<trace::TraceSlice>,
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    stacks_path: Option<PathBuf>,
    trace_dropped: u64,
    manifest_emitted: bool,
    run_id: String,
    clock_origin_unix_ms: u64,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
            .saturating_sub(clock_us() / 1000);
        Mutex::new(State {
            run_id: format!("{unix_ms:x}-{:04x}", std::process::id() & 0xFFFF),
            clock_origin_unix_ms: unix_ms,
            ..State::default()
        })
    })
}

fn lock_state() -> raal_sync::sync::MutexGuard<'static, State> {
    // A panic while holding the lock (only possible inside std::io) must
    // not wedge telemetry for the rest of the process.
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Initialises telemetry from `RAAL_TELEMETRY` / `RAAL_TRACE_OUT`.
/// Idempotent and cheap after the first call; binaries and examples call
/// it at startup.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(val) = std::env::var("RAAL_TELEMETRY") else {
            return;
        };
        if val.is_empty() || val == "0" {
            return;
        }
        let path = if val == "1" || val.eq_ignore_ascii_case("true") {
            PathBuf::from("raal-events.jsonl")
        } else {
            PathBuf::from(val)
        };
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("telemetry: cannot create {}: {e}; telemetry disabled", path.display());
                return;
            }
        };
        let out_path =
            |var: &str| std::env::var(var).ok().filter(|s| !s.is_empty()).map(PathBuf::from);
        let trace_path = out_path("RAAL_TRACE_OUT");
        let metrics_path = out_path("RAAL_METRICS_OUT");
        let stacks_path = out_path("RAAL_STACKS_OUT");
        let mut st = lock_state();
        st.sink = Some(Box::new(std::io::BufWriter::new(file)));
        st.trace_path = trace_path;
        st.metrics_path = metrics_path;
        st.stacks_path = stacks_path;
        drop(st);
        ENABLED.store(true, Ordering::Release);
    });
}

// ---------------------------------------------------------------- threads

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // ORDERING: Relaxed — a unique-id counter needs only atomicity of
    // the increment; no other memory is published via this operation.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<SpanStack> =
        const { RefCell::new(SpanStack { open: Vec::new(), key: String::new() }) };
}

/// This thread's open spans, outermost first, and the buffer a closing
/// span joins them into (reused, so a close allocates no key).
struct SpanStack {
    open: Vec<&'static str>,
    key: String,
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

// ------------------------------------------------------------- line builder

/// Incremental JSONL line builder (`{"ts_us":..,"type":"..",...}`).
struct Line(String);

impl Line {
    fn new(ts_us: u64, event_type: &str) -> Self {
        let mut s = String::with_capacity(128);
        let _ = write!(s, "{{\"ts_us\":{ts_us},\"type\":");
        value::escape_json_into(event_type, &mut s);
        Line(s)
    }

    fn key(&mut self, key: &str) {
        self.0.push(',');
        value::escape_json_into(key, &mut self.0);
        self.0.push(':');
    }

    fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        value::escape_json_into(v, &mut self.0);
        self
    }

    fn uint(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        let _ = write!(self.0, "{v}");
        self
    }

    fn float(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        Value::F64(v).write_json(&mut self.0);
        self
    }

    fn opt_str(mut self, key: &str, v: Option<&str>) -> Self {
        self.key(key);
        match v {
            Some(s) => value::escape_json_into(s, &mut self.0),
            None => self.0.push_str("null"),
        }
        self
    }

    fn fields(mut self, fields: &[(&str, Value)]) -> Self {
        self.key("fields");
        self.0.push('{');
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            value::escape_json_into(k, &mut self.0);
            self.0.push(':');
            v.write_json(&mut self.0);
        }
        self.0.push('}');
        self
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

fn emit_line(st: &mut State, line: String) {
    if let Some(sink) = st.sink.as_mut() {
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.write_all(b"\n");
    }
}

// ----------------------------------------------------------------- spans

/// An RAII span guard from [`span`]. Closing (dropping) it emits a
/// `span` event and a Chrome-trace slice; [`Span::elapsed_seconds`]
/// works whether or not telemetry is enabled, so callers can use one
/// clock for both reporting and logging.
pub struct Span {
    name: &'static str,
    start_us: u64,
    /// Stack depth at entry when recording; `usize::MAX` when inert.
    depth: usize,
    fields: Vec<(&'static str, Value)>,
}

/// Opens a span. When telemetry is disabled the guard is inert (it still
/// tracks elapsed time, which costs one monotonic-clock read).
pub fn span(name: &'static str) -> Span {
    let start_us = clock_us();
    let depth = if enabled() {
        SPAN_STACK.with(|s| {
            let open = &mut s.borrow_mut().open;
            open.push(name);
            open.len() - 1
        })
    } else {
        usize::MAX
    };
    Span { name, start_us, depth, fields: Vec::new() }
}

impl Span {
    /// Attaches a field, emitted with the span's closing event.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.depth != usize::MAX {
            self.fields.push((key, value.into()));
        }
    }

    /// Seconds since the span opened, from the telemetry clock. Valid
    /// even when telemetry is disabled.
    pub fn elapsed_seconds(&self) -> f64 {
        (clock_us() - self.start_us) as f64 / 1e6
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.depth == usize::MAX {
            return;
        }
        let end_us = clock_us();
        let dur_us = end_us - self.start_us;
        // Truncating to the entry depth (rather than popping once) keeps
        // the stack consistent even if inner guards leaked or panicked.
        // The joined ancestor path doubles as the collapsed-stack key
        // for flamegraph self-time attribution. Registry first, sink
        // second — the two locks are never held together (lock-order
        // discipline, see analysis::conc).
        let parent = SPAN_STACK.with(|s| {
            let SpanStack { open, key } = &mut *s.borrow_mut();
            open.truncate(self.depth);
            key.clear();
            for ancestor in open.iter() {
                key.push_str(ancestor);
                key.push(';');
            }
            // The ancestors' own key is this one up to its last `;`.
            let parent_len = key.len().saturating_sub(1);
            key.push_str(self.name);
            let parent_stack = (!open.is_empty()).then(|| &key[..parent_len]);
            registry::global().span_close(self.name, key, parent_stack, end_us, dur_us);
            open.last().copied()
        });
        let line = Line::new(end_us, "span")
            .str("name", self.name)
            .uint("tid", tid())
            .uint("dur_us", dur_us)
            .uint("depth", self.depth as u64)
            .opt_str("parent", parent)
            .fields(&self.fields)
            .finish();
        let mut st = lock_state();
        // Slices are kept for the Chrome trace only, so only while one
        // was asked for.
        if st.trace_path.is_some() {
            if st.trace.len() < TRACE_CAP {
                let slice = trace::TraceSlice {
                    name: self.name,
                    ts_us: self.start_us,
                    dur_us,
                    tid: tid(),
                };
                st.trace.push(slice);
            } else {
                st.trace_dropped += 1;
            }
        }
        emit_line(&mut st, line);
    }
}

/// A lightweight timing guard from [`kernel_span`]: aggregates into a
/// `<name>_ns` histogram on drop, no per-call event line and no
/// allocation — cheap enough for every per-plan stage (the LSTM pass,
/// attention, the head), not for a step repeated per node.
pub struct KernelSpan {
    name: &'static str,
    start_ns: u64,
    active: bool,
}

/// Opens a kernel span. When disabled this is a branch and nothing else.
#[inline]
pub fn kernel_span(name: &'static str) -> KernelSpan {
    if !enabled() {
        return KernelSpan { name, start_ns: 0, active: false };
    }
    KernelSpan { name, start_ns: clock_ns(), active: true }
}

impl Drop for KernelSpan {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = clock_ns();
        registry::global().kernel_close(self.name, end_ns / 1000, end_ns - self.start_ns);
    }
}

// ------------------------------------------------- events, counters, hists

/// Emits a free-form point event (`type: "event"`).
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    let line = Line::new(clock_us(), "event")
        .str("name", name)
        .uint("tid", tid())
        .fields(fields)
        .finish();
    emit_line(&mut lock_state(), line);
}

/// Adds `delta` to a named counter in the live [`registry`]
/// (queryable via [`metrics_snapshot`], summarised at [`shutdown`]).
pub fn count(name: &str, delta: u64) {
    registry::counter_add(name, delta);
}

/// Sets a named gauge in the live [`registry`] (last write wins;
/// queryable via [`metrics_snapshot`], summarised at [`shutdown`]).
pub fn gauge(name: &str, value: f64) {
    registry::gauge_set(name, value);
}

/// Records a value into a named histogram in the live [`registry`] —
/// both the all-time view and the sliding recent window (queryable via
/// [`metrics_snapshot`], summarised at [`shutdown`]).
pub fn observe(name: &str, value: u64) {
    registry::observe(name, value);
}

/// A consistent point-in-time snapshot of every live metric: counters,
/// gauges, histogram percentiles (all-time and recent window) and span
/// self-time. Empty when telemetry is disabled.
pub fn metrics_snapshot() -> MetricsSnapshot {
    registry::snapshot()
}

// -------------------------------------------------------------- manifest

/// Emits the run manifest (first call) or a `run_manifest_update`
/// (subsequent calls — e.g. the trainer reporting its resolved worker
/// count after the manifest was written). No-op when disabled.
pub fn manifest(extra: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    let line = if !st.manifest_emitted {
        st.manifest_emitted = true;
        let argv: Vec<String> = std::env::args().collect();
        Line::new(clock_us(), "run_manifest")
            .str("run_id", &st.run_id)
            .str("git_sha", &git_sha())
            .uint("clock_origin_unix_ms", st.clock_origin_unix_ms)
            .str("os", std::env::consts::OS)
            .str("arch", std::env::consts::ARCH)
            .str("argv", &argv.join(" "))
            .fields(extra)
            .finish()
    } else {
        Line::new(clock_us(), "run_manifest_update")
            .str("run_id", &st.run_id)
            .fields(extra)
            .finish()
    };
    emit_line(&mut st, line);
}

/// The current run id (stable for the process lifetime).
pub fn run_id() -> String {
    lock_state().run_id.clone()
}

/// Renders the run manifest as a standalone JSON object — used to stamp
/// bench TSVs with a `<name>.manifest.json` sidecar. Works whether or
/// not telemetry is enabled.
pub fn manifest_json(extra: &[(&str, Value)]) -> String {
    let st = lock_state();
    let argv: Vec<String> = std::env::args().collect();
    Line::new(clock_us(), "run_manifest")
        .str("run_id", &st.run_id)
        .str("git_sha", &git_sha())
        .uint("clock_origin_unix_ms", st.clock_origin_unix_ms)
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH)
        .str("argv", &argv.join(" "))
        .fields(extra)
        .finish()
}

/// Best-effort git commit sha: reads `.git/HEAD` (following the ref or
/// packed-refs) from the current directory upward. No subprocess.
fn git_sha() -> String {
    fn from_repo(dir: &Path) -> Option<String> {
        let head = std::fs::read_to_string(dir.join(".git/HEAD")).ok()?;
        let head = head.trim();
        let Some(refname) = head.strip_prefix("ref: ") else {
            return Some(head.to_string()); // detached HEAD
        };
        if let Ok(sha) = std::fs::read_to_string(dir.join(".git").join(refname)) {
            return Some(sha.trim().to_string());
        }
        let packed = std::fs::read_to_string(dir.join(".git/packed-refs")).ok()?;
        packed
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
            .find_map(|l| l.strip_suffix(refname).map(|sha| sha.trim().to_string()))
    }
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Some(sha) = from_repo(&d) {
            return sha;
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}

// ------------------------------------------------------- flush / shutdown

/// Flushes the buffered JSONL sink.
pub fn flush() {
    if !enabled() {
        return;
    }
    if let Some(sink) = lock_state().sink.as_mut() {
        let _ = sink.flush();
    }
}

/// Emits counter/gauge/histogram summary events, writes the Chrome
/// trace / Prometheus snapshot / collapsed stacks (if their `RAAL_*_OUT`
/// variables were set) and flushes. Call before process exit; calling
/// again later summarises whatever accumulated since.
pub fn shutdown() {
    if !enabled() {
        return;
    }
    // Drain the registry before taking the state lock — the two locks
    // are never held together (lock-order discipline).
    let snap = registry::drain();
    finalize(&mut lock_state(), snap);
}

fn finalize(st: &mut State, mut snap: registry::MetricsSnapshot) {
    if st.trace_dropped > 0 {
        let dropped = std::mem::take(&mut st.trace_dropped);
        let slot = snap
            .counters
            .entry("telemetry.trace_dropped".to_string())
            .or_insert(0);
        *slot = slot.saturating_add(dropped);
    }
    let ts = clock_us();
    for (name, v) in &snap.counters {
        let line = Line::new(ts, "counter").str("name", name).uint("value", *v).finish();
        emit_line(st, line);
    }
    for (name, v) in &snap.gauges {
        let line = Line::new(ts, "gauge").str("name", name).float("value", *v).finish();
        emit_line(st, line);
    }
    for (name, h) in &snap.hists {
        let line = Line::new(ts, "histogram")
            .str("name", name)
            .uint("count", h.all.count)
            .uint("p50", h.all.p50.unwrap_or(0))
            .uint("p95", h.all.p95.unwrap_or(0))
            .uint("p99", h.all.p99.unwrap_or(0))
            .uint("max", h.all.max)
            .float("mean", h.all.mean)
            .uint("recent_count", h.recent.count)
            .uint("recent_p50", h.recent.p50.unwrap_or(0))
            .uint("recent_p95", h.recent.p95.unwrap_or(0))
            .uint("recent_p99", h.recent.p99.unwrap_or(0))
            .finish();
        emit_line(st, line);
    }
    if let Some(path) = st.trace_path.clone() {
        if let Err(e) = trace::write_chrome_trace(&path, &st.trace, &st.run_id) {
            eprintln!("telemetry: cannot write trace {}: {e}", path.display());
        }
    }
    if let Some(path) = st.metrics_path.clone() {
        let text = if path.extension().is_some_and(|e| e == "json") {
            snap.to_json()
        } else {
            snap.to_prometheus()
        };
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("telemetry: cannot write metrics {}: {e}", path.display());
        }
    }
    if let Some(path) = st.stacks_path.clone() {
        if let Err(e) = std::fs::write(&path, snap.collapsed_stacks()) {
            eprintln!("telemetry: cannot write stacks {}: {e}", path.display());
        }
    }
    st.trace.clear();
    if let Some(sink) = st.sink.as_mut() {
        let _ = sink.flush();
    }
}

// ----------------------------------------------------------------- testing

/// Test support: capture emitted JSONL lines in memory. Captures are
/// serialised on a global lock, so tests using them cannot interleave;
/// intended for this workspace's test suites, not production use.
pub mod testing {
    use super::*;
    use std::sync::Arc;

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct VecSink(Arc<Mutex<Vec<u8>>>);

    impl Write for VecSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The `tid` every line this thread emits carries. The sink is
    /// process-global, so a neighbouring test's lines land in an open
    /// [`capture`] too; a test that compares logs keeps its own by this.
    pub fn current_tid() -> u64 {
        tid()
    }

    /// Runs `f` with telemetry enabled into an in-memory sink and returns
    /// the emitted JSONL lines (including the shutdown summaries).
    pub fn capture<F: FnOnce()>(f: F) -> Vec<String> {
        capture_inner(f, true, None)
    }

    /// Runs `f` with a sink installed but telemetry **disabled**: any
    /// line in the returned vec is a bug in the disabled fast path.
    pub fn capture_disabled<F: FnOnce()>(f: F) -> Vec<String> {
        capture_inner(f, false, None)
    }

    /// Like [`capture`], but also writes a Chrome trace to `trace_path`
    /// at shutdown.
    pub fn capture_with_trace<F: FnOnce()>(trace_path: impl Into<PathBuf>, f: F) -> Vec<String> {
        capture_inner(f, true, Some(trace_path.into()))
    }

    fn capture_inner<F: FnOnce()>(f: F, enable: bool, trace_path: Option<PathBuf>) -> Vec<String> {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let buf = Arc::new(Mutex::new(Vec::new()));
        {
            let mut st = lock_state();
            st.sink = Some(Box::new(VecSink(buf.clone())));
            st.trace.clear();
            st.trace_dropped = 0;
            st.manifest_emitted = false;
            st.trace_path = trace_path;
            st.metrics_path = None;
            st.stacks_path = None;
        }
        registry::reset();
        ENABLED.store(enable, Ordering::Release);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        if enable {
            shutdown();
        }
        ENABLED.store(false, Ordering::Release);
        {
            let mut st = lock_state();
            st.sink = None;
            st.trace_path = None;
        }
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
        let bytes = buf.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&bytes).lines().map(str::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_primitives_are_inert() {
        // Outside any capture, telemetry is disabled by default.
        assert!(!enabled());
        let mut s = span("noop");
        s.record("x", 1u64);
        drop(s);
        count("c", 1);
        observe("h", 10);
        event("e", &[("k", Value::Int(1))]);
        // Nothing to assert beyond "did not panic / did not enable".
        assert!(!enabled());
    }

    #[test]
    fn clock_is_monotonic() {
        let a = clock_ns();
        let b = clock_ns();
        assert!(b >= a);
        assert!(clock_us() <= clock_ns() / 500, "us and ns share an origin");
    }

    #[test]
    fn manifest_json_renders_without_enabling() {
        let j = manifest_json(&[("bin", Value::Str("unit".into()))]);
        assert!(j.contains("\"run_id\""));
        assert!(j.contains("\"git_sha\""));
        assert!(j.contains("\"bin\":\"unit\""));
        assert!(!enabled());
    }
}
