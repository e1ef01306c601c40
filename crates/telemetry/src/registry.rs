//! Live metrics registry: queryable counters, gauges and windowed
//! histograms, with point-in-time snapshots and Prometheus export.
//!
//! The JSONL sink (see the crate docs) is a flight recorder — nothing
//! can be *read back* while the process runs. This module is the
//! control surface on top of the same instrumentation calls: every
//! [`crate::count`] / [`crate::observe`] / [`crate::gauge`] lands in one
//! process-wide [`Registry`], and [`snapshot`] returns a consistent
//! [`MetricsSnapshot`] at any moment — the serving layer reports live
//! p50/p95/p99 from it and the drift monitor flips gauges in it.
//!
//! Design points:
//!
//! * **consistency** — all metrics live behind a single
//!   [`raal_sync::sync::Mutex`], so a snapshot is one lock acquisition
//!   and can never observe a torn multi-metric update. The mutex comes
//!   from the `raal_sync` shim, which makes the "snapshot is never
//!   torn" property machine-checkable (`tests/model_check.rs`).
//! * **recency** — every histogram is recorded twice: into an all-time
//!   [`Histogram`] and into a [`WindowedHistogram`], a ring of
//!   time-sliced buckets whose merge answers "what did the last ~N
//!   seconds look like" — so a latency regression is visible while the
//!   all-time percentiles still remember the good hours.
//! * **flamegraphs** — span close paths accumulate *self time* per call
//!   stack; [`MetricsSnapshot::collapsed_stacks`] renders them in the
//!   inferno/`flamegraph.pl` collapsed format.
//! * **export** — [`MetricsSnapshot::to_prometheus`] writes the
//!   Prometheus text exposition format (counters, gauges, summaries
//!   with `quantile` labels); [`MetricsSnapshot::to_json`] a JSON
//!   object; both are what the `raal-metrics` bin and the
//!   `RAAL_METRICS_OUT` shutdown hook serve.
//!
//! The global entry points ([`counter_add`], [`gauge_set`], [`observe`])
//! honour the crate's disabled fast path: one relaxed
//! atomic load and out. The [`Registry`] *type* is not gated — tests
//! and the model checker instantiate their own.

use crate::hist::Histogram;
use crate::value::escape_json_into;
use raal_sync::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ------------------------------------------------------------- windowing

/// Ring-of-buckets histogram: observations land in the all-time
/// histogram *and* in a time slot of a fixed ring, so the merge of the
/// live slots approximates "the last `slots x slot_us` microseconds".
///
/// Rotation is lazy — recording into (or reading) a slot whose epoch
/// has passed clears it first — so an idle metric costs nothing and the
/// recent view decays to empty once traffic stops.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    all: Histogram,
    ring: Vec<Histogram>,
    /// `time / slot_us` value each ring slot was last written under;
    /// `u64::MAX` marks a never-written slot.
    epochs: Vec<u64>,
    slot_us: u64,
}

/// Default ring geometry: 8 slots of 5 s — a ~40 s sliding window,
/// wide enough to smooth a scrape interval, narrow enough that a
/// regression shows within a minute.
pub const DEFAULT_WINDOW_SLOTS: usize = 8;
/// Default slot width in microseconds (5 s).
pub const DEFAULT_SLOT_US: u64 = 5_000_000;

impl WindowedHistogram {
    /// A windowed histogram with `slots` ring slots of `slot_us` each.
    pub fn new(slots: usize, slot_us: u64) -> Self {
        let slots = slots.max(1);
        Self {
            all: Histogram::new(),
            ring: vec![Histogram::new(); slots],
            epochs: vec![u64::MAX; slots],
            slot_us: slot_us.max(1),
        }
    }

    /// Records one observation made at clock time `now_us`.
    pub fn record_at(&mut self, now_us: u64, v: u64) {
        self.all.record(v);
        let epoch = now_us / self.slot_us;
        let idx = (epoch % self.ring.len() as u64) as usize;
        if self.epochs[idx] != epoch {
            self.ring[idx] = Histogram::new();
            self.epochs[idx] = epoch;
        }
        self.ring[idx].record(v);
    }

    /// The all-time histogram.
    pub fn all_time(&self) -> &Histogram {
        &self.all
    }

    /// Merge of the ring slots still inside the window ending at
    /// `now_us` — the recent view. Slots whose epoch has expired are
    /// skipped (and will be lazily cleared on next write).
    pub fn recent_at(&self, now_us: u64) -> Histogram {
        let epoch = now_us / self.slot_us;
        let oldest = epoch.saturating_sub(self.ring.len() as u64 - 1);
        let mut out = Histogram::new();
        for (slot, &e) in self.ring.iter().zip(self.epochs.iter()) {
            if e != u64::MAX && e >= oldest && e <= epoch {
                out.merge(slot);
            }
        }
        out
    }
}

// ------------------------------------------------------------- snapshots

/// Summary statistics of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStats {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// p50 / p95 / p99 estimates; `None` when the histogram is empty.
    pub p50: Option<u64>,
    /// 95th percentile estimate.
    pub p95: Option<u64>,
    /// 99th percentile estimate.
    pub p99: Option<u64>,
}

impl HistStats {
    /// Summarises a histogram.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }
}

/// One registry histogram at snapshot time: the all-time view and the
/// recent (windowed) view.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// All observations since startup (or the last drain).
    pub all: HistStats,
    /// Observations inside the sliding window.
    pub recent: HistStats,
}

/// A point-in-time, internally consistent copy of every live metric.
///
/// Taken under one lock acquisition, so multi-metric invariants the
/// writers maintain (e.g. "`a` is incremented before `b`") hold in the
/// snapshot too — the model-check suite proves this under every bounded
/// interleaving.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Telemetry-clock microseconds at which the snapshot was taken.
    pub at_us: u64,
    /// Monotonic counters by registered name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by registered name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries (all-time + recent window) by name.
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Span self-time in microseconds, keyed by `;`-joined call stack
    /// (inferno collapsed-stack keys). Self time = span duration minus
    /// time spent in instrumented child spans, clamped at zero.
    pub self_time_us: BTreeMap<String, u64>,
}

/// Maps a metric name to the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixing `raal_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(5 + name.len());
    out.push_str("raal_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `<name>_total`, gauges as gauges,
    /// histograms as summaries with `quantile` labels plus `_sum` /
    /// `_count`, each in an all-time and a `<name>_recent` windowed
    /// variant. `scripts/check_prometheus.py` validates the output in
    /// CI.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let p = prom_name(name);
            let _ = writeln!(out, "# HELP {p}_total RAAL counter {name}");
            let _ = writeln!(out, "# TYPE {p}_total counter");
            let _ = writeln!(out, "{p}_total {v}");
        }
        for (name, v) in &self.gauges {
            let p = prom_name(name);
            let _ = writeln!(out, "# HELP {p} RAAL gauge {name}");
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {}", prom_f64(*v));
        }
        for (name, h) in &self.hists {
            let base = prom_name(name);
            for (suffix, stats) in [("", &h.all), ("_recent", &h.recent)] {
                let p = format!("{base}{suffix}");
                let _ = writeln!(out, "# HELP {p} RAAL histogram {name}{suffix}");
                let _ = writeln!(out, "# TYPE {p} summary");
                for (q, est) in [("0.5", stats.p50), ("0.95", stats.p95), ("0.99", stats.p99)] {
                    let _ = writeln!(
                        out,
                        "{p}{{quantile=\"{q}\"}} {}",
                        est.map_or_else(|| "NaN".to_string(), |v| v.to_string())
                    );
                }
                // The log-bucketed histogram keeps an exact mean, so
                // `mean * count` reconstructs the exact sum.
                let _ = writeln!(out, "{p}_sum {}", prom_f64(stats.mean * stats.count as f64));
                let _ = writeln!(out, "{p}_count {}", stats.count);
            }
        }
        out
    }

    /// Renders the snapshot as one JSON object (hand-written, like the
    /// JSONL sink, so the crate stays dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"at_us\":{},\"counters\":{{", self.at_us);
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json_into(name, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json_into(name, &mut out);
            out.push(':');
            crate::Value::F64(*v).write_json(&mut out);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json_into(name, &mut out);
            out.push(':');
            let window = |out: &mut String, label: &str, s: &HistStats| {
                escape_json_into(label, out);
                let _ = write!(out, ":{{\"count\":{},\"min\":{},\"max\":{}", s.count, s.min, s.max);
                out.push_str(",\"mean\":");
                crate::Value::F64(s.mean).write_json(out);
                for (k, q) in [("p50", s.p50), ("p95", s.p95), ("p99", s.p99)] {
                    let _ = match q {
                        Some(v) => write!(out, ",\"{k}\":{v}"),
                        None => write!(out, ",\"{k}\":null"),
                    };
                }
                out.push('}');
            };
            out.push('{');
            window(&mut out, "all", &h.all);
            out.push(',');
            window(&mut out, "recent", &h.recent);
            out.push('}');
        }
        out.push_str("},\"self_time_us\":{");
        for (i, (stack, us)) in self.self_time_us.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_json_into(stack, &mut out);
            let _ = write!(out, ":{us}");
        }
        out.push_str("}}");
        out
    }

    /// Renders span self-time as inferno-compatible collapsed stacks:
    /// one `stack;frames count` line per call stack, counts in
    /// microseconds. Pipe into `inferno-flamegraph` (or
    /// `flamegraph.pl`) for an SVG.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for (stack, us) in &self.self_time_us {
            let _ = writeln!(out, "{stack} {us}");
        }
        out
    }
}

// -------------------------------------------------------------- registry

struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, WindowedHistogram>,
    /// Signed self-time accumulator per collapsed stack: a closing span
    /// adds its duration to its own stack and subtracts it from its
    /// parent's, so each key converges to self time. Transiently
    /// negative while children have closed but the parent has not.
    self_time_us: BTreeMap<String, i64>,
    /// What the two span guards record, keyed by the guard's own
    /// `&'static str`: a close finds its histogram without building a
    /// name. `kernel_ns[n]` is exported as `<n>_ns` and `span_us[n]` as
    /// `span.<n>_us`, named when a snapshot is taken (a histogram
    /// observed under such a name directly is shadowed by the guard's).
    kernel_ns: BTreeMap<&'static str, WindowedHistogram>,
    span_us: BTreeMap<&'static str, WindowedHistogram>,
}

/// Applies `update` to `map[name]`, starting a name not seen before
/// from `new()`: looked up before it is inserted, so only a name's
/// first sighting allocates its key.
fn upsert<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
    update: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => update(v),
        None => {
            let mut v = new();
            update(&mut v);
            map.insert(name.to_string(), v);
        }
    }
}

/// A live metrics store. The process-wide instance sits behind the
/// crate-level functions ([`counter_add`] & co., gated on
/// [`crate::enabled`]); the type itself is ungated so tests and the
/// model checker can drive private instances.
pub struct Registry {
    inner: Mutex<Inner>,
    slots: usize,
    slot_us: u64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with the default window geometry
    /// ([`DEFAULT_WINDOW_SLOTS`] x [`DEFAULT_SLOT_US`]).
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW_SLOTS, DEFAULT_SLOT_US)
    }

    /// A registry whose histograms use `slots` ring slots of `slot_us`.
    pub fn with_window(slots: usize, slot_us: u64) -> Self {
        Self {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                hists: BTreeMap::new(),
                self_time_us: BTreeMap::new(),
                kernel_ns: BTreeMap::new(),
                span_us: BTreeMap::new(),
            }),
            slots,
            slot_us,
        }
    }

    fn lock(&self) -> raal_sync::sync::MutexGuard<'_, Inner> {
        // A poisoned registry (panic inside pure map code) must not take
        // telemetry down with it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `delta` to a counter, creating it at zero.
    pub fn counter_add(&self, name: &str, delta: u64) {
        upsert(&mut self.lock().counters, name, || 0, |v| *v = v.saturating_add(delta));
    }

    /// Sets a gauge (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        upsert(&mut self.lock().gauges, name, || value, |v| *v = value);
    }

    /// Records a histogram observation made at clock time `now_us`.
    pub fn observe_at(&self, name: &str, now_us: u64, value: u64) {
        upsert(&mut self.lock().hists, name, || self.new_hist(), |h| h.record_at(now_us, value));
    }

    fn new_hist(&self) -> WindowedHistogram {
        WindowedHistogram::new(self.slots, self.slot_us)
    }

    /// Accumulates span self-time: `dur_us` is credited to `stack` and
    /// debited from `parent` (whose own close will credit it back as
    /// part of its full duration).
    pub fn span_time(&self, stack: &str, parent: Option<&str>, dur_us: u64) {
        Self::book_span_time(&mut self.lock(), stack, parent, dur_us);
    }

    fn book_span_time(g: &mut Inner, stack: &str, parent: Option<&str>, dur_us: u64) {
        let dur = dur_us.min(i64::MAX as u64) as i64;
        upsert(&mut g.self_time_us, stack, || 0, |us| *us += dur);
        if let Some(p) = parent {
            upsert(&mut g.self_time_us, p, || 0, |us| *us -= dur);
        }
    }

    /// A closing [`crate::KernelSpan`]: `dur_ns` into `<name>_ns`.
    pub(crate) fn kernel_close(&self, name: &'static str, now_us: u64, dur_ns: u64) {
        let mut g = self.lock();
        let hist = g.kernel_ns.entry(name).or_insert_with(|| self.new_hist());
        hist.record_at(now_us, dur_ns);
    }

    /// A closing [`crate::Span`], booked under one lock: `dur_us` into
    /// `span.<name>_us` and into the self time of `stack` (see
    /// [`Registry::span_time`]).
    pub(crate) fn span_close(
        &self,
        name: &'static str,
        stack: &str,
        parent: Option<&str>,
        now_us: u64,
        dur_us: u64,
    ) {
        let mut g = self.lock();
        let hist = g.span_us.entry(name).or_insert_with(|| self.new_hist());
        hist.record_at(now_us, dur_us);
        Self::book_span_time(&mut g, stack, parent, dur_us);
    }

    /// A consistent point-in-time snapshot, evaluated at `now_us` (which
    /// also bounds the recent windows).
    pub fn snapshot_at(&self, now_us: u64) -> MetricsSnapshot {
        let g = self.lock();
        MetricsSnapshot {
            at_us: now_us,
            counters: g.counters.clone(),
            gauges: g.gauges.clone(),
            hists: (g.hists.iter().map(|(name, h)| (name.clone(), h)))
                .chain(g.kernel_ns.iter().map(|(name, h)| (format!("{name}_ns"), h)))
                .chain(g.span_us.iter().map(|(name, h)| (format!("span.{name}_us"), h)))
                .map(|(name, h)| {
                    let all = HistStats::of(h.all_time());
                    (name, HistSnapshot { all, recent: HistStats::of(&h.recent_at(now_us)) })
                })
                .collect(),
            self_time_us: g
                .self_time_us
                .iter()
                .filter(|(_, &us)| us > 0)
                .map(|(stack, &us)| (stack.clone(), us as u64))
                .collect(),
        }
    }

    /// Takes a snapshot and clears the registry — the shutdown path,
    /// which summarises whatever accumulated since the previous drain.
    pub fn drain_at(&self, now_us: u64) -> MetricsSnapshot {
        let snap = self.snapshot_at(now_us);
        let mut g = self.lock();
        g.counters.clear();
        g.gauges.clear();
        g.hists.clear();
        g.self_time_us.clear();
        g.kernel_ns.clear();
        g.span_us.clear();
        snap
    }
}

// ------------------------------------------------------ global instance

/// The process-wide registry; the span guards' drops record into it
/// directly.
pub(crate) fn global() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Adds `delta` to the process-wide counter `name`. No-op when
/// telemetry is disabled. Usually reached via [`crate::count`].
pub fn counter_add(name: &str, delta: u64) {
    if crate::enabled() {
        global().counter_add(name, delta);
    }
}

/// Sets the process-wide gauge `name`. No-op when telemetry is
/// disabled. Usually reached via [`crate::gauge`].
pub fn gauge_set(name: &str, value: f64) {
    if crate::enabled() {
        global().gauge_set(name, value);
    }
}

/// Records into the process-wide histogram `name` at the current clock.
/// No-op when telemetry is disabled. Usually reached via
/// [`crate::observe`].
pub fn observe(name: &str, value: u64) {
    if crate::enabled() {
        global().observe_at(name, crate::clock_us(), value);
    }
}

/// A consistent snapshot of the process-wide registry. Returns an empty
/// snapshot when telemetry is disabled.
pub fn snapshot() -> MetricsSnapshot {
    if crate::enabled() {
        global().snapshot_at(crate::clock_us())
    } else {
        MetricsSnapshot::default()
    }
}

/// Drains the process-wide registry (shutdown path).
pub(crate) fn drain() -> MetricsSnapshot {
    global().drain_at(crate::clock_us())
}

/// Test support: clears the process-wide registry.
pub(crate) fn reset() {
    let _ = global().drain_at(crate::clock_us());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_histogram_rotates_and_expires() {
        // 4 slots of 10us: window covers [now-30us, now].
        let mut w = WindowedHistogram::new(4, 10);
        w.record_at(5, 100); // epoch 0
        w.record_at(15, 200); // epoch 1
        assert_eq!(w.all_time().count(), 2);
        assert_eq!(w.recent_at(15).count(), 2);
        // Move past epoch 0's window: only epoch 1 remains recent.
        assert_eq!(w.recent_at(45).count(), 1);
        assert_eq!(w.recent_at(45).max(), 200);
        // Far future: the window is empty, the all-time view is not.
        assert_eq!(w.recent_at(1_000).count(), 0);
        assert_eq!(w.all_time().count(), 2);
        // Wrapping reuses and clears the slot that held epoch 0.
        w.record_at(41, 300); // epoch 4 -> slot 0, clears the old epoch
        assert_eq!(w.recent_at(41).count(), 2, "epochs 1 and 4 in window");
        assert_eq!(w.all_time().count(), 3);
    }

    #[test]
    fn snapshot_is_consistent_copy() {
        let r = Registry::with_window(4, 10);
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        r.observe_at("h", 7, 100);
        let snap = r.snapshot_at(9);
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 2.5);
        assert_eq!(snap.hists["h"].all.count, 1);
        assert_eq!(snap.hists["h"].recent.count, 1);
        assert_eq!(snap.hists["h"].all.p50, Some(100));
        // The snapshot is a copy: later writes don't retro-mutate it.
        r.counter_add("c", 1);
        assert_eq!(snap.counters["c"], 5);
    }

    #[test]
    fn self_time_attribution() {
        let r = Registry::new();
        // outer(10us total) contains inner(4us): self times 6 and 4.
        r.span_time("outer;inner", Some("outer"), 4);
        r.span_time("outer", None, 10);
        let snap = r.snapshot_at(0);
        assert_eq!(snap.self_time_us["outer"], 6);
        assert_eq!(snap.self_time_us["outer;inner"], 4);
        let folded = snap.collapsed_stacks();
        assert!(folded.contains("outer 6\n"));
        assert!(folded.contains("outer;inner 4\n"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::with_window(4, 10);
        r.counter_add("serving.predict", 3);
        r.gauge_set("serving.slo.hit_rate", 0.75);
        r.observe_at("serving.predict_us", 5, 1234);
        let text = r.snapshot_at(6).to_prometheus();
        assert!(text.contains("# TYPE raal_serving_predict_total counter"));
        assert!(text.contains("raal_serving_predict_total 3"));
        assert!(text.contains("# TYPE raal_serving_slo_hit_rate gauge"));
        assert!(text.contains("raal_serving_slo_hit_rate 0.75"));
        assert!(text.contains("# TYPE raal_serving_predict_us summary"));
        assert!(text.contains("raal_serving_predict_us{quantile=\"0.5\"} 1234"));
        assert!(text.contains("raal_serving_predict_us_recent_count 1"));
        assert!(text.contains("raal_serving_predict_us_count 1"));
    }

    #[test]
    fn drain_clears_but_returns_final_state() {
        let r = Registry::new();
        r.counter_add("c", 7);
        let snap = r.drain_at(0);
        assert_eq!(snap.counters["c"], 7);
        let empty = r.snapshot_at(1);
        assert!(empty.counters.is_empty());
    }
}
