//! Live metrics registry: queryable counters, gauges and histograms,
//! with point-in-time snapshots and Prometheus export.
//!
//! The JSONL sink (see the crate docs) is a flight recorder — nothing
//! can be *read back* while the process runs. This module is the
//! control surface on top of the same instrumentation calls: every
//! [`crate::count`] / [`crate::observe`] / [`crate::gauge`] lands in one
//! process-wide [`Registry`], and [`crate::metrics_snapshot`] returns a
//! consistent [`MetricsSnapshot`] at any moment — the serving layer
//! reports live p50/p95/p99 from it and the drift monitor flips gauges
//! in it.
//!
//! Design points:
//!
//! * **consistency** — all metrics live behind a single
//!   [`raal_sync::sync::Mutex`], so a snapshot is one lock acquisition
//!   and can never observe a torn multi-metric update. The mutex comes
//!   from the `raal_sync` shim, which makes the "snapshot is never
//!   torn" property machine-checkable (`tests/model_check.rs`).
//! * **raw facts only** — the registry keeps what was observed: counts,
//!   last gauge values, one all-time [`Histogram`] per name. Ratios and
//!   recent windows are the reader's: a scraper takes rates over the
//!   exported counters (a hit rate is `rate(model) / rate(predict)`).
//! * **export** — [`MetricsSnapshot::to_prometheus`] writes the
//!   Prometheus text exposition format (counters, gauges, summaries
//!   with `quantile` labels), which is what the `RAAL_METRICS_OUT`
//!   shutdown hook writes.
//!
//! The crate-level entry points ([`crate::count`], [`crate::gauge`],
//! [`crate::observe`]) honour the crate's disabled fast path: one
//! relaxed atomic load and out. The [`Registry`] *type* is not gated —
//! tests and the model checker instantiate their own.

use crate::hist::Histogram;
use raal_sync::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

/// A point-in-time, internally consistent copy of every live metric.
///
/// Taken under one lock acquisition, so multi-metric invariants the
/// writers maintain (e.g. "`a` is incremented before `b`") hold in the
/// snapshot too — the model-check suite proves this under every bounded
/// interleaving.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by registered name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by registered name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub hists: BTreeMap<String, HistStats>,
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
    /// `_count`. `scripts/check_prometheus.py` validates the output in
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
        for (name, stats) in &self.hists {
            let p = prom_name(name);
            let _ = writeln!(out, "# HELP {p} RAAL histogram {name}");
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
        out
    }
}

// -------------------------------------------------------------- registry

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    /// What the two span guards record, keyed by the guard's own
    /// `&'static str`: a close finds its histogram without building a
    /// name. `kernel_ns[n]` is exported as `<n>_ns` and `span_us[n]` as
    /// `span.<n>_us`, named when a snapshot is taken (a histogram
    /// observed under such a name directly is shadowed by the guard's).
    kernel_ns: BTreeMap<&'static str, Histogram>,
    span_us: BTreeMap<&'static str, Histogram>,
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
/// crate-level functions ([`crate::count`] & co., gated on
/// [`crate::enabled`]); the type itself is ungated so tests and the
/// model checker can drive private instances.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
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

    /// Records a histogram observation.
    pub fn observe(&self, name: &str, value: u64) {
        upsert(&mut self.lock().hists, name, Histogram::new, |h| h.record(value));
    }

    /// A closing [`crate::KernelSpan`]: `dur_ns` into `<name>_ns`.
    pub(crate) fn kernel_close(&self, name: &'static str, dur_ns: u64) {
        self.lock().kernel_ns.entry(name).or_default().record(dur_ns);
    }

    /// A closing [`crate::Span`]: `dur_us` into `span.<name>_us`.
    pub(crate) fn span_close(&self, name: &'static str, dur_us: u64) {
        self.lock().span_us.entry(name).or_default().record(dur_us);
    }

    /// A consistent point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.lock();
        MetricsSnapshot {
            counters: g.counters.clone(),
            gauges: g.gauges.clone(),
            hists: (g.hists.iter().map(|(name, h)| (name.clone(), h)))
                .chain(g.kernel_ns.iter().map(|(name, h)| (format!("{name}_ns"), h)))
                .chain(g.span_us.iter().map(|(name, h)| (format!("span.{name}_us"), h)))
                .map(|(name, h)| (name, HistStats::of(h)))
                .collect(),
        }
    }

    /// Takes a snapshot and clears the registry — the shutdown path,
    /// which summarises whatever accumulated since the previous drain.
    pub fn drain(&self) -> MetricsSnapshot {
        let snap = self.snapshot();
        *self.lock() = Inner::default();
        snap
    }
}

/// The process-wide registry behind the crate-level entry points; the
/// span guards' drops record into it directly.
pub(crate) fn global() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_consistent_copy() {
        let r = Registry::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        r.observe("h", 100);
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 2.5);
        assert_eq!(snap.hists["h"].count, 1);
        assert_eq!(snap.hists["h"].p50, Some(100));
        // The snapshot is a copy: later writes don't retro-mutate it.
        r.counter_add("c", 1);
        assert_eq!(snap.counters["c"], 5);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter_add("serving.predict", 3);
        r.gauge_set("serving.plan_cache.bytes", 4096.0);
        r.observe("serving.predict_us", 1234);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE raal_serving_predict_total counter"));
        assert!(text.contains("raal_serving_predict_total 3"));
        assert!(text.contains("# TYPE raal_serving_plan_cache_bytes gauge"));
        assert!(text.contains("raal_serving_plan_cache_bytes 4096"));
        assert!(text.contains("# TYPE raal_serving_predict_us summary"));
        assert!(text.contains("raal_serving_predict_us{quantile=\"0.5\"} 1234"));
        assert!(!text.contains("recent"), "one summary per histogram");
        assert!(text.contains("raal_serving_predict_us_count 1"));
    }

    #[test]
    fn drain_clears_but_returns_final_state() {
        let r = Registry::new();
        r.counter_add("c", 7);
        let snap = r.drain();
        assert_eq!(snap.counters["c"], 7);
        let empty = r.snapshot();
        assert!(empty.counters.is_empty());
    }
}
