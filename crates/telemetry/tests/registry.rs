//! Integration tests for the live metrics registry: snapshots while
//! the process runs, gauge/histogram summary lines at shutdown, the
//! Prometheus export, and the disabled fast path staying a true no-op.

use serde::Value;
use telemetry::testing::{capture, capture_disabled};

fn parse(lines: &[String]) -> Vec<Value> {
    lines
        .iter()
        .map(|l| serde_json::from_str::<Value>(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect()
}

fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("expected string {key}, got {other:?}"),
    }
}

#[test]
fn live_snapshot_is_readable_mid_run() {
    capture(|| {
        telemetry::count("serving.predict", 5);
        telemetry::gauge("serving.plan_cache.bytes", 4096.0);
        telemetry::observe("serving.predict_us", 1_000);
        telemetry::observe("serving.predict_us", 3_000);
        // The whole point of the registry: read back *before* shutdown.
        let snap = telemetry::metrics_snapshot();
        assert_eq!(snap.counters["serving.predict"], 5);
        assert_eq!(snap.gauges["serving.plan_cache.bytes"], 4096.0);
        let h = &snap.hists["serving.predict_us"];
        assert_eq!(h.count, 2);
        assert!(h.p50.is_some() && h.p99.is_some());
    });
}

#[test]
fn shutdown_emits_gauge_and_histogram_summaries() {
    let lines = capture(|| {
        telemetry::count("c", 1);
        telemetry::gauge("train.loss", 0.25);
        telemetry::observe("train.batch_ns", 500);
    });
    let events = parse(&lines);
    let gauge = events
        .iter()
        .find(|e| get_str(e, "type") == "gauge")
        .expect("gauge summary line");
    assert_eq!(get_str(gauge, "name"), "train.loss");
    assert_eq!(gauge.get("value"), Some(&Value::Float(0.25)));
    let hist = events
        .iter()
        .find(|e| get_str(e, "type") == "histogram" && get_str(e, "name") == "train.batch_ns")
        .expect("histogram summary line");
    for key in ["count", "p50", "p95", "p99", "max", "mean"] {
        assert!(hist.get(key).is_some(), "missing {key}");
    }
    assert!(hist.get("recent_count").is_none(), "one summary per histogram");
}

#[test]
fn prometheus_export_renders_from_capture() {
    capture(|| {
        telemetry::count("infer.predict.single", 3);
        telemetry::gauge("serving.plan_cache.bytes", 128.0);
        telemetry::observe("serving.predict_us", 42_000);
        let prom = telemetry::metrics_snapshot().to_prometheus();
        assert!(prom.contains("# TYPE raal_infer_predict_single_total counter"));
        assert!(prom.contains("raal_infer_predict_single_total 3"));
        assert!(prom.contains("# TYPE raal_serving_plan_cache_bytes gauge"));
        assert!(prom.contains("# TYPE raal_serving_predict_us summary"));
        assert!(prom.contains("raal_serving_predict_us{quantile=\"0.95\"}"));
        assert!(prom.contains("raal_serving_predict_us_count 1"));
    });
}

#[test]
fn disabled_registry_stays_empty_and_emits_nothing() {
    let lines = capture_disabled(|| {
        telemetry::count("c", 1);
        telemetry::gauge("g", 1.0);
        telemetry::observe("h", 10);
        let snap = telemetry::metrics_snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.hists.is_empty());
    });
    assert!(lines.is_empty(), "disabled run emitted: {lines:?}");
}

#[test]
fn monitor_drift_alarm_reaches_log_and_registry() {
    let mut alarm_class = None;
    let lines = capture(|| {
        let mut m = telemetry::QualityMonitor::new();
        // Healthy phase, then a hard upward error shift.
        for i in 0..50u64 {
            m.record("scan_join", 10.0, 10.0 + (i % 3) as f64 * 0.01);
        }
        for _ in 0..50u64 {
            if let Some(alarm) = m.record("scan_join", 10.0, 40.0) {
                alarm_class = Some(alarm.class.clone());
            }
        }
        let snap = telemetry::metrics_snapshot();
        assert_eq!(snap.gauges["monitor.drift.scan_join"], 1.0, "gauge flipped");
        assert!(snap.gauges["monitor.qerror.scan_join"] > 1.0);
        assert!(snap.counters["monitor.drift.alarms"] >= 1);
        // Reset flips the gauge back.
        m.reset("scan_join");
        let snap = telemetry::metrics_snapshot();
        assert_eq!(snap.gauges["monitor.drift.scan_join"], 0.0);
    });
    assert_eq!(alarm_class.as_deref(), Some("scan_join"));
    let events = parse(&lines);
    let alarm = events
        .iter()
        .find(|e| get_str(e, "type") == "event" && get_str(e, "name") == "drift.alarm")
        .expect("drift.alarm event in the log");
    let fields = alarm.get("fields").expect("fields");
    assert_eq!(get_str(fields, "class"), "scan_join");
    assert!(fields.get("q_error").is_some() && fields.get("ph_statistic").is_some());
}
