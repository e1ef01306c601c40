//! Telemetry-core integration tests: span nesting and drop order (also
//! under panics), JSONL round-tripping through a real JSON parser,
//! histogram percentiles on known distributions and manifest semantics.

use serde::Value;
use telemetry::testing::capture;
use telemetry::{schema, Histogram};

/// Parses every captured line as JSON, panicking with the offending line.
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

fn get_u64(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("expected uint {key}, got {other:?}"),
    }
}

fn events_of<'a>(events: &'a [Value], ty: &str) -> Vec<&'a Value> {
    events.iter().filter(|e| get_str(e, "type") == ty).collect()
}

#[test]
fn spans_nest_and_close_inner_first() {
    let lines = capture(|| {
        let mut outer = telemetry::span("outer");
        outer.record("k", 7u64);
        {
            let _inner = telemetry::span("inner");
        }
        {
            let _second = telemetry::span("second");
        }
    });
    let events = parse(&lines);
    let spans = events_of(&events, "span");
    assert_eq!(spans.len(), 3);
    // Spans are emitted at close: inner and second before outer.
    assert_eq!(get_str(spans[0], "name"), "inner");
    assert_eq!(get_u64(spans[0], "depth"), 1);
    assert_eq!(get_str(spans[0], "parent"), "outer");
    assert_eq!(get_str(spans[1], "name"), "second");
    assert_eq!(get_u64(spans[1], "depth"), 1);
    assert_eq!(get_str(spans[2], "name"), "outer");
    assert_eq!(get_u64(spans[2], "depth"), 0);
    assert_eq!(spans[2].get("parent"), Some(&Value::Null));
    // The recorded field survives into the outer span's close event.
    let fields = spans[2].get("fields").expect("fields object");
    assert_eq!(get_u64(fields, "k"), 7);
}

#[test]
fn span_stack_unwinds_correctly_under_panics() {
    let lines = capture(|| {
        let _outer = telemetry::span("outer");
        let result = std::panic::catch_unwind(|| {
            let _a = telemetry::span("a");
            let _b = telemetry::span("b");
            panic!("boom");
        });
        assert!(result.is_err());
        // After the unwind, new spans must see a consistent stack: this
        // span is a direct child of `outer` again.
        let _after = telemetry::span("after");
    });
    let events = parse(&lines);
    let spans = events_of(&events, "span");
    let names: Vec<&str> = spans.iter().map(|s| get_str(s, "name")).collect();
    // Unwinding drops b then a (LIFO), then `after` opens and closes.
    assert_eq!(names, ["b", "a", "after", "outer"]);
    let after = spans[2];
    assert_eq!(get_u64(after, "depth"), 1, "stack must recover after a panic");
    assert_eq!(get_str(after, "parent"), "outer");
}

#[test]
fn every_line_satisfies_the_schema() {
    let lines = capture(|| {
        telemetry::manifest(&[("cfg", telemetry::Value::Str("unit".into()))]);
        telemetry::manifest(&[("late", telemetry::Value::Int(1))]);
        let _s = telemetry::span("work");
        telemetry::event("job_start", &[("job_id", telemetry::Value::UInt(1))]);
        telemetry::count("things", 3);
        telemetry::gauge("level", 0.5);
        telemetry::observe("sizes", 100);
        let _k = telemetry::kernel_span("kern");
    });
    let events = parse(&lines);
    assert!(!events.is_empty());
    for (event, line) in events.iter().zip(&lines) {
        for key in schema::COMMON_REQUIRED {
            assert!(event.get(key).is_some(), "missing {key} in {line}");
        }
        let ty = get_str(event, "type");
        let required = schema::required_fields(ty).unwrap_or_else(|| panic!("unknown type {ty}"));
        for key in required {
            assert!(event.get(key).is_some(), "missing {key} in {line}");
        }
    }
    // The capture exercised every schema type.
    for (ty, _) in schema::REQUIRED_BY_TYPE {
        assert!(!events_of(&events, ty).is_empty(), "no {ty} event emitted");
    }
}

#[test]
fn json_round_trips_awkward_strings() {
    let gnarly = "quote\" back\\slash \nnewline \ttab \u{1} unicode✓";
    let lines = capture(|| {
        telemetry::event("gnarly", &[("s", telemetry::Value::Str(gnarly.into()))]);
    });
    let events = parse(&lines);
    let ev = events_of(&events, "event")[0];
    let fields = ev.get("fields").unwrap();
    assert_eq!(fields.get("s"), Some(&Value::Str(gnarly.to_string())));
}

#[test]
fn counters_and_histograms_summarise_at_shutdown() {
    let lines = capture(|| {
        for i in 0..10u64 {
            telemetry::count("loop.iters", 1);
            telemetry::observe("loop.values", i * 100);
        }
    });
    let events = parse(&lines);
    let counters = events_of(&events, "counter");
    let c = counters
        .iter()
        .find(|c| get_str(c, "name") == "loop.iters")
        .expect("counter summary");
    assert_eq!(get_u64(c, "value"), 10);
    let hists = events_of(&events, "histogram");
    let h = hists
        .iter()
        .find(|h| get_str(h, "name") == "loop.values")
        .expect("histogram summary");
    assert_eq!(get_u64(h, "count"), 10);
    assert_eq!(get_u64(h, "max"), 900);
    assert!(get_u64(h, "p50") >= 300 && get_u64(h, "p50") <= 500);
}

#[test]
fn histogram_percentiles_track_known_distributions() {
    // Uniform 1..=10_000: quantiles sit at q * N within bucket error.
    let mut h = Histogram::new();
    for v in 1..=10_000u64 {
        h.record(v);
    }
    for (q, want) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
        let got = h.quantile(q).unwrap() as f64;
        let rel = (got - want).abs() / want;
        assert!(rel <= 0.04, "uniform p{q}: got {got}, want {want} (rel {rel})");
    }
    assert_eq!(h.quantile(1.0), Some(10_000));

    // Two-point mass: 90% at 10, 10% at 1000 — p50 exact, p95/p99 at
    // the heavy tail value.
    let mut h = Histogram::new();
    for _ in 0..900 {
        h.record(10);
    }
    for _ in 0..100 {
        h.record(1000);
    }
    assert_eq!(h.quantile(0.5), Some(10));
    for q in [0.95, 0.99] {
        let got = h.quantile(q).unwrap() as f64;
        assert!((got - 1000.0).abs() / 1000.0 <= 0.04, "p{q} = {got}");
    }
}

#[test]
fn manifest_emits_once_then_updates() {
    let lines = capture(|| {
        telemetry::manifest(&[("a", telemetry::Value::Int(1))]);
        telemetry::manifest(&[("b", telemetry::Value::Int(2))]);
    });
    let events = parse(&lines);
    let manifests = events_of(&events, "run_manifest");
    assert_eq!(manifests.len(), 1);
    let m = manifests[0];
    assert!(!get_str(m, "run_id").is_empty());
    assert!(!get_str(m, "git_sha").is_empty());
    assert!(get_u64(m, "clock_origin_unix_ms") > 0);
    let updates = events_of(&events, "run_manifest_update");
    assert_eq!(updates.len(), 1);
    assert_eq!(get_str(updates[0], "run_id"), get_str(m, "run_id"));
    assert_eq!(get_u64(updates[0].get("fields").unwrap(), "b"), 2);
}

#[test]
fn kernel_spans_aggregate_without_per_call_events() {
    let lines = capture(|| {
        for _ in 0..50 {
            let _k = telemetry::kernel_span("infer.plan_layer");
        }
    });
    let events = parse(&lines);
    assert!(events_of(&events, "span").is_empty(), "kernel spans emit no span lines");
    let hists = events_of(&events, "histogram");
    let h = hists
        .iter()
        .find(|h| get_str(h, "name") == "infer.plan_layer_ns")
        .expect("kernel histogram");
    assert_eq!(get_u64(h, "count"), 50);
}

#[test]
fn spans_from_worker_threads_carry_distinct_tids() {
    let lines = capture(|| {
        let _main = telemetry::span("main");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _w = telemetry::span("worker");
                });
            }
        });
    });
    let events = parse(&lines);
    let spans = events_of(&events, "span");
    let worker_tids: Vec<u64> = spans
        .iter()
        .filter(|s| get_str(s, "name") == "worker")
        .map(|s| get_u64(s, "tid"))
        .collect();
    assert_eq!(worker_tids.len(), 2);
    assert_ne!(worker_tids[0], worker_tids[1]);
    // Worker spans start their own stacks.
    for s in spans.iter().filter(|s| get_str(s, "name") == "worker") {
        assert_eq!(get_u64(s, "depth"), 0);
    }
}
