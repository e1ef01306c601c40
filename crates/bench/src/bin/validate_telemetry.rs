//! Validates a RAAL telemetry event log (`raal-events.jsonl`).
//!
//! Usage: `validate_telemetry <events.jsonl> [--expect-pipeline]`
//!
//! Every line must parse as JSON, carry the fields
//! [`telemetry::schema`] requires for its event type, and use only
//! names registered in the schema's vocabularies (span, counter,
//! histogram and event name tables) — an unregistered name in a log is
//! a name someone emitted without registering, exactly the drift the
//! schema exists to prevent. With `--expect-pipeline` the log must
//! additionally look like a full quickstart run: a `run_manifest` on
//! the first line, training epochs, inference counters and the
//! Spark-style job/stage event stream. CI runs this against the
//! quickstart example's output.

use serde::Value;
use telemetry::schema;

fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut path = None;
    let mut expect_pipeline = false;
    for arg in &args[1..] {
        match arg.as_str() {
            "--expect-pipeline" => expect_pipeline = true,
            other if path.is_none() => path = Some(other.to_string()),
            other => fail(&format!("unexpected argument '{other}'")),
        }
    }
    let path = path.unwrap_or_else(|| {
        fail("usage: validate_telemetry <events.jsonl> [--expect-pipeline]");
    });
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));

    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| fail(&format!("line {}: invalid JSON ({e}): {line}", lineno + 1)));
        for key in schema::COMMON_REQUIRED {
            if v.get(key).is_none() {
                fail(&format!("line {}: missing required field '{key}'", lineno + 1));
            }
        }
        let ty = get_str(&v, "type")
            .unwrap_or_else(|| fail(&format!("line {}: 'type' is not a string", lineno + 1)));
        let required = schema::required_fields(ty)
            .unwrap_or_else(|| fail(&format!("line {}: unknown event type '{ty}'", lineno + 1)));
        for key in required {
            if v.get(key).is_none() {
                fail(&format!("line {}: {ty} event missing field '{key}'", lineno + 1));
            }
        }
        if let Some(name) = get_str(&v, "name") {
            if !name_is_registered(ty, name) {
                fail(&format!(
                    "line {}: {ty} name '{name}' is not registered in telemetry::schema",
                    lineno + 1
                ));
            }
        }
        events.push(v);
    }
    if events.is_empty() {
        fail("event log is empty");
    }

    if expect_pipeline {
        let first_ty = get_str(&events[0], "type").unwrap_or("");
        if first_ty != "run_manifest" {
            fail(&format!("first event must be run_manifest, got '{first_ty}'"));
        }
        fn has(events: &[Value], ty: &str, name: &str) -> bool {
            events.iter().any(|e| {
                get_str(e, "type") == Some(ty)
                    && get_str(e, "name").is_some_and(|n| n.starts_with(name))
            })
        }
        if !has(&events, "event", "train.epoch") && !has(&events, "span", "train.run") {
            fail("no training evidence (train.epoch event or train.run span)");
        }
        if !has(&events, "counter", "infer.") {
            fail("no inference evidence (infer.* counter)");
        }
        // A quickstart run must show the whole job/stage/task stream.
        for &spark in schema::SPARK_EVENT_NAMES {
            if !has(&events, "event", spark) {
                fail(&format!("no sparksim evidence ({spark} event)"));
            }
        }
    }

    let mut by_type: Vec<(String, usize)> = Vec::new();
    for e in &events {
        let ty = get_str(e, "type").unwrap_or("?").to_string();
        match by_type.iter_mut().find(|(t, _)| *t == ty) {
            Some((_, n)) => *n += 1,
            None => by_type.push((ty, 1)),
        }
    }
    println!("ok: {} events in {path}", events.len());
    for (ty, n) in by_type {
        println!("  {ty:<22} {n}");
    }
}

/// Checks a line's `name` against the schema vocabulary for its type.
/// Spans also produce derived `span.<name>_us` histograms, and timed
/// kernel spans produce `<name>_ns` histograms, so those forms are
/// accepted whenever the base name is a registered span.
fn name_is_registered(event_type: &str, name: &str) -> bool {
    match event_type {
        "span" => schema::SPAN_NAMES.contains(&name),
        "event" => schema::EVENT_NAMES.contains(&name),
        "counter" => schema::counter_is_registered(name),
        "gauge" => schema::gauge_is_registered(name),
        "histogram" => {
            schema::HISTOGRAM_NAMES.contains(&name)
                || name
                    .strip_prefix("span.")
                    .and_then(|n| n.strip_suffix("_us"))
                    .is_some_and(|n| schema::SPAN_NAMES.contains(&n))
                || name
                    .strip_suffix("_ns")
                    .is_some_and(|n| schema::SPAN_NAMES.contains(&n))
        }
        // Manifests and friends carry no name.
        _ => true,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("validate_telemetry: {msg}");
    std::process::exit(1);
}
