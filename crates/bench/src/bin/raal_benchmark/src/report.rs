//! The metric vocabulary — names, units and directions, exactly as
//! `BENCHMARK.json` declares them (a unit test keeps the two equal) — and
//! the result line every run ends with.

use serde::Value;

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// What a user of the service sees; reported by an untraced run, times
/// and rates at reference machine speed (see `calib.rs`). The regression
/// bound of each lives in `BENCHMARK.json` only.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("latency_p50_us", "us"),
    higher("throughput_plans_per_s", "1/s"),
    lower("cpu_us_per_plan", "us"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer measurements; reported by a traced run, times and rates
/// at reference machine speed like the end-to-end ones
/// (`client.machine_slowdown` is what to multiply a time by to get the
/// clock reading back). Grouped by the repo module they time. Counters
/// that should stay at zero are `"lower"`.
pub const PER_LAYER: [MetricDef; 83] = [
    // client — the generator itself.
    higher("client.sent", "count"),
    higher("client.ok", "count"),
    lower("client.failed", "count"),
    lower("client.stream_hash", "count"),
    lower("client.latency_p50_us", "us"),
    lower("client.latency_p95_us", "us"),
    lower("client.latency_p99_us", "us"),
    lower("client.cpu_us_per_plan", "us"),
    lower("client.window_iqr_ratio", "ratio"),
    lower("client.paced_p50_us", "us"),
    lower("client.paced_p99_us", "us"),
    lower("client.paced_send_lag_p99_us", "us"),
    lower("client.paced_late_share", "ratio"),
    lower("client.vm_hwm_mb", "MB"),
    lower("client.machine_slowdown", "ratio"),
    // trace — the traced phase and what tracing cost.
    higher("trace.overhead_ratio", "ratio"),
    higher("trace.requests", "count"),
    lower("trace.served_p50_us", "us"),
    lower("trace.replay_encode_us", "us"),
    lower("trace.replay_feature_vector_us", "us"),
    lower("trace.replay_gpsj_us", "us"),
    lower("trace.replay_packed_us", "us"),
    lower("trace.replay_self_us", "us"),
    // workloads / sparksim / training side of set-up.
    lower("workloads.generate_s", "s"),
    lower("sparksim.collect_s", "s"),
    lower("sparksim.plan_candidates_us", "us"),
    lower("sparksim.feature_vector_ns", "ns"),
    lower("sparksim.plan_nodes_mean", "count"),
    lower("encoding.w2v_train_s", "s"),
    higher("raal.train.samples_per_s", "1/s"),
    lower("raal.model.freeze_ms", "ms"),
    lower("raal.persist.load_ms", "ms"),
    // encoding.
    lower("encoding.encode_us", "us"),
    lower("encoding.encode_ns_per_node", "ns"),
    lower("encoding.plan_sentences_us", "us"),
    lower("encoding.share_of_served", "ratio"),
    // baselines.
    lower("baselines.gpsj_estimate_ns", "ns"),
    // nn.
    lower("nn.matmul_f32_ns", "ns"),
    lower("nn.matmul_q8_ns", "ns"),
    lower("nn.gemm_flops_per_plan", "count"),
    // raal.model.
    lower("raal.model.predict_int8_us", "us"),
    lower("raal.model.predict_f32_us", "us"),
    lower("raal.model.predict_ns_per_node", "ns"),
    lower("raal.model.tape_us", "us"),
    lower("raal.model.packed_us_per_plan_k1", "us"),
    lower("raal.model.packed_us_per_plan_k5", "us"),
    lower("raal.model.packed_us_per_plan_k32", "us"),
    lower("raal.model.plan_context_us", "us"),
    lower("raal.model.with_context_us", "us"),
    lower("raal.model.arena_misses", "count"),
    // raal.serving — the single tier and the hop primitive.
    lower("raal.serving.predict_us", "us"),
    lower("raal.serving.handoff_roundtrip_us", "us"),
    // raal.serving.shard.
    lower("raal.serving.shard.slot_roundtrip_us", "us"),
    lower("raal.serving.shard.unattributed_us", "us"),
    lower("raal.serving.shard.overhead_ratio", "ratio"),
    lower("raal.serving.shard.degraded_predict_us", "us"),
    higher("raal.serving.shard.model_hit_rate", "ratio"),
    lower("raal.serving.shard.fallback_checkpoint", "count"),
    lower("raal.serving.shard.fallback_admission", "count"),
    lower("raal.serving.shard.fallback_deadline", "count"),
    lower("raal.serving.shard.fallback_busy", "count"),
    lower("raal.serving.shard.fallback_worker_lost", "count"),
    lower("raal.serving.shard.fallback_tenant_quota", "count"),
    // telemetry.
    lower("telemetry.count_ns_off", "ns"),
    lower("telemetry.count_ns_on", "ns"),
    lower("telemetry.observe_ns_on", "ns"),
    lower("telemetry.span_ns_off", "ns"),
    lower("telemetry.span_ns_on", "ns"),
    lower("telemetry.snapshot_us", "us"),
    lower("telemetry.events_per_request", "count"),
    lower("telemetry.bytes_per_request", "B"),
    // Failures by reason (all phases of the traced run).
    lower("client.failed.wrong_count", "count"),
    lower("client.failed.not_model", "count"),
    lower("client.failed.non_finite", "count"),
    lower("client.failed.quant_budget", "count"),
    lower("client.failed.argmin", "count"),
    lower("client.failed.replay_mismatch", "count"),
    // Input properties and generator sizing, so a result can be read
    // without the log above it.
    lower("client.machine_cores", "count"),
    lower("client.clients", "count"),
    lower("client.shards", "count"),
    lower("client.distinct_plans", "count"),
    lower("client.cycle_requests", "count"),
    lower("client.check_sample", "count"),
];

/// Metric values of one run, in the order they were set.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Prints `name value unit` for every declared metric and returns the
    /// `metrics` object of the result line. Fails when a declared metric
    /// was not measured or is not a finite number — a result with a hole
    /// in it must not look like a result.
    pub fn print_and_collect(&self, defs: &[MetricDef]) -> Result<Value, String> {
        for (name, _) in &self.values {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!("metric '{name}' was measured but is not declared"));
            }
        }
        let mut entries = Vec::with_capacity(defs.len());
        for def in defs {
            let value = self
                .get(def.name)
                .ok_or_else(|| format!("metric '{}' was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric '{}' is not finite ({value})", def.name));
            }
            println!("{:<44} {:>16.4} {}", def.name, value, def.unit);
            entries.push((
                def.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(def.unit.to_string())),
                ]),
            ));
        }
        Ok(Value::Object(entries))
    }
}

/// The one-line JSON object a run ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), metrics),
    ]);
    serde_json::to_string(&line).expect("a Value always serialises")
}

/// A number out of a parsed JSON value, whatever integer/float form the
/// parser chose for it.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_array(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(a) => Some(a),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Workload;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        as_str(entry.get(key).unwrap_or_else(|| panic!("entry without '{key}'"))).unwrap()
    }

    fn assert_defs_match(section: &str, defs: &[MetricDef]) {
        let file = declared();
        let entries = as_array(file.get(section).expect(section)).unwrap();
        let in_file: Vec<(&str, &str, &str)> = entries
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let in_code: Vec<(&str, &str, &str)> =
            defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
        assert_eq!(in_file, in_code, "BENCHMARK.json {section} differs from report.rs");
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        assert_defs_match("end_to_end", &END_TO_END);
        assert_defs_match("per_layer", &PER_LAYER);
        let file = declared();
        let workloads = as_array(file.get("workloads").unwrap()).unwrap();
        let in_file: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let in_code: Vec<(&str, &str)> =
            Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(in_file.len(), in_code.len());
        for ((fname, fwhy), (cname, cwhy)) in in_file.iter().zip(&in_code) {
            assert_eq!(fname, cname);
            assert_eq!(fwhy, cwhy);
            assert!(fwhy.len() <= 200, "why of {fname} exceeds the contract's 200 characters");
        }
    }

    #[test]
    fn declared_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }

    #[test]
    fn a_hole_or_a_nan_is_an_error_not_a_result() {
        let defs = [lower("a", "us"), higher("b", "1/s")];
        let mut r = Report::default();
        r.set("a", 1.5);
        assert!(r
            .print_and_collect(&defs)
            .unwrap_err()
            .contains("'b' was not measured"));
        r.set("b", f64::NAN);
        assert!(r.print_and_collect(&defs).unwrap_err().contains("not finite"));
        let mut r = Report::default();
        r.set("a", 1.5);
        r.set("b", 2.0);
        r.set("c", 3.0);
        assert!(r.print_and_collect(&defs).unwrap_err().contains("not declared"));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.set("a", 1.25);
        let metrics = r.print_and_collect(&[lower("a", "us")]).unwrap();
        let line = result_line(true, 10, 0, metrics);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"a":{"value":1.25,"unit":"us"}}}"#
        );
    }
}
