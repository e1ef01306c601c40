//! The JSONL event-log schema, mirrored on Spark's event logs.
//!
//! Every line of a RAAL event log is one JSON object with at least
//! `ts_us` (microseconds since the process clock origin) and `type`.
//! The first line of a well-formed log is a `run_manifest`, which binds
//! the relative timestamps to wall-clock time (`clock_origin_unix_ms`)
//! and identifies the run (id, git sha, command line, config fields) —
//! the same role `SparkListenerApplicationStart` plus the environment
//! update play in a Spark History Server log.
//!
//! This module is the single source of truth for validators (the
//! `validate_telemetry` bench binary and the telemetry tests both check
//! against these tables); it contains no parser so the crate stays
//! dependency-free.

/// Keys every event line must carry.
pub const COMMON_REQUIRED: &[&str] = &["ts_us", "type"];

/// Required keys per event `type`.
///
/// * `run_manifest` — run identity: `run_id`, `git_sha`,
///   `clock_origin_unix_ms`, plus free-form `fields` (config, resolved
///   worker threads, resource vector, ...).
/// * `run_manifest_update` — late manifest additions (e.g. the trainer's
///   resolved thread count) keyed back to the same `run_id`.
/// * `span` — a closed RAII span: `name`, emitting thread `tid`,
///   `dur_us`, nesting `depth` (and `parent`, `null` at depth 0).
/// * `event` — a point event; sparksim's Spark-style job/stage/task
///   records use this type with names from [`SPARK_EVENT_NAMES`].
/// * `counter` / `gauge` / `histogram` — end-of-run metric summaries
///   emitted by `telemetry::shutdown()` from the live registry.
pub const REQUIRED_BY_TYPE: &[(&str, &[&str])] = &[
    ("run_manifest", &["run_id", "git_sha", "clock_origin_unix_ms", "fields"]),
    ("run_manifest_update", &["run_id", "fields"]),
    ("span", &["name", "tid", "dur_us", "depth"]),
    ("event", &["name", "fields"]),
    ("counter", &["name", "value"]),
    ("gauge", &["name", "value"]),
    ("histogram", &["name", "count", "p50", "p95", "p99", "max", "mean"]),
];

/// Event names sparksim emits (`type == "event"`), mirroring the Spark
/// listener events RAAL's training features are harvested from:
/// `job_start`/`job_end` ≈ `SparkListenerJobStart`/`JobEnd`,
/// `stage_completed` ≈ `SparkListenerStageCompleted` (rows, spill and
/// shuffle bytes live in its `fields`, like a stage's task-metrics
/// rollup), `task_end` ≈ `SparkListenerTaskEnd`.
pub const SPARK_EVENT_NAMES: &[&str] = &["job_start", "stage_completed", "task_end", "job_end"];

/// The closed vocabulary of span names (`telemetry::span` and
/// `kernel_span`). The `source_rules` test rejects a span opened under a
/// name missing here, so event-log consumers can key on span names
/// without chasing ad-hoc strings through the codebase.
///
/// Phase spans cover one logical stage of a run; kernel spans (the
/// `infer.*` names and `serving.encode`) are one per plan stage, always
/// recorded — never one per node or per step.
pub const SPAN_NAMES: &[&str] = &[
    // Phase spans.
    "train.run",
    "sparksim.execute_plan",
    "sparksim.observe",
    "sparksim.simulate",
    "serving.predict",
    "workload.generate",
    "encode.word2vec",
    // Kernel spans: the stages of a served miss.
    "serving.encode",
    "infer.plan_layer",
    "infer.node_attention",
    "infer.resource_keys",
    "infer.head",
    // Kernel span of the benchmark-pinned int8 kernel (`nn::infer::quant`).
    "infer.quant.matmul",
];

/// Registered counter names (`telemetry::count`). The `serving.*`
/// family tracks degraded-mode serving: one `serving.predict` per call,
/// split into `serving.predict.model` (deep model answered in time) and
/// the `serving.fallback.*` reasons (analytical-baseline answers). The
/// `serving.plan_cache.*` family meters the plan-context cache: every
/// admitted plan is one `hit` or one `miss`
/// (hit rate = `hit / (hit + miss)`), `insert` and `evict` count
/// entries entering and leaving it. `serving.encode.nodes` /
/// `.nodes_reused` count, once per call that encoded, the nodes its
/// misses encoded and those whose semantic block the service's
/// operator-row cache supplied.
pub const COUNTER_NAMES: &[&str] = &[
    "infer.predict.single",
    "infer.plan_context.build",
    "infer.predict.with_context",
    "infer.quant.build",
    "infer.arena.alloc",
    "serving.predict",
    "serving.predict.model",
    "serving.fallback.checkpoint",
    "serving.fallback.deadline",
    "serving.fallback.admission",
    "serving.fallback.busy",
    "serving.fallback.worker_lost",
    "serving.fallback.tenant_quota",
    "serving.plan_cache.hit",
    "serving.plan_cache.miss",
    "serving.plan_cache.insert",
    "serving.plan_cache.evict",
    "serving.encode.nodes",
    "serving.encode.nodes_reused",
    "sparksim.jobs.completed",
    "monitor.samples",
    "monitor.drift.alarms",
];

/// Registered histogram names (`telemetry::observe`). `serving.predict_us`
/// is the serving layer's per-call latency, all-time; a recent view is
/// the scraper's, from successive exports.
pub const HISTOGRAM_NAMES: &[&str] = &["train.batch_ns", "serving.predict_us"];

/// Registered gauge names (`telemetry::gauge`): last-write-wins live
/// values. `serving.plan_cache.bytes` is what the plan-context cache
/// currently retains (plan keys + contexts). Serving's hit rate and
/// error-budget burn are not gauges: readers take them as rate ratios
/// over the `serving.*` counters.
pub const GAUGE_NAMES: &[&str] = &["train.loss", "serving.plan_cache.bytes"];

/// Registered gauge *families*: per-workload-class gauges published by
/// `telemetry::monitor` are `<prefix><class>`, where `class` is chosen
/// by the caller at runtime. A gauge name is valid if it is in
/// [`GAUGE_NAMES`] or extends one of these prefixes (see
/// [`gauge_is_registered`]).
pub const GAUGE_PREFIXES: &[&str] = &["monitor.mae.", "monitor.qerror.", "monitor.drift."];

/// Registered point-event names (`telemetry::event`): the trainer's
/// per-epoch record, the drift monitor's alarm, plus the Spark-style
/// listener events from [`SPARK_EVENT_NAMES`].
pub const EVENT_NAMES: &[&str] = &[
    "train.epoch",
    "drift.alarm",
    "job_start",
    "stage_completed",
    "task_end",
    "job_end",
];

/// Registered counter *families*: the sharded serving layer publishes
/// per-tenant traffic counters as `<prefix><tenant>`, where the tenant
/// id is sanitized to `[a-z0-9_]` at registration time. A counter name
/// is valid if it is in [`COUNTER_NAMES`] or extends one of these
/// prefixes (see [`counter_is_registered`]).
pub const COUNTER_PREFIXES: &[&str] = &["serving.tenant.predict.", "serving.tenant.shed."];

/// Whether a gauge name is registered: either an exact [`GAUGE_NAMES`]
/// entry or a per-class instantiation of a [`GAUGE_PREFIXES`] family
/// (the class part must be non-empty).
pub fn gauge_is_registered(name: &str) -> bool {
    GAUGE_NAMES.contains(&name)
        || GAUGE_PREFIXES
            .iter()
            .any(|p| name.len() > p.len() && name.starts_with(p))
}

/// Whether a counter name is registered: either an exact
/// [`COUNTER_NAMES`] entry or a per-tenant instantiation of a
/// [`COUNTER_PREFIXES`] family (the tenant part must be non-empty).
pub fn counter_is_registered(name: &str) -> bool {
    COUNTER_NAMES.contains(&name)
        || COUNTER_PREFIXES
            .iter()
            .any(|p| name.len() > p.len() && name.starts_with(p))
}

/// Returns the required field list for an event type, if it is known.
pub fn required_fields(event_type: &str) -> Option<&'static [&'static str]> {
    REQUIRED_BY_TYPE
        .iter()
        .find(|(t, _)| *t == event_type)
        .map(|(_, fields)| *fields)
}
