//! What the serving service publishes into the metrics registry,
//! asserted exactly. The registry is process-global (ROADMAP item 4a),
//! so these tests have a binary of their own in which **every** test
//! runs inside `telemetry::testing::capture`: its lock serialises them,
//! and no neighbour serves traffic into an open capture.

mod common;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use common::{engine, resources, some_plan, tiny_bundle};
use counting_alloc::count_allocs;
use raal::serving::shard::{ShardConfig, ShardedServing};
use raal::serving::{FallbackReason, PredictionSource, ServingConfig, ServingModel};
use sparksim::plan::physical::PhysicalPlan;
use sparksim::resource::ResourceConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn analytical(plan: &PhysicalPlan, _res: &ResourceConfig) -> f64 {
    1.0 + plan.len() as f64
}

/// A counter's value in `snap`; a counter never bumped is absent.
fn counter(snap: &telemetry::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// `serving.predict.model + Σ serving.fallback.*`: every answer once.
fn answered(snap: &telemetry::MetricsSnapshot) -> u64 {
    let fallbacks: u64 = FallbackReason::ALL.iter().map(|r| counter(snap, r.counter())).sum();
    counter(snap, "serving.predict.model") + fallbacks
}

#[test]
fn fallback_counters_and_latency_reach_the_registry() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ServingConfig { max_plan_nodes: 1, ..ServingConfig::default() };
    telemetry::testing::capture(|| {
        let mut serving = ServingModel::new(tiny_bundle(), Box::new(analytical), cfg);
        serving.predict(&plan, &resources());
        let snap = telemetry::metrics_snapshot();
        assert_eq!(counter(&snap, "serving.predict"), 1);
        assert_eq!(counter(&snap, "serving.predict"), answered(&snap));
        assert_eq!(counter(&snap, "serving.predict.model"), 0);
        assert_eq!(counter(&snap, "serving.fallback.deadline"), 0);
        assert_eq!(snap.counters["serving.fallback.admission"], 1);
        assert_eq!(snap.hists["serving.predict_us"].count, 1);
    });
}

#[test]
fn served_and_encode_counters_reach_the_registry() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ShardConfig {
        serving: ServingConfig {
            deadline: Duration::from_secs(10),
            ..Default::default()
        },
        ..Default::default()
    };
    telemetry::testing::capture(|| {
        let service = ShardedServing::new(tiny_bundle(), Arc::new(analytical), cfg);
        // A lone miss counts its nodes, none of them supplied by the
        // service's fresh operator-row cache.
        service.predict("lone", &plan, &resources());
        let snap = telemetry::metrics_snapshot();
        assert_eq!(snap.counters["serving.encode.nodes"], plan.len() as u64);
        assert_eq!(snap.counters["serving.encode.nodes_reused"], 0);
        let refs = [&plan, &plan];
        let preds = service.predict_many("gauges", &refs, &resources());
        assert_eq!(preds.len(), 2);
        service.shutdown();
        let snap = telemetry::metrics_snapshot();
        // Seen before, the first is a miss whose rows the cache holds
        // and is admitted; the second is a hit.
        assert_eq!(snap.counters["serving.encode.nodes"], 2 * plan.len() as u64);
        assert_eq!(snap.counters["serving.encode.nodes_reused"], plan.len() as u64);
        assert_eq!(snap.counters["serving.predict"], answered(&snap));
        assert_eq!(counter(&snap, "serving.fallback.tenant_quota"), 0);
        assert_eq!(snap.counters["serving.predict"], 3);
        assert_eq!(snap.counters["serving.predict.model"], 3);
        assert_eq!(snap.counters["serving.tenant.predict.gauges"], 2);
        assert_eq!(snap.hists["serving.predict_us"].count, 2);
    });
}

/// What telemetry costs a served miss does not depend on the plan's
/// length: a short and a long never-seen plan leave the same histogram
/// observations — one per stage of the request, none per node — and
/// touch the heap the same number of times, the encoder's four plus the
/// request's one log line. It sets no gauge: ratios are the reader's,
/// taken over the counters. (A `kernel_span` back in `matmul_into` —
/// five products and activations per LSTM step — fails the first half;
/// a span close that builds its metric name per call fails the second.)
#[test]
fn a_served_miss_costs_telemetry_the_same_whatever_the_plan_length() {
    let engine = engine();
    let plan_of = |sql: String| engine.plan_candidates(&sql).unwrap().remove(0);
    // A fresh literal makes a plan the service has never seen.
    let short = |bound: usize| plan_of(format!("SELECT COUNT(*) FROM t WHERE id < {bound}"));
    let long = |bound: usize| {
        plan_of(format!(
            "SELECT t.x, COUNT(*) FROM t, u WHERE t.id = u.t_id AND t.id < {bound} GROUP BY t.x"
        ))
    };
    assert!(long(100).len() >= short(100).len() + 3, "the two shapes must differ in length");
    let cfg = ShardConfig {
        serving: ServingConfig {
            deadline: Duration::from_secs(30),
            ..Default::default()
        },
        ..Default::default()
    };
    let res = resources();

    let observations = |plan: &PhysicalPlan| {
        let mut counts = BTreeMap::new();
        let bundle = tiny_bundle(); // trains its embeddings under a span of its own
        telemetry::testing::capture(|| {
            let service = ShardedServing::new(bundle, Arc::new(analytical), cfg.clone());
            assert_eq!(service.predict("miss", plan, &res).source, PredictionSource::Model);
            let snap = telemetry::metrics_snapshot();
            // A first sighting is not admitted, so nothing sets
            // `serving.plan_cache.bytes` either.
            assert!(snap.gauges.is_empty(), "a served miss wrote gauges: {:?}", snap.gauges);
            counts = snap.hists.into_iter().map(|(name, h)| (name, h.count)).collect();
        });
        counts
    };
    let per_miss: BTreeMap<String, u64> = [
        "serving.predict_us",
        "span.serving.predict_us",
        "serving.encode_ns",
        "infer.plan_layer_ns",
        "infer.node_attention_ns",
        "infer.resource_keys_ns",
        "infer.head_ns",
    ]
    .into_iter()
    .map(|name| (name.to_string(), 1))
    .collect();
    assert_eq!(observations(&short(100)), per_miss);
    assert_eq!(observations(&long(100)), per_miss);

    // Warm-up brings this thread's arena, the tenant entry and every
    // histogram above into being; the log sink's buffer doubles now and
    // then, which the minimum over three misses of a shape steps over.
    let warm: Vec<_> = (110..118).flat_map(|bound| [short(bound), long(bound)]).collect();
    let (short, long): (Vec<_>, Vec<_>) = (120..123).map(|b| (short(b), long(b))).unzip();
    let bundle = tiny_bundle();
    telemetry::testing::capture(|| {
        let service = ShardedServing::new(bundle, Arc::new(analytical), cfg.clone());
        let allocs_of = |plan: &PhysicalPlan| {
            let (allocs, served) = count_allocs(|| service.predict("miss", plan, &res));
            assert_eq!(served.source, PredictionSource::Model);
            allocs
        };
        for plan in &warm {
            allocs_of(plan);
        }
        let short_allocs = short.iter().map(allocs_of).min().unwrap();
        let long_allocs = long.iter().map(allocs_of).min().unwrap();
        assert_eq!(short_allocs, long_allocs, "allocations per miss grow with the plan");
        assert!(short_allocs <= 4 + 2, "{short_allocs} allocations for one served miss");
    });
}
