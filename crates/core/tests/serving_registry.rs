//! What the serving service publishes into the metrics registry,
//! asserted exactly. The registry is process-global (ROADMAP item 4a),
//! so these tests have a binary of their own in which **every** test
//! runs inside `telemetry::testing::capture`: its lock serialises them,
//! and no neighbour serves traffic into an open capture.

mod common;

use common::{engine, resources, some_plan, tiny_bundle};
use raal::serving::shard::{ShardConfig, ShardedServing};
use raal::serving::{ServingConfig, ServingModel};
use sparksim::plan::physical::PhysicalPlan;
use sparksim::resource::ResourceConfig;
use std::sync::Arc;
use std::time::Duration;

fn analytical(plan: &PhysicalPlan, _res: &ResourceConfig) -> f64 {
    1.0 + plan.len() as f64
}

#[test]
fn slo_gauges_and_latency_reach_the_registry() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ServingConfig { max_plan_nodes: 1, ..ServingConfig::default() };
    telemetry::testing::capture(|| {
        let mut serving = ServingModel::new(tiny_bundle(), Box::new(analytical), cfg);
        serving.predict(&plan, &resources());
        let snap = serving.metrics_snapshot();
        assert_eq!(snap.gauges["serving.slo.hit_rate"], 0.0);
        assert_eq!(snap.gauges["serving.slo.fallback_rate"], 1.0);
        assert!(snap.gauges["serving.slo.burn.admission"] > 0.0);
        assert_eq!(snap.gauges["serving.slo.burn.deadline"], 0.0);
        assert_eq!(snap.counters["serving.fallback.admission"], 1);
        assert_eq!(snap.hists["serving.predict_us"].all.count, 1);
    });
}

#[test]
fn slo_gauges_and_served_counters_reach_the_registry() {
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
        let refs = [&plan, &plan];
        let preds = service.predict_many("gauges", &refs, &resources());
        assert_eq!(preds.len(), 2);
        service.shutdown();
        let snap = service.metrics_snapshot();
        assert_eq!(snap.gauges["serving.slo.hit_rate"], 1.0);
        assert_eq!(snap.gauges["serving.slo.burn.tenant_quota"], 0.0);
        assert_eq!(snap.counters["serving.predict"], 2);
        assert_eq!(snap.counters["serving.predict.model"], 2);
        assert_eq!(snap.counters["serving.tenant.predict.gauges"], 2);
        assert_eq!(snap.hists["serving.predict_us"].all.count, 1);
    });
}
