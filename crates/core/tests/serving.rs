//! Integration tests for degraded-mode serving: every guard rail must
//! produce a fallback answer (never a panic) and count the trip.

mod common;

use common::{engine, resources, some_plan, tiny_bundle};
use raal::serving::{FallbackReason, PredictionSource, ServingConfig, ServingModel};
use sparksim::plan::physical::PhysicalPlan;
use sparksim::resource::{ClusterConfig, ResourceConfig};
use std::time::Duration;

fn gpsj_fallback() -> Box<dyn raal::serving::FallbackModel + Send + Sync> {
    Box::new(|plan: &PhysicalPlan, _res: &ResourceConfig| 1.0 + plan.len() as f64)
}

#[test]
fn corrupted_checkpoint_degrades_with_counter() {
    let dir = std::env::temp_dir().join("raal_serving_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.json");
    std::fs::write(&path, "{\"not\": \"a bundle\"}").unwrap();

    let engine = engine();
    let plan = some_plan(&engine);
    let lines = telemetry::testing::capture(|| {
        let mut serving =
            ServingModel::from_checkpoint(&path, gpsj_fallback(), ServingConfig::default());
        assert!(serving.is_degraded());
        let pred = serving.predict(&plan, &resources());
        assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Checkpoint));
        assert_eq!(pred.seconds, 1.0 + plan.len() as f64);
    });
    assert!(
        lines.iter().any(|l| l.contains("serving.fallback.checkpoint")),
        "fallback counter missing from log"
    );
}

#[test]
fn missing_checkpoint_degrades_instead_of_panicking() {
    let engine = engine();
    let plan = some_plan(&engine);
    let mut serving = ServingModel::from_checkpoint(
        std::path::Path::new("/nonexistent/raal.json"),
        gpsj_fallback(),
        ServingConfig::default(),
    );
    let pred = serving.predict(&plan, &resources());
    assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Checkpoint));
}

#[test]
fn oversized_plans_are_not_admitted() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ServingConfig { max_plan_nodes: 1, ..ServingConfig::default() };
    let mut serving = ServingModel::new(tiny_bundle(), gpsj_fallback(), cfg);
    assert!(!serving.is_degraded());
    let pred = serving.predict(&plan, &resources());
    assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Admission));
}

#[test]
fn healthy_model_answers_within_generous_deadline() {
    let engine = engine();
    let plan = some_plan(&engine);
    // Serving answers with the model's own bits, so the reference
    // comes from an identically-seeded unfrozen model.
    let expected = {
        let bundle = tiny_bundle();
        let features = resources().feature_vector(&ClusterConfig::default());
        bundle
            .model
            .predict_seconds(&bundle.encoder().encode(&plan), &features)
    };
    let cfg = ServingConfig {
        deadline: Duration::from_secs(10),
        ..ServingConfig::default()
    };
    let lines = telemetry::testing::capture(|| {
        let mut serving = ServingModel::new(tiny_bundle(), gpsj_fallback(), cfg);
        let pred = serving.predict(&plan, &resources());
        assert_eq!(pred.source, PredictionSource::Model);
        assert_eq!(pred.seconds, expected);
    });
    assert!(lines.iter().any(|l| l.contains("serving.predict.model")));
}

#[test]
fn predict_many_scores_candidates_in_one_trip_with_per_plan_admission() {
    let engine = engine();
    let candidates = engine
        .plan_candidates("SELECT t.x, COUNT(*) FROM t, u WHERE t.id = u.t_id GROUP BY t.x")
        .unwrap();
    assert!(candidates.len() >= 2, "need at least two candidate plans");
    let refs: Vec<&PhysicalPlan> = candidates.iter().collect();
    // Admit nothing larger than the smallest candidate: mixed batches
    // must answer oversized plans analytically and the rest by model.
    let max_nodes = refs.iter().map(|p| p.len()).min().unwrap();
    let cfg = ServingConfig {
        deadline: Duration::from_secs(10),
        max_plan_nodes: max_nodes,
        ..ServingConfig::default()
    };
    let mut serving = ServingModel::new(tiny_bundle(), gpsj_fallback(), cfg);
    let preds = serving.predict_many(&refs, &resources());
    assert_eq!(preds.len(), refs.len());
    for (plan, pred) in refs.iter().zip(&preds) {
        if plan.len() > max_nodes {
            assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Admission));
            assert_eq!(pred.seconds, 1.0 + plan.len() as f64);
        } else {
            assert_eq!(pred.source, PredictionSource::Model);
        }
    }
    // Batched answers agree with one-at-a-time serving.
    for (plan, pred) in refs.iter().zip(&preds) {
        let single = serving.predict(plan, &resources());
        assert_eq!(single.seconds, pred.seconds);
        assert_eq!(single.source, pred.source);
    }
}

#[test]
fn drop_with_requests_in_flight_joins_the_worker() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ServingConfig {
        deadline: Duration::ZERO,
        ..ServingConfig::default()
    };
    let mut serving = ServingModel::new(tiny_bundle(), gpsj_fallback(), cfg);
    // A zero deadline is never met.
    for _ in 0..3 {
        let pred = serving.predict(&plan, &resources());
        assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Deadline));
        assert_eq!(pred.seconds, 1.0 + plan.len() as f64);
    }
    // There is no worker left to join: dropping returns at once.
    drop(serving);
}

#[test]
fn shutdown_from_a_scoped_thread_with_predict_traffic() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ServingConfig {
        deadline: Duration::from_millis(1),
        ..ServingConfig::default()
    };
    let mut serving = ServingModel::new(tiny_bundle(), gpsj_fallback(), cfg);
    // Hammer predicts from another thread (tight deadline: a mix of
    // model answers and deadline misses), then drop on this one.
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..20 {
                let pred = serving.predict(&plan, &resources());
                assert!(pred.seconds.is_finite());
            }
        });
    });
    drop(serving);
}

#[test]
fn dropping_a_degraded_model_is_trivially_clean() {
    let serving = ServingModel::from_checkpoint(
        std::path::Path::new("/nonexistent/raal.json"),
        gpsj_fallback(),
        ServingConfig::default(),
    );
    assert!(serving.is_degraded());
    drop(serving);
}

#[test]
fn slo_stats_meter_hits_and_fallbacks() {
    let engine = engine();
    let plan = some_plan(&engine);
    // No telemetry capture here on purpose: the SLO tracker is plain
    // counters and must work with the registry disabled.
    let cfg = ServingConfig {
        deadline: Duration::from_secs(10),
        ..ServingConfig::default()
    };
    let mut server = ServingModel::new(tiny_bundle(), gpsj_fallback(), cfg);
    assert_eq!(server.slo_stats().hit_rate(), 1.0, "idle server has not missed");

    for _ in 0..3 {
        assert_eq!(server.predict(&plan, &resources()).source, PredictionSource::Model);
    }
    // Shrink admission so the next predict falls back.
    let mut stats = server.slo_stats();
    assert_eq!((stats.total, stats.model), (3, 3));
    assert_eq!(stats.hit_rate(), 1.0);

    let cfg = ServingConfig { max_plan_nodes: 1, ..server.config().clone() };
    let mut server2 = ServingModel::new(tiny_bundle(), gpsj_fallback(), cfg);
    server2.predict(&plan, &resources());
    stats = server2.slo_stats();
    assert_eq!(stats.count(FallbackReason::Admission), 1);
    assert_eq!(stats.hit_rate(), 0.0);
    assert_eq!(stats.count(FallbackReason::Deadline), 0);
}

#[test]
fn zero_deadline_falls_back_then_recovers() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ServingConfig {
        deadline: Duration::ZERO,
        ..ServingConfig::default()
    };
    let mut serving = ServingModel::new(tiny_bundle(), gpsj_fallback(), cfg);

    // A zero deadline cannot be met: the analytical answer comes back.
    let pred = serving.predict(&plan, &resources());
    assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Deadline));
    assert_eq!(pred.seconds, 1.0 + plan.len() as f64);

    // With a realistic deadline the very next call is the model's.
    serving.set_deadline(Duration::from_secs(10));
    assert_eq!(serving.predict(&plan, &resources()).source, PredictionSource::Model);
    assert!(!serving.is_degraded());
}
