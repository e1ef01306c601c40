//! [`raal::PlanContext`] freshness: a cached context must be rejected
//! after any model mutation (weight updates, retraining, label-stat
//! changes) and must never survive a serde round trip.

use encoding::plan_encoder::{EncodedPlan, Sample, PLAN_STAT_FEATURES};
use raal::{train, CostModel, ModelConfig, TrainConfig};

const DIM: usize = 10;

fn toy_plan(n: usize) -> EncodedPlan {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| (0..DIM).map(|d| ((i * 5 + d) % 11) as f32 / 11.0).collect())
        .collect();
    let children: Vec<Vec<usize>> =
        (0..n).map(|i| if i == 0 { vec![] } else { vec![i - 1] }).collect();
    EncodedPlan::from_rows(&rows, &children, [0.2; PLAN_STAT_FEATURES])
}

fn resources() -> Vec<f32> {
    vec![1.0, 1.0, 0.25, 0.5, 0.25, 0.9, 0.8]
}

fn small_model() -> CostModel {
    CostModel::new(ModelConfig {
        hidden: 8,
        latent_k: 4,
        head_hidden: 8,
        ..ModelConfig::raal(DIM)
    })
}

#[test]
fn fresh_context_is_current_and_usable() {
    let model = small_model();
    let plan = toy_plan(4);
    let ctx = model.plan_context(&plan);
    assert!(model.context_is_current(&ctx));
    assert_eq!(ctx.num_nodes(), 4);
    assert_eq!(
        model.predict_with_context(&ctx, &resources()),
        model.predict_seconds(&plan, &resources())
    );
}

#[test]
fn stale_after_store_mutation() {
    let mut model = small_model();
    let ctx = model.plan_context(&toy_plan(3));
    // Even a borrow that could change weights invalidates outstanding
    // contexts — freshness must be conservative.
    let _ = model.store_mut();
    assert!(!model.context_is_current(&ctx));
}

#[test]
fn stale_after_label_stats_change() {
    let mut model = small_model();
    let ctx = model.plan_context(&toy_plan(3));
    model.set_label_stats(0.4, 0.2);
    assert!(!model.context_is_current(&ctx));
}

#[test]
fn stale_after_retraining() {
    let mut model = small_model();
    let plan = toy_plan(4);
    let ctx = model.plan_context(&plan);
    let before = model.predict_with_context(&ctx, &resources());
    let samples: Vec<Sample> = (1..9)
        .map(|i| Sample {
            plan: toy_plan(1 + i % 4).into(),
            resources: resources(),
            seconds: 3.0 * i as f64,
        })
        .collect();
    train(
        &mut model,
        &samples,
        &TrainConfig {
            epochs: 1,
            batch_size: 4,
            threads: 1,
            ..Default::default()
        },
    );
    assert!(!model.context_is_current(&ctx), "training must invalidate contexts");
    let fresh = model.plan_context(&plan);
    let after = model.predict_with_context(&fresh, &resources());
    assert_ne!(before, after, "training changed the weights");
}

#[test]
#[should_panic(expected = "stale PlanContext")]
fn stale_context_panics_on_use() {
    let mut model = small_model();
    let ctx = model.plan_context(&toy_plan(3));
    let _ = model.store_mut();
    let _ = model.predict_with_context(&ctx, &resources());
}

#[test]
fn serde_round_trip_does_not_resurrect_contexts() {
    let model = small_model();
    let plan = toy_plan(4);
    let ctx = model.plan_context(&plan);

    let json = serde_json::to_string(&model).unwrap();
    let mut back: CostModel = serde_json::from_str(&json).unwrap();
    back.restore();

    // The deserialised model has a fresh identity: the old context must
    // not validate against it, even though the weights are identical.
    assert!(!back.context_is_current(&ctx));
    assert!(model.context_is_current(&ctx), "original model is untouched");

    // A context recomputed on the restored model gives the same answer.
    let fresh = back.plan_context(&plan);
    assert_eq!(
        back.predict_with_context(&fresh, &resources()),
        model.predict_with_context(&ctx, &resources())
    );
}

#[test]
fn clone_shares_context_validity_until_divergence() {
    let model = small_model();
    let ctx = model.plan_context(&toy_plan(3));
    let mut twin = model.clone();
    // An unmutated clone is state-identical, so the context is valid...
    assert!(twin.context_is_current(&ctx));
    // ...until the clone diverges.
    let _ = twin.store_mut();
    assert!(!twin.context_is_current(&ctx));
    assert!(model.context_is_current(&ctx), "original unaffected by the clone");
}
