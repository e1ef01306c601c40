//! What the trainer says about itself in the event log.

use encoding::plan_encoder::{EncodedPlan, Sample, PLAN_STAT_FEATURES};
use raal::{train, CostModel, ModelConfig, TrainConfig};
use serde::Value;

/// Every `train.epoch` event reports the gradient norm of the epoch's
/// last batch as it was *before* clipping — not the accumulators' norm
/// after the optimizer step zeroed them, which read 0 on every line.
#[test]
fn every_epoch_event_carries_a_positive_grad_norm() {
    let samples: Vec<Sample> = (0..12)
        .map(|i| {
            let v = i as f32 / 12.0;
            Sample {
                plan: EncodedPlan::from_rows(
                    &[vec![v; 6], vec![1.0 - v; 6], vec![0.5; 6]],
                    &[vec![], vec![0], vec![1]],
                    [v; PLAN_STAT_FEATURES],
                ),
                resources: vec![0.5; 7],
                seconds: 5.0 + 40.0 * v as f64,
            }
        })
        .collect();
    let mut model = CostModel::new(ModelConfig {
        hidden: 8,
        latent_k: 4,
        head_hidden: 8,
        ..ModelConfig::raal(6)
    });
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 4,
        threads: 1,
        ..TrainConfig::default()
    };
    let tid = telemetry::testing::current_tid();
    let lines = telemetry::testing::capture(|| {
        train(&mut model, &samples, &cfg);
    });
    let number = |v: &Value| match v {
        Value::Float(x) => *x,
        Value::UInt(x) => *x as f64,
        Value::Int(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    };
    // The sink is process-global: keep this thread's events.
    let norms: Vec<f64> = lines
        .iter()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter(|e| e.get("name") == Some(&Value::Str("train.epoch".to_string())))
        .filter(|e| e.get("tid").map(number) == Some(tid as f64))
        .map(|e| {
            number(
                e.get("fields")
                    .and_then(|f| f.get("grad_norm"))
                    .expect("grad_norm field"),
            )
        })
        .collect();
    assert_eq!(norms.len(), 2, "one train.epoch event per epoch: {lines:?}");
    assert!(norms.iter().all(|n| n.is_finite() && *n > 0.0), "grad norms {norms:?}");
}
