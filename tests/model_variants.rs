//! Structural tests for the model family: each paper variant differs from
//! RAAL in exactly the way its name claims.

use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
use raal::{CostModel, ModelConfig};

fn toy_plan(dim: usize) -> EncodedPlan {
    EncodedPlan::from_rows(
        &[vec![0.2; dim], vec![0.4; dim], vec![0.1; dim]],
        &[vec![], vec![], vec![0, 1]],
        [0.5; PLAN_STAT_FEATURES],
    )
}

#[test]
fn variant_weight_counts_reflect_their_components() {
    let dim = 24;
    let raal = CostModel::new(ModelConfig::raal(dim));
    let na = CostModel::new(ModelConfig::na_lstm(dim));
    let blind = CostModel::new(ModelConfig::raal(dim).without_resources());

    // Dropping node attention removes exactly the two hidden x K
    // projections.
    let cfg = ModelConfig::raal(dim);
    assert_eq!(raal.num_weights() - na.num_weights(), 2 * cfg.hidden * cfg.latent_k);
    // Dropping the resource pathway removes the two resource projections
    // and shrinks the head input (hidden + resource_dim columns).
    assert!(blind.num_weights() < raal.num_weights());
}

#[test]
fn raac_uses_convolution_not_recurrence() {
    let dim = 16;
    let raac = CostModel::new(ModelConfig::raac(dim));
    let names: Vec<String> = raac
        .store()
        .ids()
        .map(|id| raac.store().name(id).to_string())
        .collect();
    assert!(names.iter().any(|n| n.contains("plan.cnn")));
    assert!(!names.iter().any(|n| n.contains("plan.lstm")));

    let raal = CostModel::new(ModelConfig::raal(dim));
    let names: Vec<String> = raal
        .store()
        .ids()
        .map(|id| raal.store().name(id).to_string())
        .collect();
    assert!(names.iter().any(|n| n.contains("plan.lstm")));
    assert!(!names.iter().any(|n| n.contains("plan.cnn")));
}

#[test]
fn ne_lstm_is_an_encoder_level_ablation() {
    // NE-LSTM differs in the *encoder*: same architecture, narrower input.
    let corpus = vec![vec!["filescan".to_string(), "title".to_string()]];
    let w2v = encoding::train_word2vec(&corpus, &encoding::W2vConfig { dim: 8, epochs: 1 });
    let with = encoding::PlanEncoder::new(
        w2v.clone(),
        encoding::EncoderConfig { max_nodes: 16, structure: true },
    );
    let without = encoding::PlanEncoder::new(
        w2v,
        encoding::EncoderConfig { max_nodes: 16, structure: false },
    );
    assert_eq!(with.node_dim() - without.node_dim(), 16);
}

#[test]
fn every_variant_predicts_on_the_same_plan() {
    let dim = 20;
    let plan = toy_plan(dim);
    let res = vec![0.4f32; 7];
    for cfg in [
        ModelConfig::raal(dim),
        ModelConfig::na_lstm(dim),
        ModelConfig::raac(dim),
        ModelConfig::raal(dim).without_resources(),
        ModelConfig::na_lstm(dim).without_resources(),
        ModelConfig::raac(dim).without_resources(),
    ] {
        let model = CostModel::new(cfg.clone());
        let pred = model.predict_seconds(&plan, &res);
        assert!(pred.is_finite() && pred >= 0.0, "variant {cfg:?} produced {pred}");
    }
}

#[test]
fn deterministic_construction_per_seed() {
    let dim = 12;
    let a = CostModel::new(ModelConfig::raal(dim));
    let b = CostModel::new(ModelConfig::raal(dim));
    let plan = toy_plan(dim);
    let res = vec![0.7f32; 7];
    assert_eq!(a.predict_seconds(&plan, &res), b.predict_seconds(&plan, &res));
    let c = CostModel::new(ModelConfig { seed: 999, ..ModelConfig::raal(dim) });
    assert_ne!(a.predict_seconds(&plan, &res), c.predict_seconds(&plan, &res));
}
