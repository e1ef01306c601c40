//! Tier-1 smoke for the serving path: train → bundle → serve. The
//! service must answer from the model with exactly the bits
//! `CostModel::predict_seconds` of the source model produces for the
//! same encoded plans, the single-caller `ServingModel` façade must
//! agree with it, and a repeated plan (the plan-context cache's route)
//! must not change a bit.

use raal::dataset::{collect, CollectionConfig};
use raal::serving::{PredictionSource, ServingConfig, ServingModel};
use raal::{CostModel, ModelBundle, ModelConfig, ShardConfig, ShardedServing, TrainConfig};
use sparksim::plan::physical::PhysicalPlan;
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, ResourceConfig, SimulatorConfig};
use std::sync::Arc;
use std::time::Duration;
use workloads::imdb::{generate, ImdbConfig};

#[test]
fn served_predictions_are_the_frozen_models_bits() {
    // The tiny pipeline of `tests/end_to_end.rs`.
    let data = generate(&ImdbConfig { title_rows: 400, seed: 17 });
    let scale = data.simulated_scale();
    let graph = data.graph.clone();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let collection = collect(
        &engine,
        &graph,
        &CollectionConfig {
            num_queries: 12,
            resource_states_per_plan: 2,
            runs_per_observation: 1,
            threads: 1,
            ..CollectionConfig::default()
        },
    );
    let encoder = collection.build_encoder(
        &encoding::W2vConfig { dim: 8, epochs: 1, ..Default::default() },
        encoding::EncoderConfig::default(),
    );
    let samples = collection.encode(&encoder, &engine);
    let mut model = CostModel::new(ModelConfig {
        hidden: 12,
        latent_k: 8,
        head_hidden: 12,
        ..ModelConfig::raal(encoder.node_dim())
    });
    raal::train(
        &mut model,
        &samples,
        &TrainConfig {
            epochs: 3,
            batch_size: 16,
            threads: 1,
            ..Default::default()
        },
    );

    let cluster = engine.simulator().cluster().clone();
    let res = ResourceConfig::default_for(&cluster);
    let plans: Vec<&PhysicalPlan> = collection.plan_runs.iter().take(5).map(|r| &r.plan).collect();
    assert!(plans.len() >= 2, "collection too small");

    // Reference: the same plans, encoded the same way, straight through
    // the trained model, one at a time.
    let encoded: Vec<_> = plans.iter().map(|p| encoder.encode(p)).collect();
    let features = res.feature_vector(&cluster);
    let expected: Vec<f64> = encoded.iter().map(|e| model.predict_seconds(e, &features)).collect();
    // And the first plan under a second resource state, for the
    // repeat-plan case below.
    let scaled = ResourceConfig { executors: res.executors + 1, ..res.clone() };
    let expected_scaled = model.predict_seconds(&encoded[0], &scaled.feature_vector(&cluster));

    let serving = ServingConfig {
        deadline: Duration::from_secs(30),
        cluster,
        ..ServingConfig::default()
    };
    let fallback = |plan: &PhysicalPlan, _: &ResourceConfig| plan.len() as f64;

    let service = ShardedServing::new(
        ModelBundle::new(model.clone(), &encoder),
        Arc::new(fallback),
        ShardConfig { serving: serving.clone(), ..ShardConfig::default() },
    );
    let served = service.predict_many("smoke", &plans, &res);
    let mut facade =
        ServingModel::new(ModelBundle::new(model, &encoder), Box::new(fallback), serving);
    let through_facade = facade.predict_many(&plans, &res);

    for answers in [&served, &through_facade] {
        assert_eq!(answers.len(), expected.len());
        for (got, want) in answers.iter().zip(&expected) {
            assert_eq!(got.source, PredictionSource::Model);
            assert_eq!(got.seconds.to_bits(), want.to_bits());
        }
    }
    assert_eq!(service.slo_stats().model, plans.len() as u64);

    // The same plan again, under resources the service has not seen:
    // from its third sighting on it is priced from the cached
    // context, and must still be `predict_seconds`'s bits.
    for sighting in 2..=4 {
        let got = service.predict("smoke", plans[0], &scaled);
        assert_eq!(got.source, PredictionSource::Model, "sighting {sighting}");
        assert_eq!(got.seconds.to_bits(), expected_scaled.to_bits(), "sighting {sighting}");
    }
    assert_eq!(facade.predict(plans[0], &res).seconds.to_bits(), expected[0].to_bits());
}
