//! The hot-path guarantee, panic half: a served call does not panic.
//! (`hotpath_alloc.rs` is the other half.)
//!
//! Every candidate plan of 300 `workloads::querygen` queries over a
//! small IMDB catalog goes through `ShardedServing::predict` and
//! `predict_many` under three resource states, so both routes meet
//! misses, second sightings and cache hits. A panic anywhere in pricing
//! is contained and answered `WorkerLost` for good
//! (`serving_shard.rs::a_pricing_panic_is_met_once_and_sticks` is the
//! negative control), so every answer coming from the model means no
//! call panicked.

mod common;

use raal::serving::PredictionSource;
use rand::SeedableRng;
use sparksim::{ClusterConfig, Engine, PhysicalPlan, ResourceConfig};
use workloads::imdb::{generate, ImdbConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

const QUERIES: usize = 300;

/// Each query's candidate plans, query by query.
fn candidate_sets() -> Vec<Vec<PhysicalPlan>> {
    let data = generate(&ImdbConfig { title_rows: 1000, seed: 7 });
    let engine = Engine::new(data.catalog);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    generate_queries(&data.graph, &QueryGenConfig::default(), QUERIES, &mut rng)
        .iter()
        .map(|sql| engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}")))
        .collect()
}

#[test]
fn every_served_candidate_is_priced_by_the_model() {
    let sets = candidate_sets();
    let plans: usize = sets.iter().map(Vec::len).sum();
    let cluster = ClusterConfig::default();
    let states: Vec<ResourceConfig> = [1, 4, 16]
        .into_iter()
        .map(|executors| ResourceConfig { executors, ..ResourceConfig::default_for(&cluster) })
        .collect();
    let service = common::tiny_service();

    let mut sources = Vec::new();
    for res in &states {
        for set in &sets {
            sources.extend(set.iter().map(|plan| service.predict("witness", plan, res).source));
            let refs: Vec<&PhysicalPlan> = set.iter().collect();
            sources.extend(service.predict_many("witness", &refs, res).iter().map(|a| a.source));
        }
    }

    assert_eq!(sources.len(), 2 * states.len() * plans);
    let off_model: Vec<_> = sources.iter().filter(|s| **s != PredictionSource::Model).collect();
    assert!(
        off_model.is_empty(),
        "{} of {} answers off the model, first {:?}",
        off_model.len(),
        sources.len(),
        off_model[0]
    );
    eprintln!("{} answers over {plans} candidates of {QUERIES} queries", sources.len());
}
