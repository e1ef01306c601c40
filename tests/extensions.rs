//! Integration test for the micro-model baseline on the `querygen`
//! workload every table and figure draws from.

use baselines::micro::MicroModel;
use raal::dataset::{collect_queries, CollectionConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, SimulatorConfig};
use workloads::imdb::{generate, ImdbConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

#[test]
fn micro_model_beats_gpsj_but_not_by_structure() {
    use baselines::gpsj::{GpsjModel, GpsjParams};
    use raal::train::training_transform;
    use raal::EvalSet;

    let data = generate(&ImdbConfig { title_rows: 400, seed: 61 });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig {
            data_scale: scale,
            noise_sigma: 0.0,
            ..SimulatorConfig::default()
        },
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let queries = generate_queries(&data.graph, &QueryGenConfig::default(), 36, &mut rng);
    let cfg = CollectionConfig {
        resource_states_per_plan: 2,
        runs_per_observation: 1,
        threads: 1,
        ..CollectionConfig::default()
    };
    let collection = collect_queries(&engine, &queries, &cfg);
    let cluster = engine.simulator().cluster();

    // Fit micro on the first 2/3 of queries, evaluate both models on the rest.
    let cut = queries.len() * 2 / 3;
    let micro = MicroModel::fit(
        collection
            .plan_runs
            .iter()
            .filter(|r| r.query_idx < cut)
            .flat_map(|r| r.observations.iter().map(move |(res, s)| (&r.plan, res, *s))),
        cluster,
        baselines::micro::DEFAULT_RIDGE,
    );
    let gpsj = GpsjModel::new(GpsjParams { data_scale: scale });
    let mut micro_eval = EvalSet::new();
    let mut gpsj_eval = EvalSet::new();
    for run in collection.plan_runs.iter().filter(|r| r.query_idx >= cut) {
        for (res, s) in &run.observations {
            micro_eval.push(*s, micro.predict_seconds(&run.plan, res, cluster));
            gpsj_eval.push(*s, gpsj.estimate_seconds(&run.plan, res));
        }
    }
    let micro_mse = micro_eval.mse_with(training_transform);
    let gpsj_mse = gpsj_eval.mse_with(training_transform);
    assert!(
        micro_mse < gpsj_mse,
        "learned calibration must beat hand-tuned formulas: {micro_mse} vs {gpsj_mse}"
    );
}
