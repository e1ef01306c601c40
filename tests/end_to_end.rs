//! End-to-end integration: the full paper pipeline across all crates —
//! data generation → planning → execution → simulation → collection →
//! encoding → training → prediction → plan selection — plus determinism.

use raal::dataset::{collect, CollectionConfig};
use raal::{CostModel, ModelConfig, TrainConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, ResourceConfig, SimulatorConfig};
use workloads::imdb::{generate, ImdbConfig};

fn small_engine(seed: u64) -> (Engine, workloads::FkGraph) {
    let data = generate(&ImdbConfig { title_rows: 400, seed });
    let scale = data.simulated_scale();
    let graph = data.graph.clone();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    (engine, graph)
}

#[test]
fn full_pipeline_trains_and_predicts() {
    let (engine, graph) = small_engine(17);
    let cfg = CollectionConfig {
        num_queries: 12,
        resource_states_per_plan: 2,
        runs_per_observation: 1,
        threads: 1,
        ..CollectionConfig::default()
    };
    let collection = collect(&engine, &graph, &cfg);
    assert!(collection.num_records() >= 20, "collection too small");

    let encoder = collection.build_encoder(
        &encoding::W2vConfig { dim: 8, epochs: 1 },
        encoding::EncoderConfig::default(),
    );
    let samples = collection.encode(&encoder, &engine);
    let mut model = CostModel::new(ModelConfig {
        hidden: 12,
        latent_k: 8,
        head_hidden: 12,
        ..ModelConfig::raal(encoder.node_dim())
    });
    let history = raal::train(
        &mut model,
        &samples,
        &TrainConfig {
            epochs: 3,
            batch_size: 16,
            threads: 1,
            ..Default::default()
        },
    );
    assert!(history.final_loss().is_finite());

    // Predictions are finite, positive, and resource-sensitive.
    let cluster = engine.simulator().cluster();
    let lo = ResourceConfig {
        executors: 1,
        cores_per_executor: 1,
        memory_per_executor_gb: 1.0,
        network_throughput_mbps: 120.0,
        disk_throughput_mbps: 200.0,
    };
    let hi = ResourceConfig {
        executors: 8,
        cores_per_executor: 2,
        memory_per_executor_gb: 4.0,
        network_throughput_mbps: 120.0,
        disk_throughput_mbps: 200.0,
    };
    let encoded = encoder.encode(&collection.plan_runs[0].plan);
    let p_lo = model.predict_seconds(&encoded, &lo.feature_vector(cluster));
    let p_hi = model.predict_seconds(&encoded, &hi.feature_vector(cluster));
    assert!(p_lo.is_finite() && p_lo >= 0.0);
    assert!(p_hi.is_finite() && p_hi >= 0.0);
    assert_ne!(p_lo, p_hi, "a resource-aware model must react to resources");
}

#[test]
fn candidate_plans_agree_on_results_across_workload() {
    let (engine, graph) = small_engine(23);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let queries = workloads::querygen::generate_queries(
        &graph,
        &workloads::querygen::QueryGenConfig { max_joins: 2 },
        15,
        &mut rng,
    );
    for sql in &queries {
        let plans = engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let first = engine
            .execute_plan(&plans[0])
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        // COUNT(*) is always the query's last output column.
        let reference_rows = first.batch.num_rows();
        for p in &plans[1..] {
            let r = engine.execute_plan(p).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(
                r.batch.num_rows(),
                reference_rows,
                "{sql}\nplans disagree:\n{}",
                p.explain()
            );
        }
    }
}

#[test]
fn simulation_depends_on_resources_not_execution_order() {
    let (engine, _) = small_engine(29);
    let sql = "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id";
    let plans = engine.plan_candidates(sql).unwrap();
    let result = engine.execute_plan(&plans[0]).unwrap();
    let mk = |mem: f64| ResourceConfig {
        executors: 2,
        cores_per_executor: 2,
        memory_per_executor_gb: mem,
        network_throughput_mbps: 120.0,
        disk_throughput_mbps: 200.0,
    };
    let a1 = engine.resimulate(&plans[0], &result, &mk(2.0), 1).seconds;
    let a2 = engine.resimulate(&plans[0], &result, &mk(2.0), 1).seconds;
    assert_eq!(a1, a2, "same seed, same resources -> identical time");
    let b = engine.resimulate(&plans[0], &result, &mk(8.0), 1).seconds;
    assert_ne!(a1, b, "different memory must change the simulated time");
}

#[test]
fn whole_pipeline_is_deterministic_under_seeds() {
    let run = || {
        let (engine, graph) = small_engine(31);
        let cfg = CollectionConfig {
            num_queries: 6,
            resource_states_per_plan: 2,
            runs_per_observation: 1,
            threads: 1,
            ..CollectionConfig::default()
        };
        let collection = collect(&engine, &graph, &cfg);
        let encoder = collection.build_encoder(
            &encoding::W2vConfig { dim: 8, epochs: 1 },
            encoding::EncoderConfig::default(),
        );
        let samples = collection.encode(&encoder, &engine);
        let mut model = CostModel::new(ModelConfig {
            hidden: 8,
            latent_k: 4,
            head_hidden: 8,
            ..ModelConfig::raal(encoder.node_dim())
        });
        let h = raal::train(
            &mut model,
            &samples,
            &TrainConfig {
                epochs: 2,
                batch_size: 16,
                threads: 1,
                ..Default::default()
            },
        );
        (samples.len(), h.final_loss())
    };
    let (n1, l1) = run();
    let (n2, l2) = run();
    assert_eq!(n1, n2);
    assert_eq!(l1, l2);
}
