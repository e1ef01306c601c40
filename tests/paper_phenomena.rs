//! Integration tests for the paper's headline phenomena — the qualitative
//! claims each figure/table rests on, checked at tiny scale:
//!
//! * Sec. III: memory affects plan cost non-monotonically, and the optimal
//!   plan can flip with memory;
//! * Table VII: a resource-aware model beats the same model without the
//!   resource pathway on resource-varying data;
//! * Table VI: the analytical GPSJ model trails the learned model;
//! * Table IX: learned inference is sub-millisecond per plan.

use baselines::gpsj::{GpsjModel, GpsjParams};
use raal::dataset::{collect, CollectionConfig};
use raal::train::training_transform;
use raal::{evaluate, train, train_test_split, CostModel, EvalSet, ModelConfig, TrainConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, ResourceConfig, SimulatorConfig};
use workloads::imdb::{generate, paper_section3_queries, ImdbConfig};

fn engine_and_graph(rows: usize, seed: u64) -> (Engine, workloads::FkGraph, f64) {
    let data = generate(&ImdbConfig { title_rows: rows, seed });
    let scale = data.simulated_scale();
    let graph = data.graph.clone();
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
    (engine, graph, scale)
}

#[test]
fn memory_effect_is_nonmonotonic_somewhere() {
    let data = generate(&ImdbConfig { title_rows: 600, seed: 41 });
    let scale = data.simulated_scale();
    let queries = paper_section3_queries(&data);
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
    let mut any_nonmonotone = false;
    for (_, sql) in &queries {
        let plans = engine.plan_candidates(sql).unwrap();
        for plan in &plans {
            let exec = engine.execute_plan(plan).unwrap();
            let times: Vec<f64> = (1..=8)
                .map(|m| {
                    let res = ResourceConfig {
                        executors: 2,
                        cores_per_executor: 2,
                        memory_per_executor_gb: m as f64,
                        network_throughput_mbps: 120.0,
                        disk_throughput_mbps: 200.0,
                    };
                    engine.simulator().simulate(plan, &exec.metrics, &res, 0)
                })
                .collect();
            let increases = times.windows(2).any(|w| w[1] > w[0] + 1e-9);
            let decreases = times.windows(2).any(|w| w[1] < w[0] - 1e-9);
            if increases && decreases {
                any_nonmonotone = true;
            }
        }
    }
    assert!(
        any_nonmonotone,
        "at least one plan must respond non-monotonically to memory (paper Sec. III)"
    );
}

#[test]
fn resource_aware_model_beats_resource_blind() {
    let (engine, graph, _) = engine_and_graph(500, 43);
    let cfg = CollectionConfig {
        num_queries: 30,
        resource_states_per_plan: 3,
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
    let (train_set, test_set) = train_test_split(samples, 0.8, 1);
    let tcfg = TrainConfig {
        epochs: 10,
        batch_size: 16,
        threads: 1,
        ..Default::default()
    };

    let small = |cfg: ModelConfig| ModelConfig { hidden: 16, latent_k: 8, head_hidden: 16, ..cfg };
    let mut aware = CostModel::new(small(ModelConfig::raal(encoder.node_dim())));
    train(&mut aware, &train_set, &tcfg);
    let mut blind =
        CostModel::new(small(ModelConfig::raal(encoder.node_dim()).without_resources()));
    train(&mut blind, &train_set, &tcfg);

    let aware_mse = evaluate(&aware, &test_set).mse_with(training_transform);
    let blind_mse = evaluate(&blind, &test_set).mse_with(training_transform);
    assert!(
        aware_mse < blind_mse,
        "resource-aware MSE {aware_mse} must beat resource-blind {blind_mse} (Table VII)"
    );
}

#[test]
fn learned_model_beats_gpsj() {
    let (engine, graph, scale) = engine_and_graph(500, 47);
    let cfg = CollectionConfig {
        num_queries: 30,
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
    let (train_set, test_set) = train_test_split(samples, 0.8, 1);
    let mut model = CostModel::new(ModelConfig {
        hidden: 16,
        latent_k: 8,
        head_hidden: 16,
        ..ModelConfig::raal(encoder.node_dim())
    });
    train(
        &mut model,
        &train_set,
        &TrainConfig {
            epochs: 12,
            batch_size: 16,
            threads: 1,
            ..Default::default()
        },
    );
    let raal_mse = evaluate(&model, &test_set).mse_with(training_transform);

    let gpsj = GpsjModel::new(GpsjParams { data_scale: scale });
    let mut gpsj_eval = EvalSet::new();
    for run in &collection.plan_runs {
        for (res, seconds) in &run.observations {
            gpsj_eval.push(*seconds, gpsj.estimate_seconds(&run.plan, res));
        }
    }
    let gpsj_mse = gpsj_eval.mse_with(training_transform);
    assert!(raal_mse < gpsj_mse, "RAAL MSE {raal_mse} must beat GPSJ {gpsj_mse} (Table VI)");
}

#[test]
fn inference_is_fast() {
    let (engine, graph, _) = engine_and_graph(400, 53);
    let cfg = CollectionConfig {
        num_queries: 5,
        resource_states_per_plan: 1,
        runs_per_observation: 1,
        threads: 1,
        ..CollectionConfig::default()
    };
    let collection = collect(&engine, &graph, &cfg);
    let encoder = collection.build_encoder(
        &encoding::W2vConfig { dim: 8, epochs: 1 },
        encoding::EncoderConfig::default(),
    );
    let model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    let encoded = encoder.encode(&collection.plan_runs[0].plan);
    let features = vec![0.5f32; 7];
    let t0_ns = telemetry::clock_ns();
    let n = 100;
    for _ in 0..n {
        std::hint::black_box(model.predict_seconds(&encoded, &features));
    }
    let per_plan_ms = (telemetry::clock_ns() - t0_ns) as f64 / 1e6 / n as f64;
    // Generous bound (debug builds are slow): well under Spark's per-query
    // planning budget either way.
    assert!(per_plan_ms < 50.0, "inference {per_plan_ms} ms/plan too slow");
}
