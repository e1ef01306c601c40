//! Plan selection with a trained, checkpointed cost model — the paper's
//! Fig. 1 scenario as an application.
//!
//! Trains RAAL on an IMDB-like workload, saves the model bundle to disk,
//! reloads it (as a query optimizer would at startup), and uses it to pick
//! execution plans for fresh queries under the currently allocated
//! resources.
//!
//! Run with: `cargo run --release --example plan_selection`

use raal::dataset::{collect, CollectionConfig};
use raal::selection::evaluate_selection;
use raal::{CostModel, ModelBundle, ModelConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, ResourceConfig, SimulatorConfig};
use workloads::imdb::{generate, ImdbConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

fn main() {
    let data = generate(&ImdbConfig { title_rows: 1000, seed: 21 });
    let scale = data.simulated_scale();
    let graph = data.graph.clone();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );

    // Train.
    let collection = collect(
        &engine,
        &graph,
        &CollectionConfig { num_queries: 60, ..CollectionConfig::default() },
    );
    let encoder = collection
        .build_encoder(&encoding::W2vConfig::default(), encoding::EncoderConfig::default());
    let samples = collection.encode(&encoder, &engine);
    let mut model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    raal::train(&mut model, &samples, &TrainConfig { epochs: 20, ..TrainConfig::default() });

    // Checkpoint and reload, as a long-running optimizer process would.
    let path = std::env::temp_dir().join("raal_example_bundle.json");
    ModelBundle::new(model, &encoder).save(&path).expect("save bundle");
    let bundle = ModelBundle::load(&path).expect("load bundle");
    let encoder = bundle.encoder();
    println!("checkpoint round-tripped through {}", path.display());

    // Select plans for fresh queries under two different resource states.
    let mut rng = StdRng::seed_from_u64(99);
    let queries = generate_queries(&graph, &QueryGenConfig { max_joins: 2 }, 6, &mut rng);
    for res in [
        ResourceConfig {
            executors: 2,
            cores_per_executor: 2,
            memory_per_executor_gb: 2.0,
            network_throughput_mbps: 120.0,
            disk_throughput_mbps: 200.0,
        },
        ResourceConfig {
            executors: 6,
            cores_per_executor: 2,
            memory_per_executor_gb: 6.0,
            network_throughput_mbps: 120.0,
            disk_throughput_mbps: 200.0,
        },
    ] {
        println!(
            "\n--- resources: {} executors x {} cores x {} GB ---",
            res.executors, res.cores_per_executor, res.memory_per_executor_gb
        );
        for (i, sql) in queries.iter().enumerate() {
            match evaluate_selection(&engine, &bundle.model, &encoder, sql, &res, 7) {
                Ok(outcome) => println!(
                    "Q{}: default {:.2}s -> selected {:.2}s ({}, {:.2}x)",
                    i + 1,
                    outcome.default_seconds,
                    outcome.chosen_seconds,
                    if outcome.optimal() {
                        "optimal"
                    } else {
                        "suboptimal"
                    },
                    outcome.speedup()
                ),
                Err(e) => println!("Q{}: skipped ({e})", i + 1),
            }
        }
    }
}
