//! Quickstart: the full RAAL pipeline in one file.
//!
//! 1. generate a small IMDB-like dataset,
//! 2. plan a query (several candidate physical plans),
//! 3. execute it and simulate its time under chosen resources,
//! 4. collect a small training set, train RAAL,
//! 5. predict the cost of each candidate plan.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Set `RAAL_TELEMETRY=1` (or `=path.jsonl`) to stream a structured
//! event log of the whole pipeline, and `RAAL_METRICS_OUT=metrics.prom`
//! for a Prometheus snapshot at exit — see README "Observability".

use raal::dataset::{collect, CollectionConfig};
use raal::{CostModel, ModelConfig, TrainConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, ResourceConfig, SimulatorConfig};
use workloads::imdb::{generate, ImdbConfig};

fn main() {
    telemetry::init_from_env();
    telemetry::manifest(&[("example", telemetry::Value::Str("quickstart".into()))]);
    // --- 1. Data: a scaled-down IMDB standing in for the paper's 7.2 GB.
    let data = generate(&ImdbConfig { title_rows: 800, seed: 7 });
    let scale = data.simulated_scale();
    println!(
        "generated {} tables, {:.1} MB in memory, simulating a {:.0} GB deployment",
        data.catalog.len(),
        data.catalog.total_bytes() as f64 / 1e6,
        data.catalog.total_bytes() as f64 * scale / 1e9
    );
    let graph = data.graph.clone();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );

    // --- 2. Plan a query: Catalyst-style candidate enumeration.
    let sql = "SELECT COUNT(*) FROM title t, movie_keyword mk \
               WHERE t.id = mk.movie_id AND t.production_year > 1990";
    let plans = engine.plan_candidates(sql).expect("valid query");
    println!("\nquery: {sql}");
    println!("{} candidate plans; default plan:", plans.len());
    print!("{}", plans[0].explain());

    // --- 3. Execute + simulate under resources.
    let resources = ResourceConfig::default_for(engine.simulator().cluster());
    for (i, plan) in plans.iter().enumerate() {
        let run = engine.observe(plan, &resources, 42).expect("runs");
        println!(
            "plan {} -> result {:?}, simulated {:.2}s",
            i,
            run.result.scalar_i64(),
            run.seconds()
        );
    }

    // --- 4. Collect a training set and train RAAL.
    let cfg = CollectionConfig {
        num_queries: 25,
        resource_states_per_plan: 2,
        runs_per_observation: 1,
        ..CollectionConfig::default()
    };
    let collection = collect(&engine, &graph, &cfg);
    let encoder = collection.build_encoder(
        &encoding::W2vConfig { dim: 16, epochs: 2 },
        encoding::EncoderConfig::default(),
    );
    let samples = collection.encode(&encoder, &engine);
    println!("\ncollected {} training records", samples.len());
    let mut model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    let history =
        raal::train(&mut model, &samples, &TrainConfig { epochs: 8, ..TrainConfig::default() });
    println!(
        "trained RAAL ({} weights) in {:.1}s, final loss {:.4}",
        model.num_weights(),
        history.train_seconds,
        history.final_loss()
    );

    // --- 5. Score the candidate plans with the learned model.
    let features = resources.feature_vector(engine.simulator().cluster());
    println!("\nmodel predictions under 2 executors x 2 cores x 4 GB:");
    for (i, plan) in plans.iter().enumerate() {
        let pred = model.predict_seconds(&encoder.encode(plan), &features);
        println!("  plan {i}: predicted {pred:.2}s");
    }

    // Flush counters/histograms and the Prometheus snapshot, if enabled.
    telemetry::shutdown();
}
