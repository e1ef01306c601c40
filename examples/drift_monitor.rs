//! Drift monitor: a cost model goes stale as the data grows under it,
//! and the quality monitor catches that live — plus how degraded-mode
//! serving keeps answering when the model itself fails.
//!
//! 1. generate a small IMDB-like dataset and train RAAL on observations
//!    of it (the usual training regime);
//! 2. corrupt a checkpoint on purpose and serve through
//!    [`raal::serving::ServingModel`]: predictions degrade to the GPSJ
//!    analytical baseline instead of panicking;
//! 3. feed the model's predictions and the simulator's ground truth into
//!    [`telemetry::QualityMonitor`]: the Page-Hinkley detector stays
//!    silent on healthy traffic and raises `drift.alarm` once the data
//!    grows under the model (a simulator at `GROWTH` x the trained scale).
//!
//! Run with: `cargo run --release --example drift_monitor`

use baselines::gpsj::{GpsjModel, GpsjParams};
use raal::dataset::{collect, CollectionConfig};
use raal::persist::ModelBundle;
use raal::serving::{PredictionSource, ServingConfig, ServingModel};
use raal::{CostModel, ModelConfig, TrainConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, CostSimulator, Engine, ResourceConfig, SimulatorConfig};
use workloads::imdb::{generate, ImdbConfig};

/// Data growth of the drift phase: the smallest of {2, 3, 4} whose
/// ground truth trips the alarm.
const GROWTH: f64 = 2.0;

fn main() {
    telemetry::init_from_env();
    telemetry::manifest(&[("example", telemetry::Value::Str("drift_monitor".into()))]);

    // --- 1. Data + a model trained on a healthy cluster.
    let data = generate(&ImdbConfig { title_rows: 800, seed: 7 });
    let scale = data.simulated_scale();
    let graph = data.graph.clone();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let sql = "SELECT COUNT(*) FROM title t, movie_keyword mk \
               WHERE t.id = mk.movie_id AND t.production_year > 1990";
    let plans = engine.plan_candidates(sql).expect("valid query");
    let plan = &plans[0];
    let exec = engine.execute_plan(plan).expect("runs");
    let resources = ResourceConfig::default_for(engine.simulator().cluster());

    let cfg = CollectionConfig {
        num_queries: 20,
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
    let mut model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    let history =
        raal::train(&mut model, &samples, &TrainConfig { epochs: 8, ..TrainConfig::default() });
    println!(
        "trained RAAL on {} records ({:.1}s, final loss {:.4})",
        samples.len(),
        history.train_seconds,
        history.final_loss()
    );

    let features = resources.feature_vector(engine.simulator().cluster());
    let predicted = model.predict_seconds(&encoder.encode(plan), &features);
    println!("\nquery: {sql}");
    println!("model prediction: {predicted:.2}s");

    // --- 2. Degraded-mode serving: a corrupt checkpoint falls back to GPSJ.
    let dir = std::env::temp_dir().join("raal_drift_monitor");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("model.json");
    ModelBundle::new(model, &encoder).save(&good).expect("save");
    let corrupt = dir.join("corrupt.json");
    std::fs::write(&corrupt, "{\"model\": \"bit rot\"}").expect("write");

    let gpsj = GpsjModel::new(GpsjParams { data_scale: scale });
    println!("\nserving through ServingModel (GPSJ analytical fallback):");
    for (label, path) in [("intact checkpoint", &good), ("corrupt checkpoint", &corrupt)] {
        let mut serving =
            ServingModel::from_checkpoint(path, Box::new(gpsj.clone()), ServingConfig::default());
        let pred = serving.predict(plan, &resources);
        let source = match pred.source {
            PredictionSource::Model => "deep model",
            PredictionSource::Fallback(reason) => match reason {
                raal::serving::FallbackReason::Checkpoint => "GPSJ (checkpoint invalid)",
                _ => "GPSJ (other)",
            },
        };
        println!("  {label:<18} -> {:.2}s via {source}", pred.seconds);
    }

    // --- 3. Online drift monitoring: data growth, caught live.
    // The monitor sees (predicted, observed) pairs exactly as a serving
    // deployment would; the simulator supplies the ground truth.
    println!("\nonline prediction-quality monitor (Page-Hinkley on q-error):");
    let mut monitor = telemetry::QualityMonitor::new();
    let class = "agg_join";
    for seed in 0..40u64 {
        let observed = engine.resimulate(plan, &exec, &resources, seed).seconds;
        if let Some(alarm) = monitor.record(class, predicted, observed) {
            println!("  unexpected alarm on healthy traffic: {alarm:?}");
        }
    }
    let healthy = monitor.stats(class).expect("stats after healthy phase");
    println!(
        "  healthy phase:  {} samples, MAE {:.3}s, mean q-error {:.3}, drifted: {}",
        healthy.samples, healthy.mae, healthy.q_error_mean, healthy.drifted
    );
    assert!(!healthy.drifted, "monitor must stay silent on stationary traffic");

    let grown = CostSimulator::new(
        engine.simulator().cluster().clone(),
        SimulatorConfig {
            data_scale: GROWTH * scale,
            ..engine.simulator().config().clone()
        },
    );
    let mut alarm_at = None;
    for seed in 40..120u64 {
        let observed = grown.simulate(plan, &exec.metrics, &resources, seed);
        if let Some(alarm) = monitor.record(class, predicted, observed) {
            println!(
                "  drift.alarm:    sample {} of class '{}', q-error {:.2}, PH statistic {:.2}",
                alarm.samples, alarm.class, alarm.q_error, alarm.ph_statistic
            );
            alarm_at = Some(alarm.samples);
            break;
        }
    }
    let drifted = monitor.stats(class).expect("stats after growth phase");
    println!(
        "  growth phase:   MAE {:.3}s, mean q-error {:.3}, drifted: {}",
        drifted.mae, drifted.q_error_mean, drifted.drifted
    );
    assert!(
        alarm_at.is_some() && drifted.drifted,
        "{GROWTH}x data growth must trip the drift detector"
    );
    println!(
        "  the model drifted within {} observations of the data growing {GROWTH}x \
         — the alarm is in the JSONL log and the monitor.drift.{class} gauge \
         (see RAAL_METRICS_OUT).",
        alarm_at.unwrap_or(0) - healthy.samples
    );

    telemetry::shutdown();
}
