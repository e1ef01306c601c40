//! Criterion microbenchmarks for Table IX: per-plan cost-estimation
//! latency of RAAL, TLSTM and GPSJ.

use baselines::gpsj::{GpsjModel, GpsjParams};
use baselines::tlstm::{TlstmConfig, TlstmModel};
use criterion::{criterion_group, criterion_main, Criterion};
use raal::{CostModel, ModelConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, ResourceConfig, SimulatorConfig};
use std::hint::black_box;
use workloads::imdb::{generate, ImdbConfig};

struct Setup {
    raal: CostModel,
    tlstm: TlstmModel,
    gpsj: GpsjModel,
    plan: sparksim::PhysicalPlan,
    encoded: encoding::EncodedPlan,
    features: Vec<f32>,
    resources: ResourceConfig,
}

fn setup() -> Setup {
    let data = generate(&ImdbConfig { title_rows: 500, seed: 9 });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let plans = engine
        .plan_candidates(
            "SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk \
             WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND mk.keyword_id < 10",
        )
        .expect("plans");
    let plan = plans[0].clone();
    let corpus = encoding::tokenizer::plan_sentences(&plan);
    let encoder = encoding::PlanEncoder::new(
        encoding::train_word2vec(&corpus, &encoding::W2vConfig { dim: 32, epochs: 1 }),
        encoding::EncoderConfig::default(),
    );
    let encoded = encoder.encode(&plan);
    let resources = ResourceConfig::default_for(engine.simulator().cluster());
    let features = resources.feature_vector(engine.simulator().cluster());
    Setup {
        raal: CostModel::new(ModelConfig::raal(encoder.node_dim())),
        tlstm: TlstmModel::new(TlstmConfig::new(encoder.node_dim())),
        gpsj: GpsjModel::new(GpsjParams { data_scale: scale }),
        plan,
        encoded,
        features,
        resources,
    }
}

fn bench_inference(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("inference_per_plan");
    group.bench_function("raal_predict", |b| {
        b.iter(|| black_box(s.raal.predict_seconds(black_box(&s.encoded), &s.features)))
    });
    group.bench_function("raal_predict_tape", |b| {
        b.iter(|| black_box(s.raal.predict_seconds_tape(black_box(&s.encoded), &s.features)))
    });
    group.bench_function("raal_predict_cached_context", |b| {
        let ctx = s.raal.plan_context(&s.encoded);
        b.iter(|| black_box(s.raal.predict_with_context(black_box(&ctx), &s.features)))
    });
    group.bench_function("tlstm_predict", |b| {
        b.iter(|| black_box(s.tlstm.predict_seconds(black_box(&s.encoded))))
    });
    group.bench_function("gpsj_estimate", |b| {
        b.iter(|| black_box(s.gpsj.estimate_seconds(black_box(&s.plan), &s.resources)))
    });
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
