//! Criterion microbenchmarks for the feature-encoding path: statement
//! tokenization, word2vec training (small corpus) and full plan encoding.

use criterion::{criterion_group, criterion_main, Criterion};
use encoding::tokenizer::{plan_sentences, tokenize_statement};
use encoding::{train_word2vec, EncoderConfig, PlanEncoder, W2vConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, SimulatorConfig};
use std::hint::black_box;
use workloads::imdb::{generate, ImdbConfig};

fn bench_encoding(c: &mut Criterion) {
    let data = generate(&ImdbConfig { title_rows: 500, seed: 9 });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let plan = engine
        .plan_candidates(
            "SELECT COUNT(*) FROM title t, movie_info_idx mi_idx \
             WHERE t.id = mi_idx.movie_id AND t.kind_id < 5",
        )
        .expect("plans")
        .remove(0);
    let statement = plan.statement(0);
    let corpus = plan_sentences(&plan);
    let encoder = PlanEncoder::new(
        train_word2vec(&corpus, &W2vConfig { dim: 32, epochs: 1 }),
        EncoderConfig::default(),
    );

    let mut group = c.benchmark_group("encoding");
    group.bench_function("tokenize_statement", |b| {
        b.iter(|| black_box(tokenize_statement(black_box(&statement)).len()))
    });
    group.bench_function("word2vec_train_small", |b| {
        b.iter(|| {
            black_box(
                train_word2vec(black_box(&corpus), &W2vConfig { dim: 16, epochs: 1 }).vocab_size(),
            )
        })
    });
    group.bench_function("encode_plan", |b| {
        b.iter(|| black_box(encoder.encode(black_box(&plan)).num_nodes()))
    });
    group.finish();
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
