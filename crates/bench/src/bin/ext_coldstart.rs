//! **Extension (paper Sec. VI, future work)** — cold-start across
//! datasets.
//!
//! The paper's conclusion names cold-start query optimization on newly
//! loaded datasets as the open problem. This harness quantifies it:
//! train RAAL on the IMDB-like workload, then
//!   (a) evaluate zero-shot on TPC-H (unknown tables, unseen vocabulary),
//!   (b) fine-tune on a small TPC-H sample and re-evaluate,
//!   (c) compare with training on TPC-H from scratch.

use bench::{
    collection_config, metrics, section, train_config, w2v_config, HarnessOpts, Rows, Workload,
    METRICS,
};
use encoding::tokenizer::plan_sentences;
use encoding::EncoderConfig;
use raal::dataset::collect;
use raal::{evaluate, train, train_test_split, CostModel, ModelConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    let seed = opts.seeds[0];
    section("Extension — cold-start: IMDB-trained model on TPC-H");

    let imdb = bench::build_bench(Workload::Imdb, opts.full, seed);
    let tpch = bench::build_bench(Workload::Tpch, opts.full, seed);

    // Shared encoder trained on the *union* corpus so the vocabulary can
    // at least represent TPC-H statements (cold-start on plan text alone).
    let imdb_coll =
        collect(&imdb.engine, &imdb.graph, &collection_config(Workload::Imdb, opts.full, seed));
    let tpch_coll =
        collect(&tpch.engine, &tpch.graph, &collection_config(Workload::Tpch, opts.full, seed));
    let mut corpus = Vec::new();
    for run in imdb_coll.plan_runs.iter().chain(&tpch_coll.plan_runs) {
        corpus.extend(plan_sentences(&run.plan));
    }
    let encoder = encoding::PlanEncoder::new(
        encoding::train_word2vec(&corpus, &w2v_config(opts.full)),
        EncoderConfig::default(),
    );
    let imdb_samples = imdb_coll.encode(&encoder, &imdb.engine);
    let tpch_samples = tpch_coll.encode(&encoder, &tpch.engine);
    println!("records: IMDB {}, TPC-H {}", imdb_samples.len(), tpch_samples.len());
    let (tpch_train, tpch_test) = train_test_split(tpch_samples, 0.8, seed);
    let mut tcfg = train_config(opts.full, seed);
    if !opts.full {
        tcfg.epochs = 22; // three trainings in this harness
    }

    // (a) zero-shot.
    let mut model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    train(&mut model, &imdb_samples, &tcfg);
    let zero_shot = evaluate(&model, &tpch_test).summary();

    // (b) fine-tune on 10% of the TPC-H training split.
    let few = &tpch_train[..(tpch_train.len() / 10).max(1)];
    let mut ft_cfg = tcfg.clone();
    ft_cfg.epochs = (tcfg.epochs / 2).max(1);
    ft_cfg.lr = tcfg.lr * 0.3;
    train(&mut model, few, &ft_cfg);
    let fine_tuned = evaluate(&model, &tpch_test).summary();

    // (c) native TPC-H model.
    let mut native = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    train(&mut native, &tpch_train, &tcfg);
    let from_scratch = evaluate(&native, &tpch_test).summary();

    let mut table = Rows::new("cold start (TPC-H test split)", &["setting"], &METRICS);
    for (name, s) in [
        ("zero-shot (IMDB only)", zero_shot),
        ("fine-tuned (10% TPC-H)", fine_tuned),
        ("trained on TPC-H", from_scratch),
    ] {
        table.push(seed, &[name], &metrics(&s));
    }
    println!(
        "\nexpected shape: zero-shot trails badly; a small fine-tuning set \
         recovers most of the native model's accuracy — motivating the \
         paper's future-work direction."
    );
    table.write(&opts.out_dir, "ext_coldstart.tsv");
}
