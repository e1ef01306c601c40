//! **Table VI** — RAAL vs. GPSJ (the hand-crafted analytical Spark SQL
//! cost model).
//!
//! GPSJ is not trained: it estimates from optimizer statistics and cluster
//! parameters, so it is evaluated over every collected record, while RAAL
//! trains on 80% and is evaluated on the held-out 20%. Expected shape:
//! GPSJ's errors are far larger (over-reliance on statistics; rigid
//! hand-built formulas), matching the paper's Sec. V-B(3).
//!
//! A CLEO-style per-operator micro-model (related work) is included as a
//! third row: learned calibration without plan structure — it should land
//! between GPSJ and RAAL.

use baselines::gpsj::{GpsjModel, GpsjParams};
use baselines::micro::MicroModel;
use bench::{
    build_model, fmt, run_pipeline, section, train_config, write_tsv, HarnessOpts, Workload,
};
use raal::train::training_transform;
use raal::{evaluate, train, train_test_split, EvalSet, ModelConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    section("Table VI — RAAL vs. GPSJ (IMDB)");
    let bench = bench::build_bench(Workload::Imdb, opts.full, opts.seed);
    let pipeline = run_pipeline(&bench, opts.full, opts.seed, true);
    println!("records: {}", pipeline.samples.len());

    // RAAL: train/test split.
    let (train_set, test_set) = train_test_split(pipeline.samples.clone(), 0.8, opts.seed);
    let mut model = build_model(ModelConfig::raal(pipeline.encoder.node_dim()));
    train(&mut model, &train_set, &train_config(opts.full, opts.seed));
    let raal_summary = evaluate(&model, &test_set).summary(training_transform);

    // GPSJ: analytical, evaluated on every observation.
    let gpsj = GpsjModel::new(GpsjParams {
        data_scale: bench.engine.simulator().config().data_scale,
    });
    let mut gpsj_set = EvalSet::new();
    for run in &pipeline.collection.plan_runs {
        for (res, seconds) in &run.observations {
            gpsj_set.push(*seconds, gpsj.estimate_seconds(&run.plan, res));
        }
    }
    let gpsj_summary = gpsj_set.summary(training_transform);

    // Micro-model: fit on the first 80% of queries, evaluate on the rest
    // (a per-record split would leak plans between train and test).
    let cluster = bench.engine.simulator().cluster();
    let cut_query = {
        let max_q = pipeline
            .collection
            .plan_runs
            .iter()
            .map(|r| r.query_idx)
            .max()
            .unwrap_or(0);
        max_q * 4 / 5
    };
    let train_records = pipeline
        .collection
        .plan_runs
        .iter()
        .filter(|r| r.query_idx < cut_query);
    let micro = MicroModel::fit(
        train_records.flat_map(|r| r.observations.iter().map(move |(res, s)| (&r.plan, res, *s))),
        cluster,
        baselines::micro::DEFAULT_RIDGE,
    );
    let mut micro_set = EvalSet::new();
    for run in pipeline
        .collection
        .plan_runs
        .iter()
        .filter(|r| r.query_idx >= cut_query)
    {
        for (res, seconds) in &run.observations {
            micro_set.push(*seconds, micro.predict_seconds(&run.plan, res, cluster));
        }
    }
    let micro_summary = micro_set.summary(training_transform);

    println!("\n{:>8} {:>9} {:>9} {:>9} {:>9}", "model", "RE", "MSE", "COR", "R2");
    let mut rows = Vec::new();
    for (name, s) in [("GPSJ", gpsj_summary), ("MICRO", micro_summary), ("RAAL", raal_summary)] {
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>9}",
            name,
            fmt(s.re),
            fmt(s.mse),
            fmt(s.cor),
            fmt(s.r2)
        );
        rows.push(vec![name.to_string(), fmt(s.re), fmt(s.mse), fmt(s.cor), fmt(s.r2)]);
    }
    write_tsv(&opts.out_dir, "tab6_vs_gpsj.tsv", &["model", "RE", "MSE", "COR", "R2"], &rows);
}
