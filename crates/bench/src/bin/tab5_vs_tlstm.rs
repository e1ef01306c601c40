//! **Tables V and IX** — RAAL vs. TLSTM under *fixed* resources, and the
//! estimation latency of the models Table V trained.
//!
//! The paper installs Spark locally and fixes the resources per query so
//! the relational-database baseline (TLSTM) gets its natural setting; the
//! RAAL resource input is then a constant vector. Expected shape: RAAL
//! still ahead on all four metrics (structure embedding + node-aware
//! attention), but by less than in the varying-resource setting.
//! `orderings.tsv` counts the seeds in which RAAL beats TLSTM on RE and COR.
//!
//! Table IX times how long each cost model takes to estimate 100 of the
//! first seed's plans: that seed's RAAL and TLSTM (both learned,
//! milliseconds for the whole batch) and GPSJ (the analytical model the
//! paper reports at up to 50 ms *per plan*; our from-scratch GPSJ is a
//! simple formula, so we report it as measured and note the difference).
//! Expected shape: learned-model inference is negligible and RAAL ≈ TLSTM.
//! The inference engine's own ratios (tape vs fast path, `PlanContext`
//! reuse over a resource sweep) are `bench_inference`'s, tracked in
//! `BENCH_inference.json`.

use baselines::gpsj::{GpsjModel, GpsjParams};
use baselines::tlstm::{TlstmConfig, TlstmModel};
use bench::{
    collection_config, metrics, section, train_config, Bench, HarnessOpts, Orderings, Rows,
    Workload, METRICS,
};
use encoding::PlanEncoder;
use raal::dataset::{collect, Collection};
use raal::{evaluate, train, train_test_split, CostModel, ModelConfig};
use sparksim::ResourceGrid;

fn main() {
    let opts = HarnessOpts::from_env();
    section("Table V — RAAL vs. TLSTM, fixed resources (IMDB)");
    let values = [&METRICS[..], &["train_s"]].concat();
    let mut table = Rows::new("Table V — RAAL vs. TLSTM", &["model"], &values);
    let mut latency = None;
    for &seed in &opts.seeds {
        let bench = bench::build_bench(Workload::Imdb, opts.full, seed);

        // Fixed resources: a single grid point, no tenancy jitter.
        let mut cfg = collection_config(Workload::Imdb, opts.full, seed);
        cfg.grid = ResourceGrid {
            executors: vec![2],
            cores_per_executor: vec![2],
            memory_gb: vec![4.0],
            throughput_jitter: 0.0,
        };
        cfg.resource_states_per_plan = 1;
        let collection = collect(&bench.engine, &bench.graph, &cfg);
        let (encoder, samples) = bench::encode(&bench, &collection, opts.full, true);
        println!("\n[seed {seed}] records: {}", samples.len());
        let (train_set, test_set) = train_test_split(samples, 0.8, seed);
        let tcfg = train_config(opts.full, seed);

        let mut raal_model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
        let h1 = train(&mut raal_model, &train_set, &tcfg);
        let raal = evaluate(&raal_model, &test_set).summary();

        let mut tlstm_model = TlstmModel::new(TlstmConfig::new(encoder.node_dim()));
        let h2 = train(&mut tlstm_model, &train_set, &tcfg);
        let tlstm = evaluate(&tlstm_model, &test_set).summary();

        table.push(seed, &["TLSTM"], &[&metrics(&tlstm)[..], &[h2.train_seconds]].concat());
        table.push(seed, &["RAAL"], &[&metrics(&raal)[..], &[h1.train_seconds]].concat());
        if seed == opts.seeds[0] {
            latency = Some(tab9(&bench, &collection, &encoder, &raal_model, &tlstm_model, seed));
        }
    }
    table.spread();

    println!();
    let mut orderings = Orderings::default();
    for metric in ["RE", "COR"] {
        let (raal, tlstm) = (table.series(&["RAAL"], metric), table.series(&["TLSTM"], metric));
        orderings.claim("V", "RAAL beats TLSTM", metric, &raal, &tlstm);
    }
    table.write(&opts.out_dir, "tab5_vs_tlstm.tsv");
    if let Some(latency) = latency {
        latency.write(&opts.out_dir, "tab9_inference_latency.tsv");
    }
    orderings.write(&opts.out_dir);

    // Flush counter/histogram summaries so a telemetry-enabled run
    // validates end to end.
    telemetry::shutdown();
}

/// Table IX: the best of five passes of each model over the first 100 of
/// the collection's queries, each priced on its first candidate plan.
fn tab9(
    bench: &Bench,
    collection: &Collection,
    encoder: &PlanEncoder,
    raal: &CostModel,
    tlstm: &TlstmModel,
    seed: u64,
) -> Rows {
    section("Table IX — online estimation time for 100 queries");
    let gpsj = GpsjModel::new(GpsjParams {
        data_scale: bench.engine.simulator().config().data_scale,
    });
    let plans: Vec<_> = collection
        .plan_runs
        .iter()
        .filter(|run| run.plan_idx == 0)
        .take(100)
        .map(|run| (&run.plan, encoder.encode(&run.plan), &run.observations[0].0))
        .collect();
    assert!(plans.len() >= 50, "need enough distinct queries");
    let n = plans.len();
    println!("timing {n} plan estimates per model (best of 5 passes)\n");

    // Telemetry's monotonic clock, so these numbers share the timebase of
    // every span/histogram in the emitted event log.
    let time_it = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = telemetry::clock_ns();
            f();
            best = best.min((telemetry::clock_ns() - t0) as f64 * 1e-6);
        }
        best
    };

    let cluster = bench.engine.simulator().cluster();
    let raal_ms = time_it(&|| {
        for (_, enc, res) in &plans {
            std::hint::black_box(raal.predict_seconds(enc, &res.feature_vector(cluster)));
        }
    });
    let tlstm_ms = time_it(&|| {
        for (_, enc, _) in &plans {
            std::hint::black_box(tlstm.predict_seconds(enc));
        }
    });
    let gpsj_ms = time_it(&|| {
        for (plan, _, res) in &plans {
            std::hint::black_box(gpsj.estimate_seconds(plan, res));
        }
    });

    let values = ["total_ms_100_queries", "per_plan_ms"];
    let mut table =
        Rows::new("Table IX — estimation time", &["model"], &values).cells(|ms| format!("{ms:.5}"));
    for (name, ms) in [("RAAL", raal_ms), ("TLSTM", tlstm_ms), ("GPSJ", gpsj_ms)] {
        table.push(seed, &[name], &[ms, ms / n as f64]);
    }
    println!(
        "\nnote: the paper's GPSJ costs up to 50 ms/plan inside Spark's optimizer; \
         our reimplementation is a bare formula, so its absolute latency is smaller, \
         while the learned models' ~microsecond-scale per-plan cost matches the paper's claim \
         that learned estimation overhead is negligible."
    );
    table
}
