//! **Fig. 1** — Execution time of 20 queries under the default (rule-based
//! Catalyst) cost model vs. the tuned (RAAL-selected) plans.
//!
//! Trains RAAL on an IMDB-like collection, then for 20 held-out queries
//! compares the simulated time of Catalyst's default plan against the plan
//! RAAL picks for the current resources. The paper's shape: the tuned
//! model reduces the execution time of (nearly) every query.

use bench::{
    build_model, fmt, run_pipeline, section, train_config, write_tsv, HarnessOpts, Workload,
};
use raal::selection::evaluate_selection;
use raal::ModelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparksim::ResourceConfig;
use workloads::querygen::{generate_queries, QueryGenConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    section("Fig. 1 — default vs. RAAL-tuned plan selection (IMDB)");
    let bench = bench::build_bench(Workload::Imdb, opts.full, opts.seed);
    let pipeline = run_pipeline(&bench, opts.full, opts.seed, true);
    println!(
        "collected {} records over {} plans ({} queries skipped)",
        pipeline.samples.len(),
        pipeline.collection.plan_runs.len(),
        pipeline.collection.skipped_queries
    );

    let mut model = build_model(ModelConfig::raal(pipeline.encoder.node_dim()));
    // Plan ranking needs a sharper model than the metric tables: spend
    // extra epochs here.
    let mut tcfg = train_config(opts.full, opts.seed);
    tcfg.epochs = if opts.full { 30 } else { 60 };
    let history = raal::train(&mut model, &pipeline.samples, &tcfg);
    println!(
        "trained RAAL: final loss {:.5} in {:.1}s",
        history.final_loss(),
        history.train_seconds
    );

    // 20 fresh queries (different seed stream than training).
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xF161);
    let queries = generate_queries(&bench.graph, &QueryGenConfig { max_joins: 3 }, 20, &mut rng);
    let res = ResourceConfig::default_for(bench.engine.simulator().cluster());

    println!(
        "\n{:>5} {:>12} {:>12} {:>9} {:>8}",
        "query", "default(s)", "tuned(s)", "speedup", "optimal"
    );
    let mut rows = Vec::new();
    let mut total_default = 0.0;
    let mut total_tuned = 0.0;
    let mut wins = 0usize;
    for (i, sql) in queries.iter().enumerate() {
        let Ok(outcome) =
            evaluate_selection(&bench.engine, &model, &pipeline.encoder, sql, &res, opts.seed)
        else {
            continue;
        };
        total_default += outcome.default_seconds;
        total_tuned += outcome.chosen_seconds;
        if outcome.chosen_seconds <= outcome.default_seconds {
            wins += 1;
        }
        println!(
            "{:>5} {:>12} {:>12} {:>9} {:>8}",
            format!("Q{}", i + 1),
            fmt(outcome.default_seconds),
            fmt(outcome.chosen_seconds),
            format!("{:.2}x", outcome.speedup()),
            if outcome.optimal() { "yes" } else { "no" }
        );
        rows.push(vec![
            format!("Q{}", i + 1),
            fmt(outcome.default_seconds),
            fmt(outcome.chosen_seconds),
            format!("{:.4}", outcome.speedup()),
            outcome.optimal().to_string(),
        ]);
    }
    println!(
        "\ntotal: default {}s, tuned {}s ({:.2}x overall; tuned <= default on {}/{} queries)",
        fmt(total_default),
        fmt(total_tuned),
        total_default / total_tuned.max(1e-9),
        wins,
        rows.len()
    );
    write_tsv(
        &opts.out_dir,
        "fig1_plan_selection.tsv",
        &["query", "default_s", "tuned_s", "speedup", "optimal"],
        &rows,
    );
}
