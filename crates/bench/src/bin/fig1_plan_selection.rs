//! **Fig. 1** — Execution time of 20 queries under the default (rule-based
//! Catalyst) cost model vs. the tuned (RAAL-selected) plans.
//!
//! Trains RAAL on an IMDB-like collection, then for 20 held-out queries
//! compares the simulated time of Catalyst's default plan against the plan
//! RAAL picks for the current resources. The paper's shape: the tuned
//! model reduces the execution time of (nearly) every query. Per seed it
//! prints the 20 queries' totals (each query is in the TSV), and
//! `orderings.tsv` counts the seeds whose tuned total beats the default's.

use bench::{run_pipeline, section, train_config, HarnessOpts, Orderings, Rows, Workload};
use raal::selection::evaluate_selection;
use raal::{CostModel, ModelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparksim::ResourceConfig;
use workloads::querygen::{generate_queries, QueryGenConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    section("Fig. 1 — default vs. RAAL-tuned plan selection (IMDB)");
    let mut table = Rows::new(
        "Fig. 1 — totals over the 20 queries (each query is in the TSV)",
        &["query"],
        &["default_s", "tuned_s", "speedup", "optimal"],
    );
    for &seed in &opts.seeds {
        let bench = bench::build_bench(Workload::Imdb, opts.full, seed);
        let pipeline = run_pipeline(&bench, opts.full, seed, true);
        println!(
            "\n[seed {seed}] collected {} records over {} plans ({} queries skipped)",
            pipeline.samples.len(),
            pipeline.collection.plan_runs.len(),
            pipeline.collection.skipped_queries
        );

        let mut model = CostModel::new(ModelConfig::raal(pipeline.encoder.node_dim()));
        // Plan ranking needs a sharper model than the metric tables: spend
        // extra epochs here.
        let mut tcfg = train_config(opts.full, seed);
        tcfg.epochs = if opts.full { 30 } else { 60 };
        let history = raal::train(&mut model, &pipeline.samples, &tcfg);
        println!(
            "trained RAAL: final loss {:.5} in {:.1}s",
            history.final_loss(),
            history.train_seconds
        );

        // 20 fresh queries (different seed stream than training).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF161);
        let queries =
            generate_queries(&bench.graph, &QueryGenConfig { max_joins: 3 }, 20, &mut rng);
        let res = ResourceConfig::default_for(bench.engine.simulator().cluster());

        let mut total = [0.0f64; 3];
        for (i, sql) in queries.iter().enumerate() {
            let Ok(outcome) =
                evaluate_selection(&bench.engine, &model, &pipeline.encoder, sql, &res, seed)
            else {
                continue;
            };
            let optimal = f64::from(u8::from(outcome.optimal()));
            total[0] += outcome.default_seconds;
            total[1] += outcome.chosen_seconds;
            total[2] += optimal;
            let (default, tuned) = (outcome.default_seconds, outcome.chosen_seconds);
            table.detail(
                seed,
                &[&format!("Q{}", i + 1)],
                &[default, tuned, outcome.speedup(), optimal],
            );
        }
        let speedup = total[0] / total[1].max(1e-9);
        table.push(seed, &["total"], &[total[0], total[1], speedup, total[2]]);
    }
    table.spread();

    println!();
    let mut orderings = Orderings::default();
    let (tuned, default) =
        (table.series(&["total"], "tuned_s"), table.series(&["total"], "default_s"));
    orderings.claim("Fig. 1", "RAAL-tuned plans beat the default", "total_s", &tuned, &default);
    table.write(&opts.out_dir, "fig1_plan_selection.tsv");
    orderings.write(&opts.out_dir);
}
