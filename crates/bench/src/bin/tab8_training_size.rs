//! **Table VIII** — training time and test error vs. training-set size.
//!
//! Trains RAAL on nested subsets of the collection (10k–50k records at
//! `--full`, 1/5 of that by default) and reports wall-clock training time
//! and held-out relative error. Expected shape: time grows roughly
//! linearly with the data; test error falls as data grows but is already
//! reasonable on the smallest subset.

use bench::{run_pipeline, section, train_config, HarnessOpts, Rows, Workload};
use raal::{evaluate, train, train_test_split, CostModel, ModelConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    let seed = opts.seeds[0];
    section("Table VIII — training time / test error vs. data size (IMDB)");
    let bench = bench::build_bench(Workload::Imdb, opts.full, seed);
    let pipeline = run_pipeline(&bench, opts.full, seed, true);
    let (train_all, test_set) = train_test_split(pipeline.samples.clone(), 0.8, seed);
    println!("available training records: {}", train_all.len());

    // Paper sizes: 10k..50k. Reduced runs scale to the data we have.
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let values = ["train_seconds", "test_RE"];
    let mut table = Rows::new("Table VIII — training size", &["train_records"], &values);
    for f in fractions {
        let n = ((train_all.len() as f64) * f) as usize;
        if n < 10 {
            continue;
        }
        let subset = &train_all[..n];
        let mut model = CostModel::new(ModelConfig::raal(pipeline.encoder.node_dim()));
        let history = train(&mut model, subset, &train_config(opts.full, seed));
        let re = evaluate(&model, &test_set).relative_error();
        table.push(seed, &[&n.to_string()], &[history.train_seconds, re]);
    }
    table.write(&opts.out_dir, "tab8_training_size.tsv");
}
