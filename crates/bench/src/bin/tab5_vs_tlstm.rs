//! **Table V** — RAAL vs. TLSTM under *fixed* resources.
//!
//! The paper installs Spark locally and fixes the resources per query so
//! the relational-database baseline (TLSTM) gets its natural setting; the
//! RAAL resource input is then a constant vector. Expected shape: RAAL
//! still ahead on all four metrics (structure embedding + node-aware
//! attention), but by less than in the varying-resource setting.
//! `orderings.tsv` counts the seeds in which RAAL beats TLSTM on RE and COR.

use baselines::tlstm::{evaluate_tlstm, train_tlstm, TlstmConfig, TlstmModel};
use bench::{
    collection_config, metrics, section, train_config, w2v_config, HarnessOpts, Orderings, Rows,
    Workload, METRICS,
};
use encoding::EncoderConfig;
use raal::dataset::collect;
use raal::{evaluate, train, train_test_split, CostModel, ModelConfig};
use sparksim::ResourceGrid;

fn main() {
    let opts = HarnessOpts::from_env();
    section("Table V — RAAL vs. TLSTM, fixed resources (IMDB)");
    let values = [&METRICS[..], &["train_s"]].concat();
    let mut table = Rows::new("Table V — RAAL vs. TLSTM", &["model"], &values);
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
        let encoder = collection.build_encoder(&w2v_config(opts.full), EncoderConfig::default());
        let samples = collection.encode(&encoder, &bench.engine);
        println!("\n[seed {seed}] records: {}", samples.len());
        let (train_set, test_set) = train_test_split(samples, 0.8, seed);
        let tcfg = train_config(opts.full, seed);

        let mut raal_model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
        let h1 = train(&mut raal_model, &train_set, &tcfg);
        let raal = evaluate(&raal_model, &test_set).summary();

        let mut tlstm = TlstmModel::new(TlstmConfig::new(encoder.node_dim()));
        let h2 = train_tlstm(&mut tlstm, &train_set, &tcfg);
        let tlstm = evaluate_tlstm(&tlstm, &test_set).summary();

        table.push(seed, &["TLSTM"], &[&metrics(&tlstm)[..], &[h2.train_seconds]].concat());
        table.push(seed, &["RAAL"], &[&metrics(&raal)[..], &[h1.train_seconds]].concat());
    }
    table.spread();

    println!();
    let mut orderings = Orderings::default();
    for metric in ["RE", "COR"] {
        let (raal, tlstm) = (table.series(&["RAAL"], metric), table.series(&["TLSTM"], metric));
        orderings.claim("V", "RAAL beats TLSTM", metric, &raal, &tlstm);
    }
    table.write(&opts.out_dir, "tab5_vs_tlstm.tsv");
    orderings.write(&opts.out_dir);
}
