//! **Tables IV, VI, VII, VIII and Figs. 6, 7, 8** — the accuracy tables,
//! from one set of trained models per seed.
//!
//! Per seed and workload it builds the engine once, collects once, encodes
//! the collection twice (with and without the structure embedding), makes
//! one 80/20 record split, and trains each variant — NE-LSTM (no structure
//! embedding), NA-LSTM (no node-aware attention), RAAC (CNN plan layer) and
//! RAAL — once without and once with the resource pathway. Every output
//! reads those sixteen models:
//!
//! * Table IV + Fig. 6: the IMDB models with resources, their metrics and
//!   per-epoch training loss. Paper: RAAL best; NA-LSTM's curve least
//!   stable.
//! * Table VI: IMDB RAAL beside GPSJ (analytical, evaluated over every
//!   record) and a CLEO-style per-operator micro-model (fit on the first
//!   80% of queries). Paper: GPSJ's errors far larger.
//! * Table VII: all sixteen. Paper: resources improve every variant on
//!   both workloads, the MSE gap largest on TPC-H.
//! * Fig. 7: RAAL's (actual, estimated) test pairs without and with
//!   resources.
//! * Fig. 8: IMDB RAAL's test split sliced by executor memory (1–8 GB).
//!   Paper: accuracy flat across memory sizes.
//! * Table VIII: at the first seed, IMDB RAAL's training time and test RE
//!   on 20–80% of its training split (four more models) beside the
//!   full-size one Table IV reports. Paper: time grows roughly linearly
//!   with the data; error falls as it grows.
//!
//! `orderings.tsv` counts the seeds in which each ordering holds: RAAL
//! beats each ablation (IV) and GPSJ (VI) on RE and COR, and resources
//! lower MSE and RE for every variant on both workloads (VII).

use baselines::gpsj::{GpsjModel, GpsjParams};
use baselines::micro::MicroModel;
use bench::{
    metrics, run_pipeline, section, train_config, HarnessOpts, Orderings, Pipeline, Rows, Workload,
    METRICS,
};
use encoding::{PlanEncoder, Sample};
use raal::{evaluate, train, train_test_split, CostModel, EvalSet, ModelConfig};
use sparksim::ClusterConfig;

const VARIANTS: [&str; 4] = ["NE-LSTM", "NA-LSTM", "RAAC", "RAAL"];

/// One variant trained without and with the resource pathway.
struct Trained {
    name: &'static str,
    without: EvalSet,
    with: EvalSet,
    model: CostModel,
    losses: Vec<f64>,
    train_seconds: f64,
}

fn main() {
    let opts = HarnessOpts::from_env();
    section("Tables IV, VI, VII, VIII and Figs. 6, 7, 8 — accuracy, one set of models per seed");
    let train_s = [&METRICS[..], &["train_s"]].concat();
    let mut tab4 = Rows::new("Table IV — module ablation (IMDB)", &["model"], &train_s);
    let mut fig6 = Rows::new("", &["epoch"], &VARIANTS).cells(|l| format!("{l:.6}"));
    let mut tab6 = Rows::new("Table VI — RAAL vs. GPSJ (IMDB)", &["model"], &METRICS);
    let tab7_values: Vec<String> = ["without", "with"]
        .iter()
        .flat_map(|side| METRICS.iter().map(move |m| format!("{m}_{side}")))
        .collect();
    let tab7_values: Vec<&str> = tab7_values.iter().map(String::as_str).collect();
    let mut tab7 = Rows::new(
        "Table VII — resource-aware attention off / on",
        &["workload", "model"],
        &tab7_values,
    );
    let mut fig7 = Rows::new("", &["workload", "resource_attention"], &["actual_s", "estimated_s"])
        .cells(|x| format!("{x:.4}"));
    let fig8_values = [&["n"], &METRICS[..]].concat();
    let mut fig8 =
        Rows::new("Fig. 8 — RAAL across executor memory (IMDB)", &["memory_gb"], &fig8_values);
    let mut tab8 =
        Rows::new("Table VIII — training size", &["train_records"], &["train_seconds", "test_RE"]);

    for &seed in &opts.seeds {
        for workload in [Workload::Imdb, Workload::Tpch] {
            let bench = bench::build_bench(workload, opts.full, seed);
            let structured = run_pipeline(&bench, opts.full, seed, true);
            let unstructured = bench::encode(&bench, &structured.collection, opts.full, false);
            println!("\n[seed {seed}, {workload}] records: {}", structured.samples.len());
            let (trained, [train_set, test]) =
                train_variants(&structured, &unstructured, opts.full, seed);

            let wl = workload.to_string();
            for t in &trained {
                let row = [metrics(&t.without.summary()), metrics(&t.with.summary())].concat();
                tab7.push(seed, &[&wl, t.name], &row);
            }
            let raal = trained.iter().find(|t| t.name == "RAAL").expect("RAAL is a variant");
            for (tag, eval) in [("without", &raal.without), ("with", &raal.with)] {
                for (actual, estimated) in eval.pairs() {
                    fig7.detail(seed, &[&wl, tag], &[actual, estimated]);
                }
            }
            if workload != Workload::Imdb {
                continue;
            }

            for t in &trained {
                tab4.push(
                    seed,
                    &[t.name],
                    &[&metrics(&t.with.summary())[..], &[t.train_seconds]].concat(),
                );
            }
            let epochs = trained.iter().map(|t| t.losses.len()).max().unwrap_or(0);
            for epoch in 0..epochs {
                let losses: Vec<f64> = trained
                    .iter()
                    .map(|t| *t.losses.get(epoch).unwrap_or(&f64::NAN))
                    .collect();
                fig6.push(seed, &[&(epoch + 1).to_string()], &losses);
            }

            if seed == opts.seeds[0] {
                let dim = structured.encoder.node_dim();
                training_sizes(&mut tab8, raal, dim, &train_set, &test, opts.full, seed);
            }

            for (name, eval) in baselines_on(&bench, &structured) {
                tab6.push(seed, &[name], &metrics(&eval.summary()));
            }
            tab6.push(seed, &["RAAL"], &metrics(&raal.with.summary()));

            // Memory is feature index 4 (Table I order), normalised by node memory.
            let node_mem = ClusterConfig::default().memory_per_node_gb;
            for mem in [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0] {
                let want = (mem / node_mem) as f32;
                let slice: Vec<_> = test
                    .iter()
                    .filter(|s| (s.resources[4] - want).abs() < 1e-6)
                    .cloned()
                    .collect();
                if slice.len() >= 5 {
                    let s = evaluate(&raal.model, &slice).summary();
                    fig8.push(
                        seed,
                        &[&mem.to_string()],
                        &[&[slice.len() as f64], &metrics(&s)[..]].concat(),
                    );
                }
            }
        }
    }

    let mut orderings = Orderings::default();
    for table in [&mut tab4, &mut fig6, &mut tab6, &mut tab7, &mut fig8] {
        table.spread();
    }
    println!();
    for metric in ["RE", "COR"] {
        let raal = tab4.series(&["RAAL"], metric);
        for ablation in &VARIANTS[..3] {
            let claim = format!("RAAL beats {ablation}");
            orderings.claim("IV", &claim, metric, &raal, &tab4.series(&[ablation], metric));
        }
        let (raal, gpsj) = (tab6.series(&["RAAL"], metric), tab6.series(&["GPSJ"], metric));
        orderings.claim("VI", "RAAL beats GPSJ", metric, &raal, &gpsj);
    }
    for workload in [Workload::Imdb, Workload::Tpch] {
        for name in VARIANTS {
            for metric in ["MSE", "RE"] {
                let keys = [&workload.to_string(), name];
                let with = tab7.series(&keys, &format!("{metric}_with"));
                let without = tab7.series(&keys, &format!("{metric}_without"));
                let claim = format!("{workload} {name}: with resources beats without");
                orderings.claim("VII", &claim, metric, &with, &without);
            }
        }
    }

    let dir = &opts.out_dir;
    tab4.write(dir, "tab4_ablation.tsv");
    fig6.write(dir, "fig6_training_loss.tsv");
    tab6.write(dir, "tab6_vs_gpsj.tsv");
    tab7.write(dir, "tab7_resource_attention.tsv");
    fig7.write(dir, "fig7_scatter.tsv");
    fig8.write(dir, "fig8_adaptability.tsv");
    tab8.write(dir, "tab8_training_size.tsv");
    orderings.write(dir);
}

/// Trains every variant without and with resources on one record split of
/// each encoding (NE-LSTM reads the one without the structure embedding);
/// also returns the structured encoding's train and test splits.
fn train_variants(
    structured: &Pipeline,
    (encoder_n, samples_n): &(PlanEncoder, Vec<Sample>),
    full: bool,
    seed: u64,
) -> (Vec<Trained>, [Vec<Sample>; 2]) {
    let (tr_s, te_s) = train_test_split(structured.samples.clone(), 0.8, seed);
    let (tr_n, te_n) = train_test_split(samples_n.clone(), 0.8, seed);
    let tcfg = train_config(full, seed);
    let (dim_s, dim_n) = (structured.encoder.node_dim(), encoder_n.node_dim());
    let configs = [
        ModelConfig::raal(dim_n),
        ModelConfig::na_lstm(dim_s),
        ModelConfig::raac(dim_s),
        ModelConfig::raal(dim_s),
    ];
    let trained = VARIANTS
        .into_iter()
        .zip(configs)
        .map(|(name, cfg)| {
            let (tr, te) = if name == "NE-LSTM" {
                (&tr_n, &te_n)
            } else {
                (&tr_s, &te_s)
            };
            let mut blind = CostModel::new(cfg.clone().without_resources());
            train(&mut blind, tr, &tcfg);
            let mut model = CostModel::new(cfg);
            let history = train(&mut model, tr, &tcfg);
            Trained {
                name,
                without: evaluate(&blind, te),
                with: evaluate(&model, te),
                model,
                losses: history.epoch_losses,
                train_seconds: history.train_seconds,
            }
        })
        .collect();
    (trained, [tr_s, te_s])
}

/// Table VIII's rows: RAAL trained on the first 20–80% of `train_set` (the
/// paper's 10k–50k records at `--full`), then the full-size `raal`.
fn training_sizes(
    table: &mut Rows,
    raal: &Trained,
    node_dim: usize,
    train_set: &[Sample],
    test: &[Sample],
    full: bool,
    seed: u64,
) {
    for f in [0.2, 0.4, 0.6, 0.8] {
        let n = ((train_set.len() as f64) * f) as usize;
        if n < 10 {
            continue;
        }
        let mut model = CostModel::new(ModelConfig::raal(node_dim));
        let history = train(&mut model, &train_set[..n], &train_config(full, seed));
        let re = evaluate(&model, test).relative_error();
        table.push(seed, &[&n.to_string()], &[history.train_seconds, re]);
    }
    let n = train_set.len().to_string();
    table.push(seed, &[&n], &[raal.train_seconds, raal.with.relative_error()]);
}

/// Table VI's untrained and per-operator rows: GPSJ over every record, and
/// the micro-model fit on the first 80% of queries and evaluated on the
/// rest (a per-record split would leak plans between train and test).
fn baselines_on(bench: &bench::Bench, pipeline: &Pipeline) -> [(&'static str, EvalSet); 2] {
    let runs = &pipeline.collection.plan_runs;
    let gpsj = GpsjModel::new(GpsjParams {
        data_scale: bench.engine.simulator().config().data_scale,
    });
    let mut gpsj_set = EvalSet::new();
    for run in runs {
        for (res, seconds) in &run.observations {
            gpsj_set.push(*seconds, gpsj.estimate_seconds(&run.plan, res));
        }
    }

    let cluster = bench.engine.simulator().cluster();
    let cut_query = runs.iter().map(|r| r.query_idx).max().unwrap_or(0) * 4 / 5;
    let micro = MicroModel::fit(
        runs.iter()
            .filter(|r| r.query_idx < cut_query)
            .flat_map(|r| r.observations.iter().map(move |(res, s)| (&r.plan, res, *s))),
        cluster,
        baselines::micro::DEFAULT_RIDGE,
    );
    let mut micro_set = EvalSet::new();
    for run in runs.iter().filter(|r| r.query_idx >= cut_query) {
        for (res, seconds) in &run.observations {
            micro_set.push(*seconds, micro.predict_seconds(&run.plan, res, cluster));
        }
    }
    [("GPSJ", gpsj_set), ("MICRO", micro_set)]
}
