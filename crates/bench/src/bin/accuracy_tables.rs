//! **Every learned result** — Tables IV–IX, Figs. 1 and 6–8, the cold-start
//! extension and the learnability probe — from one engine and collection
//! per seed and workload.
//!
//! Per seed and workload it collects once, encodes the collection with and
//! without the structure embedding, makes one 80/20 record split, and trains
//! NE-LSTM (no structure embedding), NA-LSTM (no node-aware attention), RAAC
//! (CNN plan layer) and RAAL once without and once with resources. Paper
//! shapes: RAAL best (IV); NA-LSTM's loss curve least stable (Fig. 6);
//! GPSJ's errors far larger (VI, beside a CLEO-style micro-model); resources
//! improve every variant, most on TPC-H (VII, Fig. 7); accuracy flat across
//! executor memory (Fig. 8). On the IMDB engine it also trains a RAAL on
//! every record to pick plans for 20 fresh queries (Fig. 1: faster than
//! Catalyst's defaults), and RAAL and TLSTM on a second collection under one
//! fixed resource state (V: RAAL still ahead, by less). At the first seed:
//! RAAL on 20–80% of its training split (VIII: time linear in the data,
//! error falling), the time Table V's models and GPSJ take to price 100
//! plans (IX), an IMDB RAAL zero-shot and fine-tuned on TPC-H against a
//! native one (cold start, the paper's Sec. VI future work), and a ridge
//! regression and a longer RAAL run on Table IV's split (the probe).
//!
//! `orderings.tsv` counts the seeds in which each ordering holds: Fig. 1's
//! tuned plans beat the default, RAAL beats each ablation (IV), TLSTM (V)
//! and GPSJ (VI) on RE and COR, and resources lower MSE and RE for every
//! variant on both workloads (VII).

use baselines::gpsj::{GpsjModel, GpsjParams};
use baselines::micro::{ridge_fit, MicroModel};
use baselines::tlstm::{TlstmConfig, TlstmModel};
use bench::{
    collection_config, metrics, section, train_config, w2v_config, Bench, HarnessOpts, Orderings,
    Rows, Workload, METRICS,
};
use encoding::tokenizer::plan_sentences;
use encoding::{EncoderConfig, PlanEncoder, Sample};
use raal::dataset::{collect, Collection};
use raal::model::normalize_seconds;
use raal::selection::evaluate_selection;
use raal::{evaluate, train, train_test_split, CostModel, EvalSet, ModelConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparksim::{ClusterConfig, ResourceConfig, ResourceGrid};
use workloads::querygen::{generate_queries, QueryGenConfig};

const VARIANTS: [&str; 4] = ["NE-LSTM", "NA-LSTM", "RAAC", "RAAL"];

/// An encoder and the records it encoded.
type Encoded = (PlanEncoder, Vec<Sample>);

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
    section("Tables IV–IX, Figs. 1, 6, 7, 8, cold start and probe — one pipeline per seed");
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
    let fig1_values = ["default_s", "tuned_s", "speedup", "optimal"];
    let mut fig1 =
        Rows::new("Fig. 1 — totals over 20 queries (each in the TSV)", &["query"], &fig1_values);
    let mut tab5 =
        Rows::new("Table V — RAAL vs. TLSTM, fixed resources (IMDB)", &["model"], &train_s);
    let tab9_values = ["total_ms_100_queries", "per_plan_ms"];
    let mut tab9 = Rows::new("Table IX — estimation time", &["model"], &tab9_values)
        .cells(|ms| format!("{ms:.5}"));
    let mut cold = Rows::new("Cold start (TPC-H test split)", &["setting"], &METRICS);
    let mut probe = Rows::new("Probe (IMDB test split)", &["model"], &METRICS);

    for &seed in &opts.seeds {
        let first = seed == opts.seeds[0];
        // The first seed's IMDB engine and collection, for cold start.
        let mut imdb = None;
        for workload in [Workload::Imdb, Workload::Tpch] {
            let bench = bench::build_bench(workload, opts.full, seed);
            let collected = collection_config(workload, opts.full, seed);
            let collection = collect(&bench.engine, &bench.graph, &collected);
            let structured = bench::encode(&bench, &collection, opts.full, true);
            let unstructured = bench::encode(&bench, &collection, opts.full, false);
            println!("\n[seed {seed}, {workload}] records: {}", structured.1.len());
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
                if let Some((imdb, imdb_collection)) = &imdb {
                    let tpch = (&bench, &collection);
                    cold_start(&mut cold, (imdb, imdb_collection), tpch, opts.full, seed);
                }
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

            if first {
                let dim = structured.0.node_dim();
                training_sizes(&mut tab8, raal, dim, &train_set, &test, opts.full, seed);
                learnability(&mut probe, dim, &train_set, &test, seed);
            }

            for (name, eval) in baselines_on(&bench, &collection) {
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

            plan_selection(&mut fig1, &bench, &structured, opts.full, seed);
            fixed_resources(&mut tab5, first.then_some(&mut tab9), &bench, opts.full, seed);
            if first {
                imdb = Some((bench, collection));
            }
        }
    }

    let mut orderings = Orderings::default();
    for table in [&mut tab4, &mut fig6, &mut tab6, &mut tab7, &mut fig8, &mut fig1, &mut tab5] {
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
    let (tuned, default) =
        (fig1.series(&["total"], "tuned_s"), fig1.series(&["total"], "default_s"));
    orderings.claim("Fig. 1", "RAAL-tuned plans beat the default", "total_s", &tuned, &default);
    for metric in ["RE", "COR"] {
        let (raal, tlstm) = (tab5.series(&["RAAL"], metric), tab5.series(&["TLSTM"], metric));
        orderings.claim("V", "RAAL beats TLSTM", metric, &raal, &tlstm);
    }

    let dir = &opts.out_dir;
    tab4.write(dir, "tab4_ablation.tsv");
    fig6.write(dir, "fig6_training_loss.tsv");
    tab6.write(dir, "tab6_vs_gpsj.tsv");
    tab7.write(dir, "tab7_resource_attention.tsv");
    fig7.write(dir, "fig7_scatter.tsv");
    fig8.write(dir, "fig8_adaptability.tsv");
    tab8.write(dir, "tab8_training_size.tsv");
    fig1.write(dir, "fig1_plan_selection.tsv");
    tab5.write(dir, "tab5_vs_tlstm.tsv");
    tab9.write(dir, "tab9_inference_latency.tsv");
    cold.write(dir, "ext_coldstart.tsv");
    probe.write(dir, "probe_learnability.tsv");
    orderings.write(dir);

    // Flush counter/histogram summaries so a telemetry-enabled run
    // validates end to end.
    telemetry::shutdown();
}

/// Trains every variant without and with resources on one record split of
/// each encoding (NE-LSTM reads the one without the structure embedding);
/// also returns the structured encoding's train and test splits.
fn train_variants(
    (encoder_s, samples_s): &Encoded,
    (encoder_n, samples_n): &Encoded,
    full: bool,
    seed: u64,
) -> (Vec<Trained>, [Vec<Sample>; 2]) {
    let (tr_s, te_s) = train_test_split(samples_s.clone(), 0.8, seed);
    let (tr_n, te_n) = train_test_split(samples_n.clone(), 0.8, seed);
    let tcfg = train_config(full, seed);
    let (dim_s, dim_n) = (encoder_s.node_dim(), encoder_n.node_dim());
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
fn baselines_on(bench: &Bench, collection: &Collection) -> [(&'static str, EvalSet); 2] {
    let runs = &collection.plan_runs;
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

/// Fig. 1's rows: RAAL trained on every IMDB record picks a plan for each of
/// 20 fresh queries (a seed stream apart from the collection's) under the
/// default resources; each query's default and tuned seconds, then the
/// totals.
fn plan_selection(
    table: &mut Rows,
    bench: &Bench,
    (encoder, samples): &Encoded,
    full: bool,
    seed: u64,
) {
    let mut model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    // Ranking plans needs a sharper model than the metric tables: more epochs.
    let mut tcfg = train_config(full, seed);
    tcfg.epochs = if full { 30 } else { 60 };
    train(&mut model, samples, &tcfg);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xF161);
    let queries = generate_queries(&bench.graph, &QueryGenConfig { max_joins: 3 }, 20, &mut rng);
    let res = ResourceConfig::default_for(bench.engine.simulator().cluster());
    let mut total = [0.0f64; 3];
    for (i, sql) in queries.iter().enumerate() {
        let Ok(outcome) = evaluate_selection(&bench.engine, &model, encoder, sql, &res, seed)
        else {
            continue;
        };
        let optimal = f64::from(u8::from(outcome.optimal()));
        total[0] += outcome.default_seconds;
        total[1] += outcome.chosen_seconds;
        total[2] += optimal;
        let (query, default, tuned) =
            (format!("Q{}", i + 1), outcome.default_seconds, outcome.chosen_seconds);
        table.detail(seed, &[&query], &[default, tuned, outcome.speedup(), optimal]);
    }
    let speedup = total[0] / total[1].max(1e-9);
    table.push(seed, &["total"], &[total[0], total[1], speedup, total[2]]);
}

/// Table V's rows: RAAL and TLSTM on a collection of `bench` under one fixed
/// resource state (one grid point, no tenancy jitter), so RAAL's resource
/// input is a constant; then Table IX with those two models, into `latency`.
fn fixed_resources(
    table: &mut Rows,
    latency: Option<&mut Rows>,
    bench: &Bench,
    full: bool,
    seed: u64,
) {
    let mut cfg = collection_config(Workload::Imdb, full, seed);
    cfg.grid = ResourceGrid {
        executors: vec![2],
        cores_per_executor: vec![2],
        memory_gb: vec![4.0],
        throughput_jitter: 0.0,
    };
    cfg.resource_states_per_plan = 1;
    let collection = collect(&bench.engine, &bench.graph, &cfg);
    let (encoder, samples) = bench::encode(bench, &collection, full, true);
    let (train_set, test_set) = train_test_split(samples, 0.8, seed);
    let tcfg = train_config(full, seed);

    let mut raal = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    let h_raal = train(&mut raal, &train_set, &tcfg);
    let mut tlstm = TlstmModel::new(TlstmConfig::new(encoder.node_dim()));
    let h_tlstm = train(&mut tlstm, &train_set, &tcfg);
    for (name, eval, seconds) in [
        ("TLSTM", evaluate(&tlstm, &test_set), h_tlstm.train_seconds),
        ("RAAL", evaluate(&raal, &test_set), h_raal.train_seconds),
    ] {
        table.push(seed, &[name], &[&metrics(&eval.summary())[..], &[seconds]].concat());
    }
    if let Some(latency) = latency {
        estimation_time(latency, bench, &collection, &encoder, &raal, &tlstm, seed);
    }
}

/// Table IX: the best of five passes of each model over the first 100 of
/// the collection's queries, each priced on its first candidate plan.
fn estimation_time(
    table: &mut Rows,
    bench: &Bench,
    collection: &Collection,
    encoder: &PlanEncoder,
    raal: &CostModel,
    tlstm: &TlstmModel,
    seed: u64,
) {
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
    for (name, ms) in [("RAAL", raal_ms), ("TLSTM", tlstm_ms), ("GPSJ", gpsj_ms)] {
        table.push(seed, &[name], &[ms, ms / n as f64]);
    }
}

/// The cold-start rows on TPC-H's test split, over one encoder trained on
/// both collections' plan text (so it can represent TPC-H statements): a
/// RAAL trained on IMDB alone, then fine-tuned on 10% of TPC-H's training
/// split, against one trained on that whole split.
fn cold_start(
    table: &mut Rows,
    (imdb, imdb_collection): (&Bench, &Collection),
    (tpch, tpch_collection): (&Bench, &Collection),
    full: bool,
    seed: u64,
) {
    let mut corpus = Vec::new();
    for run in imdb_collection.plan_runs.iter().chain(&tpch_collection.plan_runs) {
        corpus.extend(plan_sentences(&run.plan));
    }
    let encoder = PlanEncoder::new(
        encoding::train_word2vec(&corpus, &w2v_config(full)),
        EncoderConfig::default(),
    );
    let imdb_samples = imdb_collection.encode(&encoder, &imdb.engine);
    let (tpch_train, tpch_test) =
        train_test_split(tpch_collection.encode(&encoder, &tpch.engine), 0.8, seed);
    let mut tcfg = train_config(full, seed);
    // Fewer epochs for the run-time budget: three more trainings at the first seed.
    if !full {
        tcfg.epochs = 22;
    }

    let mut model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    train(&mut model, &imdb_samples, &tcfg);
    let zero_shot = evaluate(&model, &tpch_test).summary();

    let few = &tpch_train[..(tpch_train.len() / 10).max(1)];
    let mut fine_tune = tcfg.clone();
    fine_tune.epochs = (tcfg.epochs / 2).max(1);
    fine_tune.lr = tcfg.lr * 0.3;
    train(&mut model, few, &fine_tune);
    let fine_tuned = evaluate(&model, &tpch_test).summary();

    let mut native = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    train(&mut native, &tpch_train, &tcfg);
    let from_scratch = evaluate(&native, &tpch_test).summary();
    for (name, s) in [
        ("zero-shot (IMDB only)", zero_shot),
        ("fine-tuned (10% TPC-H)", fine_tuned),
        ("trained on TPC-H", from_scratch),
    ] {
        table.push(seed, &[name], &metrics(&s));
    }
}

/// The probe's rows on Table IV's split: a ridge regression on `[resources
/// ++ plan_stats ++ bytes/slots ++ 1]` (if even this linear probe
/// correlates well, the features are not the bottleneck), and RAAL trained
/// longer at a higher rate than the tables, to see where it converges.
fn learnability(
    table: &mut Rows,
    node_dim: usize,
    train_set: &[Sample],
    test: &[Sample],
    seed: u64,
) {
    let feat = |s: &Sample| -> Vec<f64> {
        let mut v: Vec<f64> = s.resources.iter().map(|&x| x as f64).collect();
        v.extend(s.plan.plan_stats.iter().map(|&x| x as f64));
        // An interaction the simulator obviously has: bytes / slots.
        let slots = (s.resources[2] * s.resources[3]) as f64;
        v.push(s.plan.plan_stats[0] as f64 / (slots + 0.05));
        v.push(1.0);
        v
    };
    let rows = train_set
        .iter()
        .map(|s| (feat(s), normalize_seconds(s.seconds) as f64));
    let w = ridge_fit(rows, feat(&train_set[0]).len(), 1e-4);
    let mut linear = EvalSet::new();
    for s in test {
        let yhat: f64 = feat(s).iter().zip(&w).map(|(a, b)| a * b).sum();
        linear.push(s.seconds, (yhat.clamp(0.0, 1.5) * 7201.0f64.ln()).exp() - 1.0);
    }
    table.push(seed, &["linear-probe"], &metrics(&linear.summary()));

    let mut model = CostModel::new(ModelConfig::raal(node_dim));
    let tcfg = TrainConfig {
        epochs: 40,
        lr: 2e-3,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let history = train(&mut model, train_set, &tcfg);
    println!("probe RAAL losses: {:?}", history.epoch_losses);
    table.push(seed, &["raal-40ep"], &metrics(&evaluate(&model, test).summary()));
}
