//! `bench_inference` — the inference engine's performance contract.
//!
//! Measures the serving-relevant latencies of the RAAL cost model —
//! plan encoding, the fast path's mean per plan in its fastest window
//! (`single_plan_p50_us_f32`, a key the committed baseline carries) and
//! a 64-configuration resource sweep — and writes `BENCH_inference.json`: a report whose one
//! *tracked* metric is a dimensionless speedup ratio, `fast_vs_tape`
//! (machine-independent enough to ratchet in CI, unlike absolute
//! latencies, which are recorded but not compared). The sweep's naive ÷
//! cached ratio is recorded too, untracked: it *falls* when the uncached
//! pass gets faster, and the cache's own gate is the repo benchmark's
//! `resweep_hot`. Training is priced on the same model and on the graph
//! `train` differentiates (`CostModel::loss`, the LSTM and node-aware
//! attention one fused node each): its forward, its backward, and a
//! whole sample-step of `train` on one thread. What
//! runs before any model exists is priced too: `plan_candidates` per
//! query, and the wall clock of this harness's own `collect` and word2vec.
//!
//! Usage:
//! `bench_inference [--out FILE] [--check FILE] [--full] [--seed N]`
//!
//! `--check FILE` re-measures and exits non-zero if any tracked metric
//! regressed more than 10% against the baseline in FILE, or is tracked
//! there and no longer measured — the CI perf-ratchet job runs
//! `--check BENCH_inference.json`. Every run prints `fast_vs_tape`'s median
//! and IQR ÷ median over its rounds; `--check` calls a wider one unresolved.

use bench::{section, train_config, Metric, Workload};
use raal::{train, CostModel, ModelConfig};

/// Tracked-metric regression tolerance: fail `--check` when a ratio
/// drops below `baseline * (1 - TOLERANCE)`.
const TOLERANCE: f64 = 0.10;

/// Timed samples per measurement, and the shortest one in milliseconds.
const ROUNDS: usize = 5;
const MIN_SAMPLE_MS: f64 = 20.0;

struct Opts {
    out: std::path::PathBuf,
    check: Option<std::path::PathBuf>,
    full: bool,
    seed: u64,
}

fn parse_opts() -> Opts {
    telemetry::init_from_env();
    let mut opts = Opts {
        out: std::path::PathBuf::from("BENCH_inference.json"),
        check: None,
        full: false,
        seed: 42,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts.full = true,
            "--out" => {
                i += 1;
                opts.out = std::path::PathBuf::from(args.get(i).expect("--out needs a value"));
            }
            "--check" => {
                i += 1;
                opts.check =
                    Some(std::path::PathBuf::from(args.get(i).expect("--check needs a value")));
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer");
            }
            other => panic!(
                "unknown argument '{other}' (use --out FILE / --check FILE / --full / --seed N)"
            ),
        }
        i += 1;
    }
    opts
}

fn main() {
    let opts = parse_opts();
    section(&format!(
        "bench_inference — inference engine, kernel tier {}",
        nn::infer::kernel_tier()
    ));

    // A briefly-trained RAAL model (weights don't matter for latency,
    // but training de-zeroes the ReLU head) over the IMDB workload.
    let bench = bench::build_bench(Workload::Imdb, opts.full, opts.seed);
    // The harnesses' collect → word2vec → encode, with a clock between the stages.
    let collected = bench::collection_config(Workload::Imdb, opts.full, opts.seed);
    let t0 = telemetry::clock_ns();
    let collection = raal::collect(&bench.engine, &bench.graph, &collected);
    let t1 = telemetry::clock_ns();
    let encoder = collection.build_encoder(&bench::w2v_config(opts.full), Default::default());
    let t2 = telemetry::clock_ns();
    let samples = collection.encode(&encoder, &bench.engine);
    let tcfg = {
        let mut t = train_config(false, opts.seed);
        t.epochs = 3;
        t
    };
    let train_subset: Vec<_> = samples.iter().take(200).cloned().collect();
    let mut model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
    train(&mut model, &train_subset, &tcfg);
    let cluster = bench.engine.simulator().cluster();
    // The queries `collect` ran: same generator, same seed.
    let queries = workloads::querygen::generate_queries(
        &bench.graph,
        &workloads::querygen::QueryGenConfig::default(),
        collected.num_queries,
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(collected.seed),
    );

    // Up to 100 distinct queries: one (encoded plan, resources) each.
    let runs: Vec<_> = collection
        .plan_runs
        .iter()
        .filter(|run| run.plan_idx == 0)
        .take(100)
        .collect();
    let singles: Vec<_> = runs
        .iter()
        .map(|run| {
            let (res, _) = &run.observations[0];
            (encoder.encode(&run.plan), res.feature_vector(cluster))
        })
        .collect();
    // The same queries' whole candidate sets, as plan selection meets
    // them: one operator-row cache per query.
    let candidate_sets: Vec<_> = queries
        .iter()
        .take(100)
        .filter_map(|sql| bench.engine.plan_candidates(sql).ok())
        .collect();
    let encode_sets = || {
        let (mut nodes, mut reused) = (0, 0);
        for set in &candidate_sets {
            let cache = encoder.op_cache();
            for plan in set {
                if let Ok((encoded, supplied)) = encoder.try_encode_in(plan, Some(&cache)) {
                    nodes += plan.len();
                    reused += std::hint::black_box((encoded, supplied)).1;
                }
            }
        }
        (nodes, reused)
    };
    // A service's cache once it has met every operator of `runs`, and
    // those plans built again operator by operator: a service meets
    // equal operators in other allocations, so every row is a hit that
    // `==` confirms.
    let warm = encoder.op_cache();
    for run in &runs {
        let _ = encoder.try_encode_in(&run.plan, Some(&warm));
    }
    let rebuilt: Vec<sparksim::PhysicalPlan> = runs
        .iter()
        .map(|run| {
            let mut copy = sparksim::PhysicalPlan::new();
            for node in run.plan.nodes() {
                copy.add((*node.op).clone(), node.children, node.est_rows, node.est_bytes);
            }
            copy
        })
        .collect();
    let n = singles.len();
    assert!(n >= 50, "need enough distinct queries, got {n}");
    println!("benchmarking over {n} plans (best of {ROUNDS} samples of >= {MIN_SAMPLE_MS} ms)\n");

    // 64-configuration sweep over the first 8 plans: naive full forward
    // vs PlanContext reuse.
    let sweep_plans = 8.min(n);
    let sweep_configs: Vec<Vec<f32>> = (0..64)
        .map(|i| {
            let base = &singles[i % sweep_plans].1;
            let s = 0.25 + 0.75 * (i as f32 / 63.0);
            base.iter().map(|x| x * s).collect()
        })
        .collect();
    // One LSTM step's activations at the served width: sigmoid over the
    // [i, f] block, tanh, sigmoid, then tanh of the cell state. The
    // kernels are branch-free, so outputs fed back in cost the same.
    let hidden = model.config().hidden;
    let gates = std::cell::RefCell::new(vec![0.5f32; 5 * hidden]);
    const ACTIVATION_STEPS: usize = 4096;
    let one_thread = raal::TrainConfig { epochs: 1, threads: 1, ..tcfg.clone() };
    // Forward and backward nanoseconds of the fastest whole pass over the
    // subset: read off one pass, so their ratio is not two windows' noise.
    let tape_split = std::cell::Cell::new((f64::INFINITY, 0.0));
    let tape_pass = || {
        let (mut forward, mut backward) = (0.0, 0.0);
        for s in &train_subset {
            let t0 = telemetry::clock_ns();
            let mut g = nn::Graph::new();
            let loss = model.loss(&mut g, &s.plan, &s.resources, s.seconds);
            let t1 = telemetry::clock_ns();
            let grads = g.backward(loss);
            forward += (t1 - t0) as f64;
            backward += (telemetry::clock_ns() - t1) as f64;
            std::hint::black_box(grads);
        }
        if forward + backward < tape_split.get().0 + tape_split.get().1 {
            tape_split.set((forward, backward));
        }
    };
    let bodies: [&dyn Fn(); 12] = [
        &|| {
            for run in &runs {
                std::hint::black_box(encoder.encode(&run.plan));
            }
        },
        &|| {
            for plan in &rebuilt {
                std::hint::black_box(encoder.try_encode_in(plan, Some(&warm)).ok());
            }
        },
        &|| {
            std::hint::black_box(encode_sets());
        },
        &|| {
            for (enc, feats) in &singles {
                std::hint::black_box(model.predict_seconds_tape(enc, feats));
            }
        },
        &|| {
            for (enc, feats) in &singles {
                std::hint::black_box(model.predict_seconds(enc, feats));
            }
        },
        &|| {
            for (enc, _) in singles.iter().take(sweep_plans) {
                for cfg in &sweep_configs {
                    std::hint::black_box(model.predict_seconds(enc, cfg));
                }
            }
        },
        &|| {
            for (enc, _) in singles.iter().take(sweep_plans) {
                let ctx = model.plan_context(enc);
                for cfg in &sweep_configs {
                    std::hint::black_box(model.predict_with_context(&ctx, cfg));
                }
            }
        },
        &|| {
            for (enc, _) in &singles {
                model.recycle_context(std::hint::black_box(model.plan_context(enc)));
            }
        },
        &|| {
            let z = &mut gates.borrow_mut()[..];
            for _ in 0..ACTIVATION_STEPS {
                nn::infer::sigmoid_slice(&mut z[..2 * hidden]);
                nn::infer::tanh_slice(&mut z[2 * hidden..3 * hidden]);
                nn::infer::sigmoid_slice(&mut z[3 * hidden..4 * hidden]);
                nn::infer::tanh_slice(&mut z[4 * hidden..]);
                std::hint::black_box(&mut *z);
            }
        },
        &tape_pass,
        &|| {
            train(&mut model.clone(), &train_subset, &one_thread);
        },
        &|| {
            for sql in &queries {
                std::hint::black_box(bench.engine.plan_candidates(sql).ok());
            }
        },
    ];
    // Best of ROUNDS samples per body, the bodies taking turns so that
    // a slow stretch of the machine falls on both sides of a ratio, and
    // each sample repeating its body until it has run MIN_SAMPLE_MS:
    // the cached sweep takes 1.3 ms, and a best-of-5 over windows that
    // short moved `sweep_cache_speedup` by 10% one run in six.
    let mut best_ms = [f64::INFINITY; 12];
    // The tracked ratio round by round: its spread is this run's noise floor.
    let mut round_ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut round_ms = [0.0; 12];
        for ((body, best), ms) in bodies.iter().zip(&mut best_ms).zip(&mut round_ms) {
            let t0 = telemetry::clock_ns();
            let (mut reps, mut elapsed_ms) = (0.0, 0.0);
            while elapsed_ms < MIN_SAMPLE_MS {
                body();
                reps += 1.0;
                elapsed_ms = (telemetry::clock_ns() - t0) as f64 * 1e-6;
            }
            *ms = elapsed_ms / reps;
            *best = best.min(*ms);
        }
        let [_, _, _, tape, fast, ..] = round_ms;
        round_ratios.push(tape / fast);
    }
    round_ratios.sort_by(f64::total_cmp);
    // ROUNDS = 5 puts the quartiles on ranks 1, 2 and 3.
    let quartile = |q: usize| round_ratios[q * (ROUNDS - 1) / 4];
    let median = quartile(2);
    let floor = (quartile(3) - quartile(1)) / median;
    let [encode_ms, cached_encode_ms, select_encode_ms, tape_ms, fast_ms, sweep_naive_ms, sweep_cached_ms, context_ms, gates_ms, _, step_ms, plans_ms] =
        best_ms;
    let (forward_ns, backward_ns) = tape_split.get();
    let per_sample = 1.0 / train_subset.len() as f64;
    let nodes: usize = runs.iter().map(|run| run.plan.len()).sum();
    let candidates: usize = candidate_sets.iter().map(Vec::len).sum();
    let (set_nodes, set_reused) = encode_sets();

    let metrics = vec![
        Metric::info("encode_us_per_plan", encode_ms / n as f64 * 1e3, "us"),
        Metric::info("encode_ns_per_node", encode_ms / nodes as f64 * 1e6, "ns"),
        Metric::info("encode_us_per_plan_cached", cached_encode_ms / n as f64 * 1e3, "us"),
        Metric::info("select_encode_us_per_plan", select_encode_ms / candidates as f64 * 1e3, "us"),
        Metric::info("select_encode_reuse_share", set_reused as f64 / set_nodes as f64, "ratio"),
        Metric::info("single_plan_p50_us_f32", fast_ms / n as f64 * 1e3, "us"),
        Metric::info("tape_total_ms", tape_ms, "ms"),
        Metric::info("sweep64_naive_ms", sweep_naive_ms, "ms"),
        Metric::info("sweep64_cached_ms", sweep_cached_ms, "ms"),
        Metric::info("plan_context_us_per_plan", context_ms / n as f64 * 1e3, "us"),
        Metric::info(
            "lstm_gate_activations_ns_per_step",
            gates_ms / ACTIVATION_STEPS as f64 * 1e6,
            "ns",
        ),
        Metric::info("tape_forward_us", forward_ns * 1e-3 * per_sample, "us"),
        Metric::info("tape_backward_us", backward_ns * 1e-3 * per_sample, "us"),
        Metric::info("train_us_per_sample_step", step_ms * 1e3 * per_sample, "us"),
        Metric::info("plan_candidates_us_per_query", plans_ms * 1e3 / queries.len() as f64, "us"),
        Metric::info("collect_s", (t1 - t0) as f64 * 1e-9, "s"),
        Metric::info("w2v_train_s", (t2 - t1) as f64 * 1e-9, "s"),
        Metric::tracked("fast_vs_tape", tape_ms / fast_ms),
        Metric::info("sweep_cache_speedup", sweep_naive_ms / sweep_cached_ms, "ratio"),
    ];
    bench::print_metrics(&metrics);
    println!("\nfast_vs_tape per round: median {median:.3}, IQR / median {floor:.3} (noise floor)");

    if let Some(baseline_path) = &opts.check {
        if floor > TOLERANCE {
            println!("noise floor {floor:.3} > tolerance {TOLERANCE}: the verdict is unresolved");
        }
        bench::check_against(baseline_path, &metrics, TOLERANCE);
        return;
    }
    bench::write_report(
        &opts.out,
        "raal.bench_inference/v1",
        &[
            ("bench_inference_plans", telemetry::Value::UInt(n as u64)),
            ("kernel_tier", telemetry::Value::Str(nn::infer::kernel_tier().to_string())),
            (
                "machine_cores",
                telemetry::Value::UInt(
                    std::thread::available_parallelism().map_or(0, |c| c.get()) as u64
                ),
            ),
        ],
        metrics,
    );
    // Flush counter/histogram summaries so a telemetry-enabled run
    // validates end to end.
    telemetry::shutdown();
}
