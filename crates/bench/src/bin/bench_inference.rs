//! `bench_inference` — the inference engine's performance contract.
//!
//! Measures the serving-relevant latencies of the RAAL cost model —
//! single-plan p50 and a 64-configuration resource sweep — and writes
//! `BENCH_inference.json`: a machine-readable report whose *tracked*
//! metrics are two dimensionless speedup ratios (machine-independent enough to ratchet in CI, unlike absolute
//! latencies, which are recorded but not compared).
//!
//! Usage:
//! `bench_inference [--out FILE] [--check FILE] [--full] [--seed N]`
//!
//! `--check FILE` re-measures and exits non-zero if any tracked metric
//! regressed more than 10% against the baseline in FILE, or is tracked
//! there and no longer measured — the CI perf-ratchet job runs
//! `--check BENCH_inference.json`.

use bench::{build_model, run_pipeline, section, train_config, Metric, Workload};
use raal::{train, ModelConfig};

/// Tracked-metric regression tolerance: fail `--check` when a ratio
/// drops below `baseline * (1 - TOLERANCE)`.
const TOLERANCE: f64 = 0.10;

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
    section("bench_inference — inference engine");

    // Same setup as the Table IX harness: a briefly-trained RAAL model
    // (weights don't matter for latency, but training de-zeroes the
    // ReLU head) over the IMDB workload.
    let bench = bench::build_bench(Workload::Imdb, opts.full, opts.seed);
    let pipeline = run_pipeline(&bench, opts.full, opts.seed, true);
    let tcfg = {
        let mut t = train_config(false, opts.seed);
        t.epochs = 3;
        t
    };
    let train_subset: Vec<_> = pipeline.samples.iter().take(200).cloned().collect();
    let mut model = build_model(ModelConfig::raal(pipeline.encoder.node_dim()));
    train(&mut model, &train_subset, &tcfg);
    let cluster = bench.engine.simulator().cluster();

    // Up to 100 distinct queries: one (encoded plan, resources) each.
    let singles: Vec<_> = pipeline
        .collection
        .plan_runs
        .iter()
        .filter(|run| run.plan_idx == 0)
        .take(100)
        .map(|run| {
            let (res, _) = &run.observations[0];
            (pipeline.encoder.encode(&run.plan), res.feature_vector(cluster))
        })
        .collect();
    let n = singles.len();
    assert!(n >= 50, "need enough distinct queries, got {n}");
    println!("benchmarking over {n} plans (best-of-5 timings)\n");

    let time_ms = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = telemetry::clock_ns();
            f();
            best = best.min((telemetry::clock_ns() - t0) as f64 * 1e-6);
        }
        best
    };

    let tape_ms = time_ms(&|| {
        for (enc, feats) in &singles {
            std::hint::black_box(model.predict_seconds_tape(enc, feats));
        }
    });
    let fast_ms = time_ms(&|| {
        for (enc, feats) in &singles {
            std::hint::black_box(model.predict_seconds(enc, feats));
        }
    });

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
    let sweep_naive_ms = time_ms(&|| {
        for (enc, _) in singles.iter().take(sweep_plans) {
            for cfg in &sweep_configs {
                std::hint::black_box(model.predict_seconds(enc, cfg));
            }
        }
    });
    let sweep_cached_ms = time_ms(&|| {
        for (enc, _) in singles.iter().take(sweep_plans) {
            let ctx = model.plan_context(enc);
            for cfg in &sweep_configs {
                std::hint::black_box(model.predict_with_context(&ctx, cfg));
            }
        }
    });

    let metrics = vec![
        Metric::info("single_plan_p50_us_f32", fast_ms / n as f64 * 1e3, "us"),
        Metric::info("tape_total_ms", tape_ms, "ms"),
        Metric::info("sweep64_naive_ms", sweep_naive_ms, "ms"),
        Metric::info("sweep64_cached_ms", sweep_cached_ms, "ms"),
        Metric::tracked("fast_vs_tape", tape_ms / fast_ms),
        Metric::tracked("sweep_cache_speedup", sweep_naive_ms / sweep_cached_ms),
    ];
    bench::print_metrics(&metrics);

    if let Some(baseline_path) = &opts.check {
        bench::check_against(baseline_path, &metrics, TOLERANCE);
        return;
    }
    bench::write_report(
        &opts.out,
        "raal.bench_inference/v1",
        &[("bench_inference_plans", telemetry::Value::UInt(n as u64))],
        metrics,
    );
    // Flush counter/histogram summaries so a telemetry-enabled run
    // validates end to end.
    telemetry::shutdown();
}
