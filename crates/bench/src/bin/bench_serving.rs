//! `bench_serving` — the sharded serving tier's performance contract.
//!
//! A load generator: [`CLIENTS`] client threads hammer a
//! [`ShardedServing`] fleet with single-plan predict calls (the cost
//! model's serving-time shape — one optimizer probe per call), driving
//! about a million predictions in the default full run. Each thread
//! times every call with `telemetry::clock_ns` into a thread-local
//! histogram; the merged histogram yields the reported p50/p95/p99.
//!
//! The tracked headline is `batched_vs_sequential`: the same load
//! replayed against a one-at-a-time service (`shards: 1, max_batch: 1`
//! — every request priced alone, exactly the pre-coalescing serving
//! path) versus the sharded fleet with cross-request batching. The
//! ratio is dimensionless and machine-independent enough to ratchet in
//! CI; absolute latencies and throughputs are recorded untracked.
//!
//! Two gates run inside the harness:
//!
//! * every prediction must come from the deep model (`hit_rate == 1`) —
//!   a bench that quietly fell back to the analytical model would
//!   "win" on throughput while measuring nothing;
//! * in the full run, coalescing must beat one-at-a-time by at least
//!   [`MIN_FULL_SPEEDUP`]x at [`CLIENTS`] concurrent clients — **when
//!   the machine has at least [`MIN_GATE_CORES`] cores**. The sharded
//!   tier's win is mostly inference parallelism (shards) plus wake-up
//!   amortization (coalescing); on a 1–2 core box both services are
//!   serialized onto the same CPU and the contract is not expressible,
//!   so the gate degrades to a no-collapse floor and says so.
//!
//! The shard count scales with the hardware (`min(cores, 4)`): spawning
//! four dispatchers on one core only adds scheduler thrash.
//!
//! Usage:
//! `bench_serving [--out FILE] [--check FILE] [--smoke] [--seed N]`
//!
//! `--smoke` shrinks the run to ~10k predictions for CI smoke jobs;
//! `--check FILE` re-measures and exits non-zero if a tracked metric
//! regressed more than [`TOLERANCE`] against the baseline in FILE, or
//! is tracked there and no longer measured.

use bench::{build_model, run_pipeline, section, train_config, Metric, Workload};
use raal::persist::ModelBundle;
use raal::serving::shard::{ShardConfig, ShardedServing};
use raal::serving::{FallbackModel, ServingConfig};
use raal::{train, ModelConfig};
use sparksim::plan::physical::PhysicalPlan;
use sparksim::resource::ResourceConfig;
use std::sync::Arc;
use std::time::Duration;

/// Client threads in the load generator (the acceptance shape: 8
/// concurrent clients).
const CLIENTS: usize = 8;
/// Predictions per full run (~1M) and per smoke run (~10k).
const FULL_PREDICTIONS: u64 = 1_000_000;
const SMOKE_PREDICTIONS: u64 = 10_000;
/// The sequential baseline replays a fraction of the load: throughput
/// is a rate, and one-at-a-time pricing of the full million would
/// dominate wall time without changing the measurement.
const BASELINE_DIVISOR: u64 = 8;
/// Tracked-metric regression tolerance. Deliberately looser than
/// `bench_inference`'s 10%: a cross-thread batching ratio moves with
/// scheduler noise and core count, so the ratchet only catches
/// collapses (e.g. coalescing silently disabled), not jitter.
const TOLERANCE: f64 = 0.5;
/// Full-run floor for `batched_vs_sequential` on multi-core machines.
const MIN_FULL_SPEEDUP: f64 = 3.0;
/// Cores needed before the [`MIN_FULL_SPEEDUP`] gate is meaningful:
/// the batched fleet needs its shards actually running in parallel.
const MIN_GATE_CORES: usize = 4;
/// Floor applied instead on narrower machines: coalescing may not win
/// without parallelism, but it must never collapse throughput.
const MIN_SERIAL_SPEEDUP: f64 = 0.75;

struct Opts {
    out: std::path::PathBuf,
    check: Option<std::path::PathBuf>,
    smoke: bool,
    seed: u64,
}

fn parse_opts() -> Opts {
    telemetry::init_from_env();
    let mut opts = Opts {
        out: std::path::PathBuf::from("BENCH_serving.json"),
        check: None,
        smoke: false,
        seed: 42,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => opts.smoke = true,
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
                "unknown argument '{other}' (use --out FILE / --check FILE / --smoke / --seed N)"
            ),
        }
        i += 1;
    }
    opts
}

/// Replays `total` predictions against `service` from [`CLIENTS`]
/// threads, round-robin over the plan pool, and returns the merged
/// latency histogram (microseconds) plus throughput in predictions/s.
fn drive(
    service: &ShardedServing,
    plans: &[(PhysicalPlan, ResourceConfig)],
    total: u64,
) -> (telemetry::Histogram, f64) {
    let t0 = telemetry::clock_ns();
    let mut hists: Vec<telemetry::Histogram> = Vec::with_capacity(CLIENTS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut hist = telemetry::Histogram::new();
                    let share =
                        total / CLIENTS as u64 + u64::from((total % CLIENTS as u64) > c as u64);
                    let tenant = format!("client-{c}");
                    for k in 0..share {
                        let (plan, res) = &plans[(c + k as usize) % plans.len()];
                        let t = telemetry::clock_ns();
                        let pred = service.predict(&tenant, plan, res);
                        hist.record((telemetry::clock_ns() - t) / 1_000);
                        assert!(pred.seconds.is_finite(), "non-finite prediction");
                    }
                    hist
                })
            })
            .collect();
        for h in handles {
            hists.push(h.join().expect("client thread panicked"));
        }
    });
    let elapsed_s = (telemetry::clock_ns() - t0) as f64 * 1e-9;
    let mut merged = telemetry::Histogram::new();
    for h in &hists {
        merged.merge(h);
    }
    let tput = merged.count() as f64 / elapsed_s.max(1e-9);
    (merged, tput)
}

fn main() {
    let opts = parse_opts();
    section("bench_serving — sharded multi-tenant serving under load");

    // Same setup as bench_inference: a briefly-trained RAAL model over
    // the reduced IMDB workload (weights don't matter for latency, but
    // a trained head keeps the packed/single paths honest).
    let bench = bench::build_bench(Workload::Imdb, false, opts.seed);
    let pipeline = run_pipeline(&bench, false, opts.seed, true);
    let tcfg = {
        let mut t = train_config(false, opts.seed);
        t.epochs = 3;
        t
    };
    let train_subset: Vec<_> = pipeline.samples.iter().take(200).cloned().collect();
    let mut model = build_model(ModelConfig::raal(pipeline.encoder.node_dim()));
    train(&mut model, &train_subset, &tcfg);

    // A pool of (plan, resources) pairs the clients cycle through.
    let mut plans: Vec<(PhysicalPlan, ResourceConfig)> = Vec::new();
    for run in &pipeline.collection.plan_runs {
        if plans.len() >= 64 {
            break;
        }
        let (res, _) = &run.observations[0];
        plans.push((run.plan.clone(), res.clone()));
    }
    assert!(plans.len() >= 16, "need a plan pool, got {}", plans.len());

    let total = if opts.smoke {
        SMOKE_PREDICTIONS
    } else {
        FULL_PREDICTIONS
    };
    let baseline_total = (total / BASELINE_DIVISOR).max(1);
    println!(
        "load: {total} predictions, {CLIENTS} client threads, {} plans in the pool\n",
        plans.len()
    );

    let fallback: Arc<dyn FallbackModel + Send + Sync> =
        Arc::new(|plan: &PhysicalPlan, _res: &ResourceConfig| 1.0 + plan.len() as f64);
    // Generous deadline and quotas: the bench measures batching, so
    // nothing should shed (the hit-rate gate enforces that).
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let serving = ServingConfig {
        deadline: Duration::from_secs(5),
        ..Default::default()
    };
    let batched_cfg = ShardConfig {
        shards: cores.min(4),
        max_batch: 32,
        queue_capacity: 4096,
        tenant_inflight: 1024,
        serving: serving.clone(),
    };
    println!("machine: {cores} cores -> {} shards", batched_cfg.shards);
    // One shard, batch size one: every request priced alone — the
    // pre-coalescing serving path under identical client concurrency.
    let sequential_cfg = ShardConfig { shards: 1, max_batch: 1, ..batched_cfg.clone() };

    let bundle = ModelBundle::new(model.clone(), &pipeline.encoder);
    let service = ShardedServing::new(bundle, fallback.clone(), batched_cfg);
    let (hist, batched_tput) = drive(&service, &plans, total);
    let slo = service.slo_stats();
    service.shutdown();
    assert_eq!(slo.total, total, "predictions lost in flight");
    assert!(
        slo.hit_rate() >= 1.0,
        "HIT-RATE GATE FAILED: {} of {} predictions fell back — the bench must \
         measure the model path, not the analytical fallback",
        slo.total - slo.model,
        slo.total,
    );
    let q = |p: f64| hist.quantile(p).unwrap_or(0) as f64;
    println!(
        "batched:    {batched_tput:>10.0} predictions/s  p50 {:>5.0} us  p95 {:>5.0} us  p99 {:>5.0} us",
        q(0.50),
        q(0.95),
        q(0.99)
    );

    let bundle = ModelBundle::new(model, &pipeline.encoder);
    let service = ShardedServing::new(bundle, fallback, sequential_cfg);
    let (seq_hist, seq_tput) = drive(&service, &plans, baseline_total);
    let seq_slo = service.slo_stats();
    service.shutdown();
    assert!(seq_slo.hit_rate() >= 1.0, "baseline fell back ({} misses)", {
        seq_slo.total - seq_slo.model
    });
    let sq = |p: f64| seq_hist.quantile(p).unwrap_or(0) as f64;
    println!(
        "sequential: {seq_tput:>10.0} predictions/s  p50 {:>5.0} us  p95 {:>5.0} us  p99 {:>5.0} us",
        sq(0.50),
        sq(0.95),
        sq(0.99)
    );

    let speedup = batched_tput / seq_tput.max(1e-9);
    println!("\ncross-request batching speedup at {CLIENTS} clients: {speedup:.2}x");
    if !opts.smoke {
        if cores >= MIN_GATE_CORES {
            assert!(
                speedup >= MIN_FULL_SPEEDUP,
                "SPEEDUP GATE FAILED: coalescing delivered {speedup:.2}x over one-at-a-time \
                 (contract: >= {MIN_FULL_SPEEDUP}x at {CLIENTS} clients on {cores} cores)"
            );
        } else {
            println!(
                "note: {cores}-core machine — the {MIN_FULL_SPEEDUP}x parallel-speedup \
                 contract needs >= {MIN_GATE_CORES} cores; enforcing the no-collapse \
                 floor ({MIN_SERIAL_SPEEDUP}x) instead"
            );
            assert!(
                speedup >= MIN_SERIAL_SPEEDUP,
                "SPEEDUP GATE FAILED: coalescing collapsed throughput to {speedup:.2}x \
                 of one-at-a-time even without parallelism in play"
            );
        }
    }

    let metrics = vec![
        Metric::info("predictions", total as f64, "count"),
        Metric::info("client_threads", CLIENTS as f64, "count"),
        Metric::info("machine_cores", cores as f64, "count"),
        Metric::info("batched_p50_us", q(0.50), "us"),
        Metric::info("batched_p95_us", q(0.95), "us"),
        Metric::info("batched_p99_us", q(0.99), "us"),
        Metric::info("sequential_p50_us", sq(0.50), "us"),
        Metric::info("sequential_p95_us", sq(0.95), "us"),
        Metric::info("sequential_p99_us", sq(0.99), "us"),
        Metric::info("batched_throughput_per_s", batched_tput, "1/s"),
        Metric::info("sequential_throughput_per_s", seq_tput, "1/s"),
        Metric::info("model_hit_rate", slo.hit_rate(), "ratio"),
        Metric::tracked("batched_vs_sequential", speedup),
    ];
    bench::print_metrics(&metrics);

    if let Some(baseline_path) = &opts.check {
        bench::check_against(baseline_path, &metrics, TOLERANCE);
        return;
    }
    bench::write_report(
        &opts.out,
        "raal.bench_serving/v1",
        &[
            ("bench_serving_predictions", telemetry::Value::UInt(total)),
            ("bench_serving_clients", telemetry::Value::UInt(CLIENTS as u64)),
        ],
        metrics,
    );
    telemetry::shutdown();
}
