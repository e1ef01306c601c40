//! **Table IX** — online estimation latency for 100 queries.
//!
//! Times how long each cost model takes to estimate 100 plans: RAAL,
//! TLSTM (both learned, milliseconds for the whole batch) and GPSJ (the
//! analytical model the paper reports at up to 50 ms *per plan*; our
//! from-scratch GPSJ is a simple formula, so we report it as measured and
//! note the difference). Expected shape: learned-model inference is
//! negligible and RAAL ≈ TLSTM.
//!
//! Also benchmarks the RAAL inference engine itself:
//! * autograd-tape forward (`predict_seconds_tape`, the training path)
//!   vs the tape-free fast path (`predict_seconds`);
//! * a 64-configuration resource sweep per plan, naive (full forward per
//!   configuration) vs `PlanContext` reuse (`predict_with_context`).

use baselines::gpsj::{GpsjModel, GpsjParams};
use baselines::tlstm::{train_tlstm, TlstmConfig, TlstmModel};
use bench::{build_model, run_pipeline, section, train_config, write_tsv, HarnessOpts, Workload};
use raal::{train, ModelConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    section("Table IX — online estimation time for 100 queries");
    let bench = bench::build_bench(Workload::Imdb, opts.full, opts.seed);
    let pipeline = run_pipeline(&bench, opts.full, opts.seed, true);
    let tcfg = {
        let mut t = train_config(false, opts.seed);
        t.epochs = 3; // weights don't matter for latency
        t
    };
    let train_subset: Vec<_> = pipeline.samples.iter().take(200).cloned().collect();

    let mut raal_model = build_model(ModelConfig::raal(pipeline.encoder.node_dim()));
    train(&mut raal_model, &train_subset, &tcfg);
    let mut tlstm = TlstmModel::new(TlstmConfig::new(pipeline.encoder.node_dim()));
    train_tlstm(&mut tlstm, &train_subset, &tcfg);
    let gpsj = GpsjModel::new(GpsjParams {
        data_scale: bench.engine.simulator().config().data_scale,
        ..GpsjParams::default()
    });

    // 100 query plans with their resources.
    let mut plans = Vec::new();
    for run in &pipeline.collection.plan_runs {
        if plans.len() >= 100 {
            break;
        }
        if run.plan_idx == 0 {
            let (res, _) = &run.observations[0];
            plans.push((run.plan.clone(), pipeline.encoder.encode(&run.plan), res.clone()));
        }
    }
    assert!(plans.len() >= 50, "need enough distinct queries");
    let n = plans.len().min(100);
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
        for (_, enc, res) in plans.iter().take(n) {
            std::hint::black_box(raal_model.predict_seconds(enc, &res.feature_vector(cluster)));
        }
    });
    let tlstm_ms = time_it(&|| {
        for (_, enc, _) in plans.iter().take(n) {
            std::hint::black_box(tlstm.predict_seconds(enc));
        }
    });
    let gpsj_ms = time_it(&|| {
        for (plan, _, res) in plans.iter().take(n) {
            std::hint::black_box(gpsj.estimate_seconds(plan, res));
        }
    });

    println!("{:>8} {:>16} {:>16}", "model", "total(ms)", "per-plan(ms)");
    let mut rows = Vec::new();
    for (name, ms) in [("RAAL", raal_ms), ("TLSTM", tlstm_ms), ("GPSJ", gpsj_ms)] {
        println!("{name:>8} {ms:>16.3} {:>16.5}", ms / n as f64);
        rows.push(vec![name.to_string(), format!("{ms:.3}"), format!("{:.5}", ms / n as f64)]);
    }
    println!(
        "\nnote: the paper's GPSJ costs up to 50 ms/plan inside Spark's optimizer; \
         our reimplementation is a bare formula, so its absolute latency is smaller, \
         while the learned models' ~microsecond-scale per-plan cost matches the paper's claim \
         that learned estimation overhead is negligible."
    );
    write_tsv(
        &opts.out_dir,
        "tab9_inference_latency.tsv",
        &["model", "total_ms_100_queries", "per_plan_ms"],
        &rows,
    );

    // ---- RAAL inference-engine breakdown: tape vs fast vs cached sweep.
    section("RAAL inference engine — tape vs fast path vs PlanContext");
    let tape_ms = time_it(&|| {
        for (_, enc, res) in plans.iter().take(n) {
            std::hint::black_box(
                raal_model.predict_seconds_tape(enc, &res.feature_vector(cluster)),
            );
        }
    });
    let fast_ms = raal_ms; // measured above via predict_seconds

    // 64-configuration resource sweep over the first plans: the naive
    // loop re-runs the whole forward pass per configuration, the cached
    // loop reuses each plan's resource-independent PlanContext.
    let sweep_plans = 8.min(n);
    let sweep_configs: Vec<Vec<f32>> = (0..64)
        .map(|i| {
            let (_, _, base) = &plans[i % sweep_plans];
            let mut f = base.feature_vector(cluster);
            let s = 0.25 + 0.75 * (i as f32 / 63.0);
            f.iter_mut().for_each(|x| *x *= s);
            f
        })
        .collect();
    let naive_sweep_ms = time_it(&|| {
        for (_, enc, _) in plans.iter().take(sweep_plans) {
            for cfg in &sweep_configs {
                std::hint::black_box(raal_model.predict_seconds(enc, cfg));
            }
        }
    });
    let cached_sweep_ms = time_it(&|| {
        for (_, enc, _) in plans.iter().take(sweep_plans) {
            let ctx = raal_model.plan_context(enc);
            for cfg in &sweep_configs {
                std::hint::black_box(raal_model.predict_with_context(&ctx, cfg));
            }
        }
    });

    let single_speedup = tape_ms / fast_ms;
    let sweep_speedup = naive_sweep_ms / cached_sweep_ms;
    println!("{:>24} {:>12} {:>12}", "path", "total(ms)", "speedup");
    println!("{:>24} {tape_ms:>12.3} {:>12}", "tape (reference)", "1.0x");
    println!("{:>24} {fast_ms:>12.3} {:>11.1}x", "fast path", single_speedup);
    println!("\nresource sweep: {sweep_plans} plans x {} configurations", sweep_configs.len());
    println!("{:>24} {naive_sweep_ms:>12.3} {:>12}", "naive (full forward)", "1.0x");
    println!("{:>24} {cached_sweep_ms:>12.3} {:>11.1}x", "PlanContext cached", sweep_speedup);
    write_tsv(
        &opts.out_dir,
        "tab9_engine_breakdown.tsv",
        &["path", "total_ms", "speedup_vs_reference"],
        &[
            vec!["tape_100_plans".into(), format!("{tape_ms:.3}"), "1.00".into()],
            vec!["fast_100_plans".into(), format!("{fast_ms:.3}"), format!("{single_speedup:.2}")],
            vec!["sweep_naive_8x64".into(), format!("{naive_sweep_ms:.3}"), "1.00".into()],
            vec![
                "sweep_cached_8x64".into(),
                format!("{cached_sweep_ms:.3}"),
                format!("{sweep_speedup:.2}"),
            ],
        ],
    );

    // Flush counter/histogram summaries so a telemetry-enabled run
    // validates end to end.
    telemetry::shutdown();
}
