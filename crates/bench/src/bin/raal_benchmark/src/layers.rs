//! Per-layer timings taken from outside: the benchmark calls each
//! layer's public functions in a loop on a fixed sample of the pool and
//! times the loop. Nothing inside the program is edited or instrumented.
//!
//! Every figure is the median over [`REPEATS`] timed loops of the mean
//! time per operation in that loop, after one untimed warm-up loop, at
//! reference machine speed: the loops run between two calibrations (see
//! `calib.rs`), like the windows the end-to-end metrics come from.

use crate::calib::Speedometer;
use crate::drive::{shard_config, Machine};
use crate::fixture::{Fixture, StageTimes, POOL_QUERIES, TRAIN_EPOCHS, TRAIN_SAMPLES};
use crate::report::Report;
use crate::stats;
use encoding::EncodedPlan;
use nn::infer::matmul_into;
use nn::infer::quant::matmul_q8_into;
use nn::QuantizedMatrix;
use raal::serving::handoff::Handoff;
use raal::serving::shard::{BatchQueue, ReplySlot};
use raal::{
    FallbackReason, FrozenModel, ModelBundle, ModelConfig, ServingConfig, ServingModel,
    ShardedServing,
};
use sparksim::{ResourceConfig, ResourceGrid};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Plans of the pool (first-seen order) the model-side loops run over.
pub const SAMPLE_PLANS: usize = 256;
const REPEATS: usize = 5;

/// Median over [`REPEATS`] loops of `ops` operations of the nanoseconds
/// one operation took. `f` performs the whole loop.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut speed = Speedometer::start();
    let per_loop: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = telemetry::clock_ns();
            f();
            (telemetry::clock_ns() - t0) as f64 / ops as f64
        })
        .collect();
    stats::median(&per_loop) / speed.lap()
}

/// Multiply-accumulate pairs ×2 of every matrix product in one forward
/// pass over an `n`-node plan, **computed from the tensor shapes** of
/// `cfg` — not measured. Attention dot products and activations are not
/// GEMMs and are left out.
pub fn gemm_flops_per_plan(cfg: &ModelConfig, n: f64) -> f64 {
    let (d, h, k) = (cfg.node_dim as f64, cfg.hidden as f64, cfg.latent_k as f64);
    let (r, hh) = (cfg.resource_dim as f64, cfg.head_hidden as f64);
    let lstm = n * 2.0 * (d * 4.0 * h + h * 4.0 * h);
    let node_attention = n * 2.0 * (2.0 * h * k);
    let resource_keys = n * 2.0 * h * k;
    let resource_query = 2.0 * r * k;
    let head_in = h + h + r + encoding::plan_encoder::PLAN_STAT_FEATURES as f64;
    let head = 2.0 * (head_in * hh + hh * hh / 2.0 + hh / 2.0);
    lstm + node_attention + resource_keys + resource_query + head
}

/// The set-up stages, as timed while the fixture was built on a machine
/// `slowdown` times slower than the reference.
pub fn report_stages(report: &mut Report, stages: &StageTimes, slowdown: f64) {
    report.set("workloads.generate_s", stages.generate_s / slowdown);
    report.set("sparksim.collect_s", stages.collect_s / slowdown);
    report.set(
        "sparksim.plan_candidates_us",
        stages.plan_pool_s * 1e6 / POOL_QUERIES as f64 / slowdown,
    );
    report.set("encoding.w2v_train_s", stages.w2v_train_s / slowdown);
    report.set(
        "raal.train.samples_per_s",
        (TRAIN_SAMPLES * TRAIN_EPOCHS) as f64 / stages.train_s * slowdown,
    );
}

/// Encoder, fallback, kernels and the bare model.
pub fn report_model_side(report: &mut Report, fixture: &Fixture, frozen: &FrozenModel) {
    let cluster = fixture.cluster();
    let plans = &fixture.pool.plans[..SAMPLE_PLANS.min(fixture.pool.plans.len())];
    let nodes: usize = plans.iter().map(|p| p.len()).sum();
    let default_res = ResourceConfig::default_for(cluster);
    let feats = default_res.feature_vector(cluster);

    // encoding
    let encode_ns = ns_per_op(plans.len(), || {
        for p in plans {
            black_box(fixture.encoder.encode(black_box(p)));
        }
    });
    report.set("encoding.encode_us", encode_ns / 1e3);
    report.set("encoding.encode_ns_per_node", encode_ns * plans.len() as f64 / nodes as f64);
    let sentences_ns = ns_per_op(plans.len(), || {
        for p in plans {
            black_box(encoding::tokenizer::plan_sentences(black_box(p)));
        }
    });
    report.set("encoding.plan_sentences_us", sentences_ns / 1e3);

    // sparksim (serving-time share) and baselines
    let states: Vec<ResourceConfig> = ResourceGrid::default().enumerate(cluster);
    report.set(
        "sparksim.feature_vector_ns",
        ns_per_op(states.len(), || {
            for s in &states {
                black_box(black_box(s).feature_vector(cluster));
            }
        }),
    );
    report.set("sparksim.plan_nodes_mean", fixture.pool.mean_nodes());
    report.set(
        "baselines.gpsj_estimate_ns",
        ns_per_op(plans.len(), || {
            for p in plans {
                black_box(fixture.gpsj.estimate_seconds(black_box(p), &default_res));
            }
        }),
    );

    // nn: the LSTM input-gate product, 1 x node_dim times node_dim x 4*hidden.
    let cfg = frozen.model().config();
    let (k, n) = (cfg.node_dim, 4 * cfg.hidden);
    let a: Vec<f32> = (0..k).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos() * 0.1).collect();
    let qb = QuantizedMatrix::quantize(&b, k, n);
    let mut out = vec![0.0f32; n];
    const MATMULS: usize = 2_000;
    report.set(
        "nn.matmul_f32_ns",
        ns_per_op(MATMULS, || {
            for _ in 0..MATMULS {
                matmul_into(black_box(&a), 1, k, &b, n, &mut out);
                black_box(&mut out);
            }
        }),
    );
    report.set(
        "nn.matmul_q8_ns",
        ns_per_op(MATMULS, || {
            for _ in 0..MATMULS {
                matmul_q8_into(black_box(&a), 1, k, &qb, &mut out);
                black_box(&mut out);
            }
        }),
    );
    report.set("nn.gemm_flops_per_plan", gemm_flops_per_plan(cfg, fixture.pool.mean_nodes()));

    // raal.model
    let encoded: Vec<EncodedPlan> = plans.iter().map(|p| fixture.encoder.encode(p)).collect();
    let int8_ns = ns_per_op(encoded.len(), || {
        for e in &encoded {
            black_box(frozen.predict_seconds(black_box(e), &feats));
        }
    });
    // Scratch buffers the thread's arena had to allocate during one more
    // loop now that it is warm: a steady-state predict should need none.
    let warm = raal::thread_arena_stats().fresh_allocs;
    for e in &encoded {
        black_box(frozen.predict_seconds(black_box(e), &feats));
    }
    report.set(
        "raal.model.arena_misses",
        (raal::thread_arena_stats().fresh_allocs - warm) as f64,
    );
    report.set("raal.model.predict_int8_us", int8_ns / 1e3);
    report.set("raal.model.predict_ns_per_node", int8_ns * encoded.len() as f64 / nodes as f64);
    report.set(
        "raal.model.predict_f32_us",
        ns_per_op(encoded.len(), || {
            for e in &encoded {
                black_box(frozen.predict_seconds_f32(black_box(e), &feats));
            }
        }) / 1e3,
    );
    report.set(
        "raal.model.tape_us",
        ns_per_op(encoded.len(), || {
            for e in &encoded {
                black_box(frozen.model().predict_seconds_tape(black_box(e), &feats));
            }
        }) / 1e3,
    );
    for (name, k) in [
        ("raal.model.packed_us_per_plan_k1", 1usize),
        ("raal.model.packed_us_per_plan_k5", 5),
        ("raal.model.packed_us_per_plan_k32", 32),
    ] {
        let usable = encoded.len() / k * k;
        report.set(
            name,
            ns_per_op(usable, || {
                for chunk in encoded[..usable].chunks(k) {
                    let items: Vec<(&EncodedPlan, &[f32])> =
                        chunk.iter().map(|e| (e, feats.as_slice())).collect();
                    black_box(frozen.predict_packed(black_box(&items)));
                }
            }) / 1e3,
        );
    }
    report.set(
        "raal.model.plan_context_us",
        ns_per_op(encoded.len(), || {
            for e in &encoded {
                frozen.recycle_context(black_box(frozen.plan_context(black_box(e))));
            }
        }) / 1e3,
    );
    let contexts: Vec<_> = encoded.iter().map(|e| frozen.plan_context(e)).collect();
    report.set(
        "raal.model.with_context_us",
        ns_per_op(contexts.len(), || {
            for ctx in &contexts {
                black_box(frozen.predict_with_context(black_box(ctx), &feats));
            }
        }) / 1e3,
    );
}

/// The hop primitives, the single-worker tier and the degraded service.
pub fn report_serving_side(report: &mut Report, fixture: &Fixture, machine: Machine) {
    let cluster = fixture.cluster();
    let plans = &fixture.pool.plans[..SAMPLE_PLANS.min(fixture.pool.plans.len())];
    let res = ResourceConfig::default_for(cluster);
    let wait = Duration::from_secs(5);

    let mut single = ServingModel::new(
        ModelBundle::new(fixture.model.clone(), &fixture.encoder),
        Box::new(fixture.gpsj.clone()),
        ServingConfig {
            deadline: wait,
            cluster: cluster.clone(),
            ..ServingConfig::default()
        },
    );
    report.set(
        "raal.serving.predict_us",
        ns_per_op(plans.len(), || {
            for p in plans {
                black_box(single.predict(black_box(p), &res));
            }
        }) / 1e3,
    );
    drop(single);

    const HOPS: usize = 2_000;
    let echo = Handoff::spawn(|x: u64| x);
    report.set(
        "raal.serving.handoff_roundtrip_us",
        ns_per_op(HOPS, || {
            for i in 0..HOPS as u64 {
                echo.send(i);
                black_box(echo.recv_timeout(wait).ok());
            }
        }) / 1e3,
    );
    drop(echo);

    // BatchQueue::push → drain on a second thread → ReplySlot::complete →
    // wait_deadline returns: the client↔dispatcher hop without any work.
    let queue: Arc<BatchQueue<Arc<ReplySlot<u64>>>> = Arc::new(BatchQueue::bounded(64));
    let drainer = {
        let queue = queue.clone();
        std::thread::spawn(move || {
            let mut batch = Vec::new();
            while queue.drain(32, &mut batch) {
                for slot in batch.drain(..) {
                    slot.complete(1);
                }
            }
        })
    };
    report.set(
        "raal.serving.shard.slot_roundtrip_us",
        ns_per_op(HOPS, || {
            for _ in 0..HOPS {
                let slot = Arc::new(ReplySlot::new());
                if queue.push(slot.clone()).is_ok() {
                    black_box(slot.wait_deadline(wait));
                }
            }
        }) / 1e3,
    );
    queue.close();
    drainer.join().expect("drainer thread panicked");

    // Admission + tenant table + fallback alone: no model, no threads.
    let degraded = ShardedServing::degraded(
        Arc::new(fixture.gpsj.clone()),
        shard_config(fixture, machine),
        FallbackReason::Checkpoint,
    );
    report.set(
        "raal.serving.shard.degraded_predict_us",
        ns_per_op(plans.len(), || {
            for p in plans {
                black_box(degraded.predict("client-0", black_box(p), &res));
            }
        }) / 1e3,
    );
}

/// Checkpoint round trip and freeze, timed once each (they are one-shot
/// set-up steps, not loops). The checkpoint is written under `tmp`.
pub fn report_checkpoint(report: &mut Report, fixture: &Fixture, tmp: &Path) {
    let path = tmp.join("bundle.json");
    ModelBundle::new(fixture.model.clone(), &fixture.encoder)
        .save(&path)
        .expect("write the checkpoint under the benchmark's temp dir");
    let mut speed = Speedometer::start();
    let t0 = telemetry::clock_ns();
    let bundle = ModelBundle::load(&path).expect("reload the checkpoint just written");
    let load_ns = telemetry::clock_ns() - t0;
    let t0 = telemetry::clock_ns();
    black_box(FrozenModel::freeze(bundle.model));
    let freeze_ns = telemetry::clock_ns() - t0;
    let slowdown = speed.lap();
    report.set("raal.persist.load_ms", load_ns as f64 / 1e6 / slowdown);
    report.set("raal.model.freeze_ms", freeze_ns as f64 / 1e6 / slowdown);
}

/// Cost of the telemetry primitives in the state telemetry is in *now*
/// (`on` tells which metric names to file them under).
pub fn report_telemetry_primitives(report: &mut Report, on: bool) {
    const OPS: usize = 20_000;
    let count = ns_per_op(OPS, || {
        for _ in 0..OPS {
            telemetry::count("serving.predict", black_box(1));
        }
    });
    let span = ns_per_op(OPS, || {
        for _ in 0..OPS {
            drop(black_box(telemetry::span("serving.predict")));
        }
    });
    if !on {
        report.set("telemetry.count_ns_off", count);
        report.set("telemetry.span_ns_off", span);
        return;
    }
    report.set("telemetry.count_ns_on", count);
    report.set("telemetry.span_ns_on", span);
    report.set(
        "telemetry.observe_ns_on",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                telemetry::observe("serving.predict_us", black_box(200));
            }
        }),
    );
    report.set(
        "telemetry.snapshot_us",
        ns_per_op(50, || {
            for _ in 0..50 {
                black_box(telemetry::metrics_snapshot());
            }
        }) / 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_follow_the_tensor_shapes() {
        let cfg = ModelConfig::raal(100);
        // Per node: 2*(100*256 + 64*256) LSTM + 2*2*64*32 node attention
        // + 2*64*32 resource keys = 83968 + 8192 + 4096.
        let per_node = 96_256.0;
        // Per plan: 2*7*32 query + head 2*((64+64+7+8)*64 + 64*32 + 32).
        let per_plan = 448.0 + 2.0 * (143.0 * 64.0 + 2048.0 + 32.0);
        assert_eq!(gemm_flops_per_plan(&cfg, 1.0), per_node + per_plan);
        assert_eq!(gemm_flops_per_plan(&cfg, 19.0), 19.0 * per_node + per_plan);
    }
}
