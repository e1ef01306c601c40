//! The inference engine's contracts, across random plans, random
//! resource vectors and every model variant:
//!
//! * the tape-free path agrees with the autograd-tape reference forward
//!   pass within 1e-5, and a frozen handle returns the same bits;
//! * packed/batched scoring agrees with per-item scoring bit-for-bit;
//! * `FrozenModel` is a shareable `Send + Sync` handle and replicas
//!   share one weight copy;
//! * a warmed prediction loop stops allocating inference scratch.

use encoding::plan_encoder::EncodedPlan;
use proptest::prelude::*;
use raal::{CostModel, FrozenModel, ModelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODE_DIM: usize = 10;

/// A random plan: a chain backbone (every node consumes its predecessor)
/// with extra child edges thrown in, so node-aware attention sees both
/// leaf nodes and multi-child joins.
fn random_plan(rng: &mut StdRng, n: usize) -> EncodedPlan {
    random_plan_of(rng, n, NODE_DIM, 0.0)
}

/// [`random_plan`] at any feature width, a `zeros` share of the entries
/// exactly zero (the plan encoder's rows are about 60% zeros).
fn random_plan_of(rng: &mut StdRng, n: usize, node_dim: usize, zeros: f64) -> EncodedPlan {
    let node_features: Vec<Vec<f32>> = (0..n)
        .map(|_| {
            (0..node_dim)
                .map(|_| {
                    if zeros > 0.0 && rng.gen_bool(zeros) {
                        0.0
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect()
        })
        .collect();
    let children: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            if i == 0 {
                return Vec::new();
            }
            let mut kids = vec![i - 1];
            for j in 0..i - 1 {
                if rng.gen_bool(0.3) {
                    kids.push(j);
                }
            }
            kids
        })
        .collect();
    let plan_stats = std::array::from_fn(|_| rng.gen_range(0.0f32..1.0));
    EncodedPlan::from_rows(&node_features, &children, plan_stats)
}

fn variant(idx: usize) -> ModelConfig {
    let cfg = match idx % 4 {
        0 => ModelConfig::raal(NODE_DIM),
        1 => ModelConfig::na_lstm(NODE_DIM),
        2 => ModelConfig::raac(NODE_DIM),
        _ => ModelConfig::raal(NODE_DIM).without_resources(),
    };
    // Small dims keep the tape pass cheap. The kernels pick their tiles
    // from the shape, so the served widths have cases of their own below.
    ModelConfig { hidden: 12, latent_k: 6, head_hidden: 10, ..cfg }
}

/// The fast path, the cached-context path and a frozen handle against
/// the tape, for one plan under one model.
fn check_fast_path(
    rng: &mut StdRng,
    plan: &EncodedPlan,
    cfg: ModelConfig,
    what: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let resources: Vec<f32> = (0..cfg.resource_dim).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    let model = CostModel::new(cfg);

    let fast = model.predict_seconds(plan, &resources);
    let tape = model.predict_seconds_tape(plan, &resources);
    let rel = (fast - tape).abs() / tape.abs().max(1e-6);
    prop_assert!(rel <= 1e-5, "fast={fast} tape={tape} rel={rel} {what}");

    // The cached-context path must agree with the one-shot fast path.
    let ctx = model.plan_context(plan);
    prop_assert_eq!(model.predict_with_context(&ctx, &resources), fast);

    // Freezing moves the model, it does not change an answer — and a
    // context built before the move is still current after it.
    let frozen = FrozenModel::freeze(model);
    prop_assert_eq!(frozen.predict_seconds(plan, &resources), fast);
    prop_assert_eq!(frozen.predict_with_context(&ctx, &resources), fast);
    frozen.recycle_context(ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The widths that are served — 94-wide encoder-like rows, hidden 64,
    /// latent 32 — over the whole range of plan lengths, so the row-tiled
    /// products and their zero-skip meet the tape too.
    #[test]
    fn fast_path_agrees_with_tape_at_served_widths(
        n in 1usize..35,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = random_plan_of(&mut rng, n, 94, 0.6);
        let cfg = ModelConfig { seed: seed ^ 0x5eed, ..ModelConfig::raal(94) };
        prop_assert_eq!((cfg.hidden, cfg.latent_k), (64, 32));
        check_fast_path(&mut rng, &plan, cfg, &format!("n={n} served widths"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn fast_path_agrees_with_tape(
        n in 1usize..9,
        seed in 0u64..1_000_000,
        variant_idx in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = random_plan(&mut rng, n);
        let cfg = ModelConfig { seed: seed ^ 0x5eed, ..variant(variant_idx) };
        check_fast_path(&mut rng, &plan, cfg, &format!("n={n} variant={variant_idx}"))?;
    }

    /// K-plan scoring (`predict_packed`) is bit-identical to per-item
    /// scoring on every variant: it is a loop over the per-plan path.
    #[test]
    fn packed_matches_per_item(
        k in 1usize..6,
        seed in 0u64..1_000_000,
        variant_idx in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plans: Vec<EncodedPlan> =
            (0..k).map(|i| random_plan(&mut rng, 2 + (i % 6))).collect();
        let cfg = ModelConfig { seed: seed ^ 0xba7c4, ..variant(variant_idx) };
        let resources: Vec<f32> =
            (0..cfg.resource_dim).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let frozen = FrozenModel::freeze(CostModel::new(cfg));
        let items: Vec<(&EncodedPlan, &[f32])> =
            plans.iter().map(|p| (p, resources.as_slice())).collect();

        let packed = frozen.predict_packed(&items);
        for (i, plan) in plans.iter().enumerate() {
            let single = frozen.predict_seconds(plan, &resources);
            prop_assert_eq!(packed[i], single, "packed row {} diverged", i);
        }
    }
}

#[test]
fn frozen_model_is_send_sync_and_shares_weights() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenModel>();

    let frozen = FrozenModel::freeze(CostModel::new(variant(0)));
    assert_eq!(frozen.replicas(), 1);
    let replica = frozen.clone();
    assert_eq!(frozen.replicas(), 2);

    // Replicas answer from the same weights, concurrently.
    let mut rng = StdRng::seed_from_u64(11);
    let plan = random_plan(&mut rng, 5);
    let resources: Vec<f32> = vec![0.5; frozen.model().config().resource_dim];
    let expected = frozen.predict_seconds(&plan, &resources);
    let got = std::thread::spawn(move || replica.predict_seconds(&plan, &resources))
        .join()
        .unwrap();
    assert_eq!(got, expected);
    assert_eq!(frozen.replicas(), 1);
}

/// The arena contract the serving loop relies on: after a warm-up
/// prediction sizes the thread-local pool, further predictions on
/// same-shaped inputs perform no fresh inference-scratch allocations
/// and the arena's high-water mark stays put.
#[test]
fn warmed_predictions_reuse_arena_scratch() {
    let mut rng = StdRng::seed_from_u64(23);
    let plan = random_plan(&mut rng, 6);
    let cfg = variant(0);
    let resources: Vec<f32> = vec![0.5; cfg.resource_dim];
    let frozen = FrozenModel::freeze(CostModel::new(cfg));

    // Run on a dedicated thread so this test owns its thread-local arena.
    let (warm, done) = std::thread::spawn(move || {
        // The pool is LIFO and a buffer only ever grows, so it takes a
        // few passes before every slot has met its largest request.
        for _ in 0..8 {
            let _ = frozen.predict_seconds(&plan, &resources);
        }
        let warm = raal::thread_arena_stats();
        for _ in 0..32 {
            let _ = frozen.predict_seconds(&plan, &resources);
        }
        (warm, raal::thread_arena_stats())
    })
    .join()
    .unwrap();
    assert!(done.takes > warm.takes, "the steady-state loop never touched the arena");
    assert_eq!(
        done.fresh_allocs, warm.fresh_allocs,
        "steady-state predictions allocated fresh scratch: {done:?} after warm-up {warm:?}"
    );
    assert_eq!(
        done.high_water_len, warm.high_water_len,
        "arena high-water mark moved in steady state"
    );
}
