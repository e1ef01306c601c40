//! Dynamic witness for the static hot-path guarantee checked by
//! `analysis::panic` (`raal-lint --strict`): after warmup, a
//! steady-state prediction performs **zero heap allocations**.
//!
//! A counting `#[global_allocator]` (`common/counting_alloc.rs`)
//! tallies the armed thread's allocations. The test warms the
//! thread-local inference arena, arms the counter, runs a batch of
//! predictions, and asserts the count stayed at zero. Serving runs on
//! the calling thread too, so three more tests hold a served call to
//! the same standard: none for a cached plan, the encoder's own four for
//! an uncached one, and for a query's K uncached candidates those four
//! each plus the answer vector and the call's operator memo.

mod common;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count_allocs;
use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
use raal::serving::{PredictionSource, ServingConfig};
use raal::{CostModel, FrozenModel, ModelConfig, ShardConfig, ShardedServing};
use sparksim::engine::Engine;
use sparksim::resource::{ClusterConfig, ResourceConfig};

const DIM: usize = 10;

fn toy_plan(n: usize) -> EncodedPlan {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| (0..DIM).map(|d| ((i * 5 + d) % 11) as f32 / 11.0).collect())
        .collect();
    let children: Vec<Vec<usize>> =
        (0..n).map(|i| if i == 0 { vec![] } else { vec![i - 1] }).collect();
    EncodedPlan::from_rows(&rows, &children, [0.2; PLAN_STAT_FEATURES])
}

/// `SELECT COUNT(*) FROM t WHERE id < bound`: one plan shape, a
/// different plan (literal, row estimates) per `bound`.
fn count_below(engine: &Engine, bound: usize) -> sparksim::PhysicalPlan {
    engine
        .plan_candidates(&format!("SELECT COUNT(*) FROM t WHERE id < {bound}"))
        .unwrap()
        .remove(0)
}

/// The tiny bundle served with a deadline no call here comes near.
fn tiny_service() -> ShardedServing {
    ShardedServing::new(
        common::tiny_bundle(),
        std::sync::Arc::new(|plan: &sparksim::PhysicalPlan, _: &ResourceConfig| plan.len() as f64),
        ShardConfig {
            serving: ServingConfig {
                deadline: std::time::Duration::from_secs(30),
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn steady_state_predict_is_allocation_free() {
    let model = CostModel::new(ModelConfig {
        hidden: 8,
        latent_k: 4,
        head_hidden: 8,
        ..ModelConfig::raal(DIM)
    });
    let frozen = FrozenModel::freeze(model);
    let plan = toy_plan(6);
    let resources = vec![1.0f32, 1.0, 0.25, 0.5, 0.25, 0.9, 0.8];

    // Warmup: populate the thread-local arena pools (and any lazy
    // telemetry state).
    let mut warm = 0.0;
    for _ in 0..32 {
        warm += frozen.predict_seconds(&plan, &resources);
    }
    assert!(warm.is_finite());

    // Steady state: every buffer comes from the arena, so the global
    // allocator must not be touched at all.
    let (allocs, y) = count_allocs(|| {
        (0..64)
            .map(|_| frozen.predict_seconds(&plan, &resources))
            .sum::<f64>()
    });
    assert!(y.is_finite());
    assert_eq!(allocs, 0, "steady-state predict_seconds touched the heap {allocs} time(s)");
}

/// The serving path for a plan whose context is cached: fingerprint,
/// lookup, equality confirm and the head all run on the calling thread
/// out of its arena, and nothing touches the heap. (A miss encodes the
/// plan — four allocations — so zero also shows these calls hit.)
#[test]
fn served_hit_is_allocation_free() {
    let plan = count_below(&common::engine(), 40);
    let service = tiny_service();
    let cluster = ClusterConfig::default();
    let sweep: Vec<ResourceConfig> = (1..=4)
        .map(|executors| ResourceConfig { executors, ..ResourceConfig::default_for(&cluster) })
        .collect();

    // Warm-up: two sightings admit the plan, the rest warm this
    // thread's arena.
    for res in sweep.iter().cycle().take(8) {
        assert_eq!(service.predict("warm", &plan, res).source, PredictionSource::Model);
    }

    let (allocs, all_model) = count_allocs(|| {
        sweep
            .iter()
            .cycle()
            .take(64)
            .all(|res| service.predict("warm", &plan, res).source == PredictionSource::Model)
    });
    assert!(all_model);
    assert_eq!(allocs, 0, "{allocs} allocations over 64 served hits");
}

/// A plan the cache has never seen: the caller encodes it, builds its
/// context out of its arena and prices it. What is left on the heap is
/// the encoder's — the `EncodedPlan`'s three buffers and the
/// tokenizer's word scratch. (It read 129 before the encoder streamed,
/// and 8 while a job, a reply slot and an outcome crossed a thread.)
/// Counted over same-shaped plans none of which repeats: a repeat would
/// be cached.
#[test]
fn served_miss_allocates_only_what_the_encoder_does() {
    const PER_PREDICT: u64 = 4;
    const WARM: usize = 16;
    const CALLS: u64 = 64;
    let engine = common::engine();
    // Three-digit bounds: every statement tokenizes to the same shape.
    let plans: Vec<_> = (100..100 + WARM + CALLS as usize)
        .map(|bound| count_below(&engine, bound))
        .collect();
    let service = tiny_service();
    let res = ResourceConfig::default_for(&ClusterConfig::default());
    let served_by_model =
        |plan| service.predict("miss", plan, &res).source == PredictionSource::Model;

    // Warm-up: this thread's arena, the tenant entry.
    assert!(plans[..WARM].iter().all(served_by_model));

    let (allocs, all_model) = count_allocs(|| plans[WARM..].iter().all(served_by_model));
    assert!(all_model);
    assert!(allocs <= PER_PREDICT * CALLS, "{allocs} allocations over {CALLS} served misses");
}

/// K candidates of one query, none seen before: what each plan's
/// encoding allocates, the answer vector, and the block buffer of the
/// call's operator memo — which must not grow as the call's operators
/// accumulate. Every call asks about a different literal, so no plan
/// repeats.
#[test]
fn served_candidate_set_allocates_per_plan_plus_the_calls_own() {
    const WARM: usize = 8;
    const CALLS: usize = 32;
    let engine = common::engine();
    let sets: Vec<Vec<sparksim::PhysicalPlan>> = (100..100 + WARM + CALLS)
        .map(|bound| {
            let sql = format!(
                "SELECT t.x, COUNT(*) FROM t, u WHERE t.id = u.t_id AND u.y < {bound} GROUP BY t.x"
            );
            engine.plan_candidates(&sql).unwrap()
        })
        .collect();
    let k = sets[0].len();
    assert!(k >= 2 && sets.iter().all(|set| set.len() == k), "{k} candidates a query");
    let service = tiny_service();
    let res = ResourceConfig::default_for(&ClusterConfig::default());
    let refs: Vec<Vec<&sparksim::PhysicalPlan>> =
        sets.iter().map(|set| set.iter().collect()).collect();
    let served_by_model = |set: &Vec<&sparksim::PhysicalPlan>| {
        let answers = service.predict_many("select", set, &res);
        answers.iter().all(|a| a.source == PredictionSource::Model)
    };

    assert!(refs[..WARM].iter().all(served_by_model));

    let (allocs, all_model) = count_allocs(|| refs[WARM..].iter().all(served_by_model));
    assert!(all_model);
    assert!(
        allocs <= ((4 * k + 3) * CALLS) as u64,
        "{allocs} allocations over {CALLS} calls of {k} candidates"
    );
}
