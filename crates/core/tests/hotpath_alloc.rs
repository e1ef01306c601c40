//! Dynamic witness for the static hot-path guarantee checked by
//! `analysis::panic` (`raal-lint --strict`): after warmup, a
//! steady-state prediction performs **zero heap allocations**.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies every `alloc`/`realloc` made by the *armed thread*. The
//! counters are thread-local on purpose: the prediction runs entirely
//! on the calling thread, while the libtest harness's main thread may
//! concurrently park on its test-completion channel — which lazily
//! allocates a waker — and a process-global counter would (flakily)
//! pick that up. The test warms the thread-local inference arena, arms
//! the counter, runs a batch of predictions, and asserts the count
//! stayed at zero. A second test holds the served
//! route for a cached plan to one allocation per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
use encoding::word2vec::{train as w2v_train, W2vConfig};
use encoding::{EncoderConfig, PlanEncoder};
use raal::serving::{PredictionSource, ServingConfig};
use raal::{CostModel, FrozenModel, ModelBundle, ModelConfig, ShardConfig, ShardedServing};
use sparksim::catalog::Catalog;
use sparksim::engine::Engine;
use sparksim::resource::{ClusterConfig, ResourceConfig};
use sparksim::schema::{ColumnDef, TableSchema};
use sparksim::storage::{Column, ColumnData, Table};
use sparksim::types::DataType;

/// System allocator wrapper that counts the armed thread's allocations.
struct CountingAlloc;

thread_local! {
    // const-initialized so the TLS access itself never allocates (a
    // lazily-initialized thread-local would recurse into `alloc`).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // try_with: TLS may be unavailable during thread teardown; those
    // allocations belong to the runtime, not the measured code.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same deferral to `System` as `alloc` above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocation counter armed; returns its
/// tally.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(|n| n.get()), r)
}

const DIM: usize = 10;

fn toy_plan(n: usize) -> EncodedPlan {
    EncodedPlan {
        node_features: (0..n)
            .map(|i| (0..DIM).map(|d| ((i * 5 + d) % 11) as f32 / 11.0).collect())
            .collect(),
        children: (0..n).map(|i| if i == 0 { vec![] } else { vec![i - 1] }).collect(),
        plan_stats: vec![0.2; PLAN_STAT_FEATURES],
    }
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
/// out of its arena, and the only heap allocation left per `predict`
/// is the one-slot list of looked-up plans. (A miss encodes the plan,
/// builds a job and a reply slot — a dozen allocations — so staying at
/// one also shows these calls hit.)
#[test]
fn served_hit_allocates_at_most_once_per_predict() {
    let mut catalog = Catalog::new();
    catalog.register(Table::new(
        TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
        vec![Column::non_null(ColumnData::Int((0..100).collect()))],
    ));
    let plan = Engine::new(catalog)
        .plan_candidates("SELECT COUNT(*) FROM t WHERE id < 40")
        .unwrap()
        .remove(0);
    let corpus = vec![vec!["filescan".to_string(), "hashaggregate".to_string()]];
    let encoder = PlanEncoder::new(
        w2v_train(&corpus, &W2vConfig { dim: 4, epochs: 1, ..Default::default() }),
        EncoderConfig { max_nodes: 32, structure: true },
    );
    let model = CostModel::new(ModelConfig {
        hidden: 8,
        latent_k: 4,
        head_hidden: 8,
        ..ModelConfig::raal(encoder.node_dim())
    });
    let service = ShardedServing::new(
        ModelBundle::new(model, &encoder),
        std::sync::Arc::new(|plan: &sparksim::PhysicalPlan, _: &ResourceConfig| plan.len() as f64),
        ShardConfig {
            shards: 1,
            serving: ServingConfig {
                deadline: std::time::Duration::from_secs(30),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let cluster = ClusterConfig::default();
    let sweep: Vec<ResourceConfig> = (1..=4)
        .map(|executors| ResourceConfig { executors, ..ResourceConfig::default_for(&cluster) })
        .collect();

    // Warm-up: two sightings admit the plan, the rest warm this
    // thread's arena on the in-place route.
    for res in sweep.iter().cycle().take(8) {
        assert_eq!(service.predict("warm", &plan, res).source, PredictionSource::Model);
    }

    const CALLS: u64 = 64;
    let (allocs, all_model) = count_allocs(|| {
        sweep
            .iter()
            .cycle()
            .take(CALLS as usize)
            .all(|res| service.predict("warm", &plan, res).source == PredictionSource::Model)
    });
    assert!(all_model);
    assert!(allocs <= CALLS, "{allocs} allocations over {CALLS} served hits");
}
