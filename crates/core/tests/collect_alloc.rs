//! What collection holds while it executes a plan: the fixture-scale
//! 6-way star join (`COUNT(*)`, query 6 of the seed-42 stream at
//! `title_rows` 2 000, the repo benchmark's set-up) runs all its
//! candidates under 8 MB of live heap.
//!
//! The join's top operator matches 426 378 rows, and only its row count
//! is read above it. While the executor materialised every column of
//! every operator's output, each candidate built 426 378 rows × 12
//! `Int` columns here, and set-up's peak live heap (≈ 51 MB) was this
//! query's. A counting `#[global_allocator]`
//! (`common/counting_alloc.rs`) measures the peak, so the bound holds
//! whatever the system allocator keeps resident.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::peak_live_bytes;
use rand::SeedableRng;
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, SimulatorConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

const LIVE_HEAP_BOUND: u64 = 8 << 20;

#[test]
fn the_fixture_star_join_executes_under_its_live_heap_bound() {
    let data = workloads::imdb::generate(&workloads::ImdbConfig { title_rows: 2_000, seed: 42 });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let queries = generate_queries(&data.graph, &QueryGenConfig::default(), 120, &mut rng);
    let sql = &queries[6];
    let from = sql.split(" WHERE ").next().unwrap();
    assert!(sql.starts_with("SELECT COUNT(*)") && from.matches(", ").count() == 5, "{sql}");
    let plans = engine.plan_candidates(sql).unwrap();
    assert_eq!(plans.len(), 5, "{sql}");
    for (i, plan) in plans.iter().enumerate() {
        let (peak, result) = peak_live_bytes(|| engine.execute_plan(plan).unwrap());
        let top_join = result.metrics.iter().map(|m| m.rows_out).fold(0.0, f64::max);
        assert_eq!(top_join, 426_378.0, "candidate {i}: the fixture's data changed");
        println!("candidate {i}: peak live heap {:.1} MB", peak as f64 / 1e6);
        assert!(
            peak < LIVE_HEAP_BOUND,
            "candidate {i} held {peak} bytes at once (bound {LIVE_HEAP_BOUND}):\n{}",
            plan.explain()
        );
    }
}
