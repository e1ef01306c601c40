//! The planner's candidate lists and the simulator's reports, pinned
//! without a golden file: the early exit at `max_plans` returns exactly
//! the prefix a far larger budget returns, every list is pairwise
//! distinct under the rendered fingerprint, and two folds — one over
//! every candidate's text and estimates, one over every field of its
//! simulated reports — equal the constants recorded before refactors.

use sparksim::plan::planner::{Planner, PlannerOptions};
use sparksim::{ClusterConfig, Engine, ResourceGrid, SimulatorConfig};
use workloads::imdb::{generate, ImdbConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

/// FNV-1a fold of every candidate's `explain()` text and of each node's
/// `est_rows` / `est_bytes` bits, over [`QUERIES`] generated queries —
/// recorded at commit `09bb191`, before the planner derived its scans
/// once per `enumerate` and stopped at `max_plans`.
const CANDIDATE_FOLD: u64 = 0xe8f6_26b3_b2d9_73cb;
/// FNV-1a fold of every `SimReport` field's bits, for each candidate of
/// the same queries under every 7th `ResourceGrid::default()` point and
/// two seeds — recorded at commit `1241ccd`, before the fault layer and
/// dynamic allocation were deleted.
const SIM_FOLD: u64 = 0x93a4_37d5_189f_62e4;
const QUERIES: usize = 640;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn engine_and_queries() -> (Engine, Vec<String>) {
    let data = generate(&ImdbConfig { title_rows: 400, seed: 11 });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let queries = generate_queries(&data.graph, &QueryGenConfig::default(), QUERIES, &mut rng);
    assert!(queries.len() >= 600, "only {} queries", queries.len());
    (engine, queries)
}

#[test]
fn early_exit_returns_the_prefix_and_the_same_plans_as_before() {
    let (engine, queries) = engine_and_queries();
    let five = PlannerOptions { max_plans: 5, ..engine.planner_options().clone() };
    let many = PlannerOptions { max_plans: 64, ..five.clone() };
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let (mut candidates, mut truncated) = (0usize, 0usize);
    for sql in &queries {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let plans = Planner::new(engine.catalog(), five.clone()).enumerate(&spec);
        let all = Planner::new(engine.catalog(), many.clone()).enumerate(&spec);
        assert!(!plans.is_empty() && plans.len() <= 5, "{sql}: {} plans", plans.len());
        assert_eq!(plans.len(), all.len().min(5), "{sql}");
        assert!(plans[..] == all[..plans.len()], "{sql}: not the prefix of the larger budget");
        truncated += usize::from(all.len() > 5);

        let prints: Vec<String> = all.iter().map(|p| p.fingerprint()).collect();
        for (i, a) in prints.iter().enumerate() {
            assert!(!prints[..i].contains(a), "{sql}: candidate {i} repeats an earlier one");
        }
        for plan in &plans {
            fnv(&mut fold, plan.explain().as_bytes());
            for node in plan.nodes() {
                fnv(&mut fold, &node.est_rows.to_bits().to_le_bytes());
                fnv(&mut fold, &node.est_bytes.to_bits().to_le_bytes());
            }
        }
        candidates += plans.len();
    }
    assert!(truncated >= 100, "the early exit was reached on only {truncated} queries");
    assert_eq!(
        fold, CANDIDATE_FOLD,
        "{candidates} candidates fold to {fold:#018x}: the planner's output changed"
    );
}

#[test]
fn simulated_reports_are_the_same_bits_as_before() {
    let (engine, queries) = engine_and_queries();
    let cluster = engine.simulator().cluster();
    let states: Vec<_> = ResourceGrid::default()
        .enumerate(cluster)
        .into_iter()
        .step_by(7)
        .collect();
    assert!(states.len() >= 4);
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let mut reports = 0usize;
    for sql in &queries {
        for plan in &engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
            let result = engine.execute_plan(plan).unwrap_or_else(|e| panic!("{sql}: {e}"));
            for res in &states {
                for seed in [1u64, 7] {
                    let r = engine.resimulate(plan, &result, res, seed);
                    fnv(&mut fold, &r.seconds.to_bits().to_le_bytes());
                    fnv(&mut fold, &(r.stage_seconds.len() as u64).to_le_bytes());
                    for s in &r.stage_seconds {
                        fnv(&mut fold, &s.to_bits().to_le_bytes());
                    }
                    fnv(&mut fold, &r.spill_bytes.to_bits().to_le_bytes());
                    fnv(&mut fold, &r.gc_seconds.to_bits().to_le_bytes());
                    fnv(&mut fold, &(r.effective_executors as u64).to_le_bytes());
                    fnv(&mut fold, &r.cache_hit.to_bits().to_le_bytes());
                    fnv(&mut fold, &[u8::from(r.broadcast_overflow)]);
                    reports += 1;
                }
            }
        }
    }
    assert_eq!(
        fold, SIM_FOLD,
        "{reports} reports fold to {fold:#018x}: the simulator's output changed"
    );
}
