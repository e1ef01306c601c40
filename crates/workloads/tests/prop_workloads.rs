//! Property tests for the workload generators: every generated query must
//! parse, resolve and plan against its own dataset, for arbitrary
//! generator settings and seeds.

use proptest::prelude::*;
use sparksim::plan::planner::{Planner, PlannerOptions};
use sparksim::plan::spec::resolve;
use sparksim::sql::parser::parse;
use workloads::querygen::{generate_queries, QueryGenConfig};

// Generating datasets is the expensive part: build them once.
fn imdb() -> &'static workloads::ImdbDataset {
    use std::sync::OnceLock;
    static DATA: OnceLock<workloads::ImdbDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        workloads::imdb::generate(&workloads::imdb::ImdbConfig { title_rows: 300, seed: 1 })
    })
}

fn tpch() -> &'static workloads::TpchDataset {
    use std::sync::OnceLock;
    static DATA: OnceLock<workloads::TpchDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        workloads::tpch::generate(&workloads::tpch::TpchConfig { customer_rows: 120, seed: 1 })
    })
}

/// The serving plan-context cache keys on
/// `PhysicalPlan::structural_hash`; over a few thousand generated
/// candidate plans, two plans share a hash only when they are equal.
#[test]
fn structural_hash_does_not_collide_over_generated_plans() {
    let data = imdb();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let planner = Planner::new(&data.catalog, PlannerOptions::default());
    let mut plans = Vec::new();
    for sql in generate_queries(&data.graph, &QueryGenConfig::default(), 800, &mut rng) {
        let spec = resolve(&parse(&sql).expect("generated SQL parses"), &data.catalog)
            .expect("generated SQL resolves");
        plans.extend(planner.enumerate(&spec));
    }
    assert!(plans.len() >= 2000, "only {} plans generated", plans.len());
    let mut by_hash: Vec<(u64, usize)> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| (p.structural_hash(), i))
        .collect();
    by_hash.sort_unstable();
    let mut distinct = 1;
    for pair in by_hash.windows(2) {
        let ((ha, a), (hb, b)) = (pair[0], pair[1]);
        if ha == hb {
            assert_eq!(plans[a], plans[b], "two different plans hash to {ha:#x}");
        } else {
            distinct += 1;
        }
    }
    assert!(distinct >= 2000, "only {distinct} distinct plans among {}", plans.len());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn imdb_queries_always_plan(
        seed in 0u64..10_000,
        max_joins in 0usize..5,
        string_prob in 0.0f64..1.0,
    ) {
        let data = imdb();
        let cfg = QueryGenConfig {
            max_joins,
            string_predicate_prob: string_prob,
            ..QueryGenConfig::default()
        };
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for sql in generate_queries(&data.graph, &cfg, 6, &mut rng) {
            let q = parse(&sql).map_err(|e| TestCaseError::fail(format!("{sql}: {e}")))?;
            let spec = resolve(&q, &data.catalog)
                .map_err(|e| TestCaseError::fail(format!("{sql}: {e}")))?;
            let plans = Planner::new(&data.catalog, PlannerOptions::default()).enumerate(&spec);
            prop_assert!(!plans.is_empty(), "{}", sql);
            // Join count in the plan never exceeds the generator's cap.
            for p in &plans {
                prop_assert!(p.join_nodes().len() <= max_joins, "{}", sql);
            }
        }
    }

    #[test]
    fn tpch_queries_always_plan(seed in 0u64..10_000) {
        let data = tpch();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for sql in generate_queries(&data.graph, &QueryGenConfig::default(), 6, &mut rng) {
            let q = parse(&sql).map_err(|e| TestCaseError::fail(format!("{sql}: {e}")))?;
            let spec = resolve(&q, &data.catalog)
                .map_err(|e| TestCaseError::fail(format!("{sql}: {e}")))?;
            let plans = Planner::new(&data.catalog, PlannerOptions::default()).enumerate(&spec);
            prop_assert!(!plans.is_empty(), "{}", sql);
        }
    }
}
