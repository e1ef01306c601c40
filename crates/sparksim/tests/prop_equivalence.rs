//! Property tests: every candidate physical plan the planner enumerates
//! must produce exactly the rows of the naive reference evaluator,
//! regardless of join strategy, join order or filter placement.

use proptest::prelude::*;
use sparksim::catalog::Catalog;
use sparksim::exec::reference::execute_reference;
use sparksim::exec::Executor;
use sparksim::plan::planner::{Planner, PlannerOptions};
use sparksim::plan::spec::resolve;
use sparksim::schema::{ColumnDef, TableSchema};
use sparksim::sql::parser::parse;
use sparksim::storage::{Column, ColumnData, Table};
use sparksim::types::{DataType, Value};

fn build_catalog(a_rows: &[(i64, i64)], b_rows: &[(i64, i64)]) -> Catalog {
    let mut c = Catalog::new();
    c.register(Table::new(
        TableSchema::new(
            "ta",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("x", DataType::Int, false),
            ],
        ),
        vec![
            Column::non_null(ColumnData::Int(a_rows.iter().map(|r| r.0).collect())),
            Column::non_null(ColumnData::Int(a_rows.iter().map(|r| r.1).collect())),
        ],
    ));
    c.register(Table::new(
        TableSchema::new(
            "tb",
            vec![
                ColumnDef::new("a_id", DataType::Int, false),
                ColumnDef::new("y", DataType::Int, false),
            ],
        ),
        vec![
            Column::non_null(ColumnData::Int(b_rows.iter().map(|r| r.0).collect())),
            Column::non_null(ColumnData::Int(b_rows.iter().map(|r| r.1).collect())),
        ],
    ));
    c
}

/// Canonicalises result rows for order-insensitive comparison.
fn canon(mut rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut out: Vec<String> = rows
        .drain(..)
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    // Compare numerics at modest precision: the engine may
                    // produce Int where the reference produces Float.
                    Value::Null => "NULL".to_string(),
                    v => match v.as_f64() {
                        Some(f) => format!("{f:.6}"),
                        None => v.to_string(),
                    },
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

fn batch_rows(batch: &sparksim::batch::Batch) -> Vec<Vec<Value>> {
    (0..batch.num_rows())
        .map(|r| batch.entries().iter().map(|(_, c)| c.value(r)).collect())
        .collect()
}

/// Join keys: mostly small, so they collide, and some within 2 of
/// ±2^53, where neighbouring integers round to one `f64`.
fn join_key() -> impl Strategy<Value = i64> {
    const EDGE: i64 = 1 << 53;
    prop_oneof![0..15i64, (-2..3i64).prop_map(|d| EDGE + d), (-2..3i64).prop_map(|d| d - EDGE)]
}

fn check_query(catalog: &Catalog, sql: &str) {
    let q = parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let spec = resolve(&q, catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let expected = canon(execute_reference(catalog, &spec).unwrap());
    let plans = Planner::new(catalog, PlannerOptions::default()).enumerate(&spec);
    assert!(!plans.is_empty());
    let executor = Executor::new(catalog);
    for (i, plan) in plans.iter().enumerate() {
        let result = executor
            .execute(plan)
            .unwrap_or_else(|e| panic!("{sql} plan {i}: {e}\n{}", plan.explain()));
        let got = canon(batch_rows(&result.batch));
        assert_eq!(got, expected, "{sql}\nplan {i} disagrees with reference:\n{}", plan.explain());
    }
}

/// Sort-merge candidates once matched 2^53 with 2^53 + 1 (their merge
/// compared keys through `f64`) while broadcast-hash candidates did not:
/// every candidate must give the reference's exact answer.
#[test]
fn integer_join_keys_past_two_to_the_53_match_exactly() {
    let edge = 1i64 << 53;
    let sql = "SELECT COUNT(*) FROM ta a, tb b WHERE a.id = b.a_id";
    for (a_id, b_id, matches) in [(edge, edge + 1, 0), (edge, edge, 1), (-edge, 1 - edge, 0)] {
        let catalog = build_catalog(&[(a_id, 0)], &[(b_id, 0)]);
        check_query(&catalog, sql);
        let spec = resolve(&parse(sql).unwrap(), &catalog).unwrap();
        assert_eq!(execute_reference(&catalog, &spec).unwrap(), vec![vec![Value::Int(matches)]]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn filtered_count_matches_reference(
        a in prop::collection::vec((0..30i64, 0..50i64), 1..60),
        b in prop::collection::vec((0..30i64, 0..50i64), 1..60),
        cut in 0..50i64,
    ) {
        let catalog = build_catalog(&a, &b);
        check_query(&catalog, &format!("SELECT COUNT(*) FROM ta WHERE ta.x < {cut}"));
        check_query(&catalog, &format!("SELECT COUNT(*) FROM tb WHERE tb.y >= {cut}"));
    }

    #[test]
    fn join_count_matches_reference(
        a in prop::collection::vec((join_key(), 0..50i64), 1..40),
        b in prop::collection::vec((join_key(), 0..50i64), 1..40),
        cut in 0..50i64,
    ) {
        let catalog = build_catalog(&a, &b);
        check_query(
            &catalog,
            &format!("SELECT COUNT(*) FROM ta, tb WHERE ta.id = tb.a_id AND ta.x < {cut}"),
        );
    }

    #[test]
    fn grouped_aggregates_match_reference(
        a in prop::collection::vec((0..10i64, 0..20i64), 1..40),
        b in prop::collection::vec((0..10i64, 0..20i64), 1..40),
    ) {
        let catalog = build_catalog(&a, &b);
        check_query(
            &catalog,
            "SELECT ta.x, COUNT(*), SUM(tb.y) FROM ta, tb WHERE ta.id = tb.a_id GROUP BY ta.x",
        );
    }

    #[test]
    fn complex_predicates_match_reference(
        a in prop::collection::vec((0..20i64, 0..40i64), 1..50),
        lo in 0..20i64,
        width in 1..20i64,
    ) {
        let catalog = build_catalog(&a, &[(0, 0)]);
        check_query(
            &catalog,
            &format!(
                "SELECT COUNT(*) FROM ta WHERE ta.x BETWEEN {lo} AND {} AND ta.id <> 3 \
                 AND ta.id IS NOT NULL",
                lo + width
            ),
        );
    }

    #[test]
    fn order_and_limit_match_reference(
        a in prop::collection::vec((0..25i64, 0..25i64), 1..40),
        n in 1usize..10,
    ) {
        let catalog = build_catalog(&a, &[(0, 0)]);
        // ORDER BY ta.id is a total order (ids may repeat, so compare the
        // *set* of returned ids only when unique); use LIMIT beyond ties.
        let q = parse(&format!(
            "SELECT ta.id FROM ta ORDER BY ta.id LIMIT {n}"
        ))
        .unwrap();
        let spec = resolve(&q, &catalog).unwrap();
        let expected = execute_reference(&catalog, &spec).unwrap();
        let plans = Planner::new(&catalog, PlannerOptions::default()).enumerate(&spec);
        let executor = Executor::new(&catalog);
        for plan in &plans {
            let result = executor.execute(plan).unwrap();
            let got = batch_rows(&result.batch);
            // Both must be ascending prefixes of the same multiset.
            let got_ids: Vec<i64> = got.iter().map(|r| r[0].as_i64().unwrap()).collect();
            let exp_ids: Vec<i64> = expected.iter().map(|r| r[0].as_i64().unwrap()).collect();
            prop_assert_eq!(&got_ids, &exp_ids);
            prop_assert!(got_ids.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
