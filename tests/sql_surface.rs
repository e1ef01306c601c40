//! SQL surface tests through the full engine: every construct the
//! workload generators emit, checked for exact results on a hand-built
//! dataset by every candidate plan and by the reference evaluator; and
//! everything outside that language, checked to be a typed error.

use proptest::prelude::*;
use sparksim::catalog::Catalog;
use sparksim::engine::{Engine, EngineError};
use sparksim::exec::reference::execute_reference;
use sparksim::schema::{ColumnDef, TableSchema};
use sparksim::storage::{Column, ColumnData, StrColumnBuilder, Table};
use sparksim::types::{DataType, Value};

fn engine() -> Engine {
    let mut c = Catalog::new();
    // people(id, age, city) — city has NULLs.
    let mut city = StrColumnBuilder::new();
    for v in ["oslo", "lima", "oslo", "kyiv", "lima", "oslo"] {
        city.push(v);
    }
    city.push_null();
    city.push("kyiv");
    c.register(Table::new(
        TableSchema::new(
            "people",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("age", DataType::Int, false),
                ColumnDef::new("city", DataType::Str, true),
            ],
        ),
        vec![
            Column::non_null(ColumnData::Int((0..8).collect())),
            Column::non_null(ColumnData::Int(vec![25, 32, 41, 18, 55, 32, 47, 29])),
            city.finish(),
        ],
    ));
    // visits(person_id, score)
    c.register(Table::new(
        TableSchema::new(
            "visits",
            vec![
                ColumnDef::new("person_id", DataType::Int, false),
                ColumnDef::new("score", DataType::Float, false),
            ],
        ),
        vec![
            Column::non_null(ColumnData::Int(vec![0, 0, 1, 3, 3, 3, 6])),
            Column::non_null(ColumnData::Float(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])),
        ],
    ));
    Engine::new(c)
}

/// The query's scalar result, which every candidate plan and the
/// reference evaluator must agree on.
fn count(engine: &Engine, sql: &str) -> i64 {
    let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let rows = execute_reference(engine.catalog(), &spec).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let expected = match rows.as_slice() {
        [row] if row.len() == 1 => row[0].as_i64(),
        _ => None,
    }
    .unwrap_or_else(|| panic!("{sql}: expected scalar, reference gave {rows:?}"));
    let plans = engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert!(!plans.is_empty(), "{sql}: no candidate plan");
    for (i, plan) in plans.iter().enumerate() {
        let got = engine
            .execute_plan(plan)
            .unwrap_or_else(|e| panic!("{sql} plan {i}: {e}"));
        assert_eq!(
            got.scalar_i64(),
            Some(expected),
            "{sql}\nplan {i} disagrees with the reference:\n{}",
            plan.explain()
        );
    }
    expected
}

#[test]
fn comparison_operators() {
    let e = engine();
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.age < 30"), 3);
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.age <= 32"), 5);
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.age = 32"), 2);
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.age <> 32"), 6);
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.age >= 47"), 2);
}

#[test]
fn null_semantics() {
    let e = engine();
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.city IS NOT NULL"), 7);
    // The NULL city row passes neither an equality predicate nor its
    // complement (three-valued logic): 3 + 4 of 8 rows.
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.city = 'oslo'"), 3);
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.city <> 'oslo'"), 4);
}

/// `BETWEEN` and `LIKE` are in the language; `IN` and `OR` are not.
#[test]
fn between_in_like_or() {
    let e = engine();
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.age BETWEEN 29 AND 41"), 4);
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people WHERE people.city LIKE 'o%'"), 3);
    for sql in [
        "SELECT COUNT(*) FROM people WHERE people.age IN (18, 55, 99)",
        "SELECT COUNT(*) FROM people WHERE people.age < 20 OR people.city = 'kyiv'",
    ] {
        assert!(matches!(e.plan_candidates(sql), Err(EngineError::Parse(_))), "{sql}");
    }
}

#[test]
fn joins_and_aggregates() {
    let e = engine();
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people p, visits v WHERE p.id = v.person_id"), 7);
    assert_eq!(
        count(
            &e,
            "SELECT COUNT(*) FROM people p, visits v \
             WHERE p.id = v.person_id AND p.age < 30"
        ),
        5,
        "ids 0 (2 visits) and 3 (3 visits)"
    );
    let r = e
        .run_sql("SELECT SUM(v.score), AVG(v.score), MIN(v.score), MAX(v.score) FROM visits v")
        .unwrap();
    let vals: Vec<Value> = (0..4).map(|i| r.batch.entries()[i].1.value(0)).collect();
    assert_eq!(vals[0].as_f64(), Some(28.0));
    assert_eq!(vals[1].as_f64(), Some(4.0));
    assert_eq!(vals[2].as_f64(), Some(1.0));
    assert_eq!(vals[3].as_f64(), Some(7.0));
}

#[test]
fn group_by_with_nulls_and_strings() {
    let e = engine();
    let r = e
        .run_sql("SELECT people.city, COUNT(*) FROM people GROUP BY people.city")
        .unwrap();
    assert_eq!(r.batch.num_rows(), 4, "oslo, lima, kyiv, NULL");
    let mut by_city = std::collections::HashMap::new();
    for i in 0..r.batch.num_rows() {
        let city = match r.batch.entries()[0].1.value(i) {
            Value::Str(s) => s,
            Value::Null => "<null>".to_string(),
            other => panic!("unexpected group key {other:?}"),
        };
        by_city.insert(city, r.batch.entries()[1].1.value(i).as_i64().unwrap());
    }
    assert_eq!(by_city["oslo"], 3);
    assert_eq!(by_city["lima"], 2);
    assert_eq!(by_city["kyiv"], 2);
    assert_eq!(by_city["<null>"], 1);
}

#[test]
fn order_by_and_limit() {
    let e = engine();
    let r = e
        .run_sql(
            "SELECT people.id FROM people WHERE people.age > 30 ORDER BY people.id DESC LIMIT 3",
        )
        .unwrap();
    let ids: Vec<i64> = (0..r.batch.num_rows())
        .map(|i| r.batch.entries()[0].1.value(i).as_i64().unwrap())
        .collect();
    assert_eq!(ids, vec![6, 5, 4]);
}

#[test]
fn self_join_with_aliases() {
    let e = engine();
    // Ordered pairs of people with the same age: 8 self pairs, and 32
    // appears twice -> 2 more.
    assert_eq!(count(&e, "SELECT COUNT(*) FROM people a, people b WHERE a.age = b.age"), 10);
}

#[test]
fn cross_type_numeric_comparison() {
    let e = engine();
    // Float column vs integer literal.
    assert_eq!(count(&e, "SELECT COUNT(*) FROM visits WHERE visits.score > 4"), 3);
    assert_eq!(count(&e, "SELECT COUNT(*) FROM visits WHERE visits.score = 4"), 1);
}

#[test]
fn error_paths_are_reported_not_panics() {
    let e = engine();
    assert!(e.run_sql("SELECT COUNT(*) FROM ghosts").is_err());
    assert!(e
        .run_sql("SELECT COUNT(*) FROM people WHERE people.ghost = 1")
        .is_err());
    assert!(e.run_sql("SELECT COUNT(* FROM people").is_err());
    assert!(
        e.run_sql("SELECT COUNT(*) FROM people, visits WHERE people.age > 1")
            .is_err(),
        "cross products are rejected"
    );
}

/// A factor that is neither an equi-join nor a filter on one binding is a
/// resolve error, never silently dropped from a plan; `OR`, `NOT`, `IN`,
/// `IS NULL` and parentheses are parse errors.
#[test]
fn predicates_outside_the_conjunction_are_typed_errors() {
    let e = engine();
    for sql in [
        "SELECT COUNT(*) FROM people WHERE 1 = 0",
        "SELECT COUNT(*) FROM people WHERE people.age < 30 AND 1 = 0",
        "SELECT COUNT(*) FROM people p, visits v WHERE p.id = v.person_id AND p.age < v.score",
    ] {
        assert!(matches!(e.plan_candidates(sql), Err(EngineError::Resolve(_))), "{sql}");
    }
    for pred in [
        "people.age < 20 OR people.age > 50",
        "NOT people.age < 20",
        "people.age IN (18, 55)",
        "people.city IS NULL",
        "(people.age < 20)",
    ] {
        let sql = format!("SELECT COUNT(*) FROM people WHERE {pred}");
        assert!(matches!(e.plan_candidates(&sql), Err(EngineError::Parse(_))), "{sql}");
    }
}

/// WHERE-clause atoms in and out of the language.
const ATOMS: &[&str] = &[
    "people.age < 30",
    "people.city = 'oslo'",
    "people.city LIKE 'o%'",
    "people.age <> 32",
    "people.age BETWEEN 20 AND 40",
    "people.city IS NOT NULL",
    "people.id = people.age",
    "p.id = v.person_id",
    "v.score >= 2.5",
    "p.age < v.score",
    "1 = 0",
    "NOT people.age < 30",
    "(people.age < 30)",
    "people.age IN (18, 55)",
    "people.city IS NULL",
    "people.ghost = 1",
];
/// The parser's keywords and symbols, one token each.
const TOKENS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "GROUP", "BY", "ORDER", "LIMIT", "AS", "COUNT", "BETWEEN",
    "LIKE", "IS", "NOT", "NULL", "OR", "IN", "(", ")", ",", ".", "*", "=", "<>", "<", ">=", "-1",
];
const JOINERS: &[&str] = &["AND", "AND", "AND", "OR", "AND NOT"];
const PREFIXES: &[&str] = &[
    "SELECT COUNT(*) FROM people WHERE",
    "SELECT COUNT(*) FROM people p, visits v WHERE p.id = v.person_id AND",
    "SELECT people.city, COUNT(*) FROM people WHERE",
];
const TAILS: &[&str] = &["", "", "GROUP BY people.city", "ORDER BY people.city LIMIT 3"];

fn pick(words: &'static [&'static str]) -> BoxedStrategy<&'static str> {
    (0..words.len()).prop_map(move |i| words[i]).boxed()
}

/// `prefix atom (joiner atom)* tail`, where one word in four is a bare
/// token instead of an atom or a joiner.
fn token_sql() -> impl Strategy<Value = String> {
    let atom = || prop_oneof![pick(ATOMS), pick(ATOMS), pick(ATOMS), pick(TOKENS)];
    let joiner = prop_oneof![pick(JOINERS), pick(JOINERS), pick(JOINERS), pick(TOKENS)];
    let rest = prop::collection::vec((joiner, atom()), 0..4);
    (pick(PREFIXES), atom(), rest, pick(TAILS)).prop_map(|(prefix, first, rest, tail)| {
        let mut sql = format!("{prefix} {first}");
        for (joiner, atom) in rest {
            sql.push_str(&format!(" {joiner} {atom}"));
        }
        format!("{sql} {tail}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Any token sequence plans or fails with a typed error; none panics.
    #[test]
    fn token_sequences_plan_or_fail_typed(sql in token_sql()) {
        let e = engine();
        let planned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.plan_candidates(&sql).map(|plans| plans.len())
        }));
        prop_assert!(planned.is_ok(), "panicked on {sql:?}");
    }
}
