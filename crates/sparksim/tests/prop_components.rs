//! Property tests on individual sparksim components: histograms, LIKE
//! matching, sorting, simulator invariants and its event log.

use proptest::prelude::*;
use sparksim::batch::Batch;
use sparksim::exec::sort_batch;
use sparksim::expr::like_match;
use sparksim::schema::ColumnRef;
use sparksim::stats::Histogram;
use sparksim::storage::{Column, ColumnData};

/// Slow-but-obviously-correct LIKE matcher (backtracking over `%`).
fn like_reference(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn histogram_selectivity_is_monotone_and_bounded(
        mut values in prop::collection::vec(-1000.0f64..1000.0, 1..300),
        probes in prop::collection::vec(-1200.0f64..1200.0, 1..20),
    ) {
        values.iter_mut().for_each(|v| *v = v.round());
        let h = Histogram::build(values.clone(), 16).unwrap();
        let mut sorted_probes = probes;
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &p in &sorted_probes {
            let s = h.selectivity_lt(p);
            prop_assert!((0.0..=1.0).contains(&s), "selectivity {s} out of range");
            prop_assert!(s + 1e-9 >= prev, "selectivity must be monotone");
            prev = s;
        }
        // Exact bounds.
        let (min, max) = h.min_max();
        prop_assert_eq!(h.selectivity_lt(min - 1.0), 0.0);
        prop_assert_eq!(h.selectivity_lt(max + 1.0), 1.0);
    }

    #[test]
    fn histogram_tracks_true_selectivity_roughly(
        values in prop::collection::vec(0.0f64..100.0, 50..400),
        probe in 0.0f64..100.0,
    ) {
        let h = Histogram::build(values.clone(), 32).unwrap();
        let actual = values.iter().filter(|&&v| v < probe).count() as f64
            / values.len() as f64;
        let est = h.selectivity_lt(probe);
        // Equi-depth with 32 buckets: within ~2 buckets of truth.
        prop_assert!((est - actual).abs() < 0.1, "est {est} vs actual {actual}");
    }

    #[test]
    fn like_match_agrees_with_backtracking_reference(
        s in "[a-c]{0,8}",
        pattern in "[a-c%]{0,6}",
    ) {
        prop_assert_eq!(
            like_match(&s, &pattern),
            like_reference(&s, &pattern),
            "s={:?} pattern={:?}", s, pattern
        );
    }

    #[test]
    fn sort_batch_is_an_ordered_permutation(
        values in prop::collection::vec(-100i64..100, 0..100),
    ) {
        let re = ColumnRef::new("t", "v");
        let mut b = Batch::new();
        b.push(re.clone(), Column::non_null(ColumnData::Int(values.clone())));
        let sorted = sort_batch(&b, &[(re.clone(), true)]);
        let col = sorted.column(&re).unwrap();
        let out: Vec<i64> = (0..sorted.num_rows())
            .map(|i| col.value(i).as_i64().unwrap())
            .collect();
        // Ordered...
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // ...and a permutation.
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(out, expected);
    }
}

mod simulator_props {
    use super::*;
    use sparksim::exec::NodeMetrics;
    use sparksim::plan::physical::{AggMode, PhysicalOp, PhysicalPlan};
    use sparksim::plan::spec::AggSpec;
    use sparksim::sql::ast::AggFunc;
    use sparksim::{ClusterConfig, CostSimulator, ResourceConfig, SimulatorConfig};

    fn plan_and_metrics(rows: f64) -> (PhysicalPlan, Vec<NodeMetrics>) {
        let mut p = PhysicalPlan::new();
        let scan = p.add(
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "t".into(),
                output: vec![ColumnRef::new("t", "id")],
                pushed_filter: None,
            },
            vec![],
            rows,
            rows * 8.0,
        );
        let aggs = vec![AggSpec { func: AggFunc::Count, arg: None }];
        let pa = p.add(
            PhysicalOp::HashAggregate {
                mode: AggMode::Partial,
                group_by: vec![],
                aggs: aggs.clone(),
            },
            vec![scan],
            1.0,
            8.0,
        );
        let ex = p.add(PhysicalOp::ExchangeSingle, vec![pa], 1.0, 8.0);
        p.add(
            PhysicalOp::HashAggregate { mode: AggMode::Final, group_by: vec![], aggs },
            vec![ex],
            1.0,
            8.0,
        );
        let m = vec![
            NodeMetrics {
                rows_out: rows,
                bytes_out: rows * 8.0,
                rows_in: rows,
                bytes_in: rows * 8.0,
            },
            NodeMetrics {
                rows_out: 1.0,
                bytes_out: 8.0,
                rows_in: rows,
                bytes_in: rows * 8.0,
            },
            NodeMetrics {
                rows_out: 1.0,
                bytes_out: 8.0,
                rows_in: 1.0,
                bytes_in: 8.0,
            },
            NodeMetrics {
                rows_out: 1.0,
                bytes_out: 8.0,
                rows_in: 1.0,
                bytes_in: 8.0,
            },
        ];
        (p, m)
    }

    fn sim() -> CostSimulator {
        CostSimulator::new(
            ClusterConfig::default(),
            SimulatorConfig { noise_sigma: 0.0, ..SimulatorConfig::default() },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn time_is_positive_and_finite(
            rows in 1.0f64..1e9,
            executors in 1usize..8,
            cores in 1usize..4,
            mem in 1.0f64..12.0,
        ) {
            let (p, m) = plan_and_metrics(rows);
            let res = ResourceConfig {
                executors,
                cores_per_executor: cores,
                memory_per_executor_gb: mem,
                network_throughput_mbps: 120.0,
                disk_throughput_mbps: 200.0,
            };
            let t = sim().simulate(&p, &m, &res, 0);
            prop_assert!(t.is_finite() && t > 0.0, "t={t}");
        }

        #[test]
        fn more_data_never_runs_disproportionately_faster(
            rows in 1.0f64..1e8,
            factor in 1.5f64..20.0,
        ) {
            let res = ResourceConfig {
                executors: 2,
                cores_per_executor: 2,
                memory_per_executor_gb: 4.0,
                network_throughput_mbps: 120.0,
                disk_throughput_mbps: 200.0,
            };
            let (p1, m1) = plan_and_metrics(rows);
            let (p2, m2) = plan_and_metrics(rows * factor);
            let t1 = sim().simulate(&p1, &m1, &res, 0);
            let t2 = sim().simulate(&p2, &m2, &res, 0);
            // Growing the input may legitimately *reduce* time when it
            // crosses an input-split boundary and unlocks parallelism
            // (more concurrent tasks, more aggregate bandwidth) — exactly
            // as in Spark. Bound the allowed speedup by the concurrency
            // gain; beyond that, bigger inputs must not be faster.
            let split = SimulatorConfig::default().bytes_per_partition;
            let slots = res.total_slots() as f64;
            let conc = |r: f64| ((r * 8.0 / split).ceil().max(1.0)).min(slots);
            let allowed = conc(rows) / conc(rows * factor); // <= 1
            prop_assert!(
                t2 + 1e-9 >= t1 * allowed * 0.99,
                "bigger input too fast: {t1} -> {t2} (allowed factor {allowed})"
            );
        }

        #[test]
        fn faster_disk_never_hurts(
            rows in 1e5f64..1e8,
            disk in 50.0f64..400.0,
        ) {
            let (p, m) = plan_and_metrics(rows);
            let mk = |d: f64| ResourceConfig {
                executors: 2,
                cores_per_executor: 2,
                memory_per_executor_gb: 4.0,
                network_throughput_mbps: 120.0,
                disk_throughput_mbps: d,
            };
            let slow = sim().simulate(&p, &m, &mk(disk), 0);
            let fast = sim().simulate(&p, &m, &mk(disk * 2.0), 0);
            prop_assert!(fast <= slow + 1e-9);
        }
    }
}

mod event_log {
    use sparksim::catalog::Catalog;
    use sparksim::engine::Engine;
    use sparksim::resource::{ClusterConfig, ResourceConfig};
    use sparksim::schema::{ColumnDef, TableSchema};
    use sparksim::storage::{Column, ColumnData, Table};
    use sparksim::types::DataType;

    /// Two joinable tables, big enough that every stage has nonzero work.
    fn engine() -> Engine {
        let n = 4_000i64;
        let mut catalog = Catalog::new();
        catalog.register(Table::new(
            TableSchema::new(
                "ta",
                vec![
                    ColumnDef::new("id", DataType::Int, false),
                    ColumnDef::new("x", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int((0..n).collect())),
                Column::non_null(ColumnData::Int((0..n).map(|i| (i * 7) % 100).collect())),
            ],
        ));
        catalog.register(Table::new(
            TableSchema::new(
                "tb",
                vec![
                    ColumnDef::new("a_id", DataType::Int, false),
                    ColumnDef::new("y", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int((0..n).map(|i| i % 500).collect())),
                Column::non_null(ColumnData::Int((0..n).map(|i| (i * 3) % 40).collect())),
            ],
        ));
        Engine::new(catalog)
    }

    /// Pulls this thread's event-name sequence out of a captured JSONL
    /// log: the deterministic skeleton of a run (timestamps and durations
    /// are not). Other threads' lines are neighbouring tests emitting into
    /// the process-global sink while the capture holds it.
    fn event_names(lines: &[String]) -> Vec<String> {
        let own = format!("\"tid\":{}", telemetry::testing::current_tid());
        lines
            .iter()
            .filter(|l| l.contains("\"type\":\"event\""))
            .filter(|l| {
                l.split_once(own.as_str())
                    .is_some_and(|(_, rest)| rest.starts_with([',', '}']))
            })
            .filter_map(|l| {
                let start = l.find("\"name\":\"")? + "\"name\":\"".len();
                let end = l[start..].find('"')? + start;
                Some(l[start..end].to_string())
            })
            .collect()
    }

    /// The same seed produces the same event-name sequence (minus
    /// wall-clock fields), and every name is registered in the schema.
    #[test]
    fn same_seed_same_event_log() {
        let engine = engine();
        let sql = "SELECT ta.x, COUNT(*) FROM ta, tb WHERE ta.id = tb.a_id GROUP BY ta.x";
        let plan = &engine.plan_candidates(sql).unwrap()[0];
        let result = engine.execute_plan(plan).unwrap();
        let res = ResourceConfig {
            executors: 4,
            cores_per_executor: 2,
            ..ResourceConfig::default_for(&ClusterConfig::default())
        };
        for seed in [1u64, 99, 12345] {
            let run = || {
                telemetry::testing::capture(|| {
                    engine.resimulate(plan, &result, &res, seed);
                })
            };
            let first = event_names(&run());
            let second = event_names(&run());
            assert!(!first.is_empty(), "seed={seed} logged no event");
            assert_eq!(first, second, "seed={seed}");
            assert_eq!(first.first().map(String::as_str), Some("job_start"));
            assert_eq!(first.last().map(String::as_str), Some("job_end"));
            for name in &first {
                assert!(
                    telemetry::schema::SPARK_EVENT_NAMES.contains(&name.as_str())
                        && telemetry::schema::EVENT_NAMES.contains(&name.as_str()),
                    "unregistered event name {name:?}"
                );
            }
        }
    }
}

mod simplify_props {
    use super::*;
    use sparksim::expr::{CmpOp, Expr};
    use sparksim::plan::simplify::simplify;
    use sparksim::types::Value;

    /// Random expression trees over one int column and boolean/int literals.
    fn arb_expr() -> impl Strategy<Value = Expr> {
        let col = ColumnRef::new("t", "v");
        let leaf = prop_oneof![
            (-20i64..20).prop_map({
                let col = col.clone();
                move |v| Expr::cmp(col.clone(), CmpOp::Lt, Value::Int(v))
            }),
            (-20i64..20).prop_map({
                let col = col.clone();
                move |v| Expr::cmp(col.clone(), CmpOp::Eq, Value::Int(v))
            }),
            Just(Expr::IsNotNull(Box::new(Expr::Column(col.clone())))),
            Just(Expr::IsNull(Box::new(Expr::Column(col.clone())))),
            (-5i64..5, -5i64..5).prop_map(|(a, b)| Expr::Cmp {
                op: CmpOp::Le,
                left: Box::new(Expr::Literal(Value::Int(a))),
                right: Box::new(Expr::Literal(Value::Int(b))),
            }),
            Just(Expr::Literal(Value::Null)),
        ];
        leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
                inner.prop_map(|a| Expr::Not(Box::new(a))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Simplification preserves three-valued semantics row by row.
        #[test]
        fn simplify_preserves_semantics(
            e in arb_expr(),
            values in prop::collection::vec((-25i64..25, prop::bool::ANY), 1..30),
        ) {
            let re = ColumnRef::new("t", "v");
            let mut b = Batch::new();
            b.push(
                re,
                Column {
                    data: ColumnData::Int(values.iter().map(|v| v.0).collect()),
                    validity: Some(values.iter().map(|v| v.1).collect()),
                },
            );
            let simplified = simplify(&e);
            prop_assert_eq!(
                e.eval_mask(&b),
                simplified.eval_mask(&b),
                "expr {} != simplified {}", e, simplified
            );
        }

        /// Simplification is idempotent.
        #[test]
        fn simplify_is_idempotent(e in arb_expr()) {
            let once = simplify(&e);
            let twice = simplify(&once);
            prop_assert_eq!(once, twice);
        }
    }
}
