//! Property tests for the fault-injection layer.
//!
//! The contract under test:
//! * any seeded [`FaultPlan`] run terminates with a report or a typed
//!   [`FaultError`] — never a hang, never a panic;
//! * the zero plan is bit-identical to the fault-free simulator path;
//! * the same `(fault plan, run seed)` pair reproduces the same report
//!   *and* the same telemetry event sequence;
//! * saturated fault rates exhaust the bounded recovery budget and
//!   surface as the matching typed error.

use proptest::prelude::*;
use sparksim::catalog::Catalog;
use sparksim::engine::Engine;
use sparksim::fault::{FaultError, FaultPlan};
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

const JOIN_SQL: &str = "SELECT ta.x, COUNT(*) FROM ta, tb WHERE ta.id = tb.a_id GROUP BY ta.x";

fn resources(executors: usize, cores: usize) -> ResourceConfig {
    ResourceConfig {
        executors,
        cores_per_executor: cores,
        ..ResourceConfig::default_for(&ClusterConfig::default())
    }
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any seeded fault plan terminates: either a finite positive
    /// report or a typed error. (The retry budget is the termination
    /// proof; this exercises it across the whole intensity range.)
    #[test]
    fn seeded_fault_runs_terminate(
        intensity in 0.0f64..1.0,
        fault_seed in 0u64..u64::MAX,
        run_seed in 0u64..u64::MAX,
        executors in 1usize..8,
        cores in 1usize..4,
    ) {
        let engine = engine();
        let plan = &engine.plan_candidates(JOIN_SQL).unwrap()[0];
        let result = engine.execute_plan(plan).unwrap();
        let faults = FaultPlan::chaos(fault_seed, intensity);
        let res = resources(executors, cores);
        match engine.resimulate_with_faults(plan, &result, &res, run_seed, &faults) {
            Ok(fr) => {
                prop_assert!(fr.report.seconds.is_finite());
                prop_assert!(fr.report.seconds > 0.0);
                prop_assert!(fr.faults.extra_seconds >= 0.0);
            }
            Err(
                FaultError::TaskRetriesExhausted { .. }
                | FaultError::StageAttemptsExhausted { .. },
            ) => {}
        }
    }

    /// The zero plan is bit-identical to the fault-free path: same
    /// `SimReport`, field for field, and an all-zero fault summary.
    #[test]
    fn zero_fault_runs_match_plain_simulation_exactly(
        run_seed in 0u64..u64::MAX,
        fault_seed in 0u64..u64::MAX,
        executors in 1usize..8,
        cores in 1usize..4,
    ) {
        let engine = engine();
        let plan = &engine.plan_candidates(JOIN_SQL).unwrap()[0];
        let result = engine.execute_plan(plan).unwrap();
        let res = resources(executors, cores);
        let base = engine.resimulate(plan, &result, &res, run_seed);
        for zero in [FaultPlan::none(), FaultPlan::chaos(fault_seed, 0.0)] {
            prop_assert!(zero.is_zero());
            let fr = engine
                .resimulate_with_faults(plan, &result, &res, run_seed, &zero)
                .unwrap();
            prop_assert_eq!(&fr.report, &base);
            prop_assert!(!fr.faults.any());
        }
    }

    /// Same `(fault plan, run seed)` pair, same report — across plans
    /// and resource points.
    #[test]
    fn fault_reports_are_deterministic(
        intensity in 0.0f64..0.6,
        fault_seed in 0u64..u64::MAX,
        run_seed in 0u64..u64::MAX,
    ) {
        let engine = engine();
        let plan = &engine.plan_candidates(JOIN_SQL).unwrap()[0];
        let result = engine.execute_plan(plan).unwrap();
        let faults = FaultPlan::chaos(fault_seed, intensity);
        let res = resources(4, 2);
        let a = engine.resimulate_with_faults(plan, &result, &res, run_seed, &faults);
        let b = engine.resimulate_with_faults(plan, &result, &res, run_seed, &faults);
        prop_assert_eq!(a, b);
    }
}

/// The determinism contract extends to the event log: the same seeds
/// produce the same event-name sequence (the ISSUE's "same seed → same
/// event log" requirement, minus wall-clock fields).
#[test]
fn same_seed_same_event_log() {
    let engine = engine();
    let plan = &engine.plan_candidates(JOIN_SQL).unwrap()[0];
    let result = engine.execute_plan(plan).unwrap();
    let res = resources(4, 2);
    for fault_seed in [1u64, 99, 12345] {
        let faults = FaultPlan::chaos(fault_seed, 0.35);
        let run = || {
            telemetry::testing::capture(|| {
                let _ = engine.resimulate_with_faults(plan, &result, &res, 7, &faults);
            })
        };
        let first = event_names(&run());
        let second = event_names(&run());
        assert!(!first.is_empty(), "fault_seed={fault_seed} logged no event");
        assert_eq!(first, second, "fault_seed={fault_seed}");
        // All emitted event names must be registered in the schema.
        for name in &first {
            assert!(
                telemetry::schema::EVENT_NAMES.contains(&name.as_str()),
                "unregistered event name {name:?}"
            );
        }
    }
}

/// A certain executor failure exhausts the per-task retry budget and
/// surfaces as the matching typed error — not a hang, not a panic.
#[test]
fn saturated_executor_failures_exhaust_retries() {
    let engine = engine();
    let plan = &engine.plan_candidates("SELECT COUNT(*) FROM ta").unwrap()[0];
    let result = engine.execute_plan(plan).unwrap();
    let faults = FaultPlan { executor_failure_rate: 1.0, ..FaultPlan::none() };
    let err = engine
        .resimulate_with_faults(plan, &result, &resources(4, 2), 7, &faults)
        .unwrap_err();
    assert!(matches!(err, FaultError::TaskRetriesExhausted { .. }), "{err}");
}

/// A certain fetch failure exhausts the stage re-attempt budget on any
/// shuffle-fed stage.
#[test]
fn saturated_fetch_failures_exhaust_stage_attempts() {
    let engine = engine();
    let plan = &engine.plan_candidates(JOIN_SQL).unwrap()[0];
    let result = engine.execute_plan(plan).unwrap();
    let faults = FaultPlan { fetch_failure_rate: 1.0, ..FaultPlan::none() };
    let err = engine
        .resimulate_with_faults(plan, &result, &resources(4, 2), 7, &faults)
        .unwrap_err();
    assert!(matches!(err, FaultError::StageAttemptsExhausted { .. }), "{err}");
}

/// Fault cost is monotone on average: heavy chaos should not be cheaper
/// than no faults for the runs that survive.
#[test]
fn surviving_faulty_runs_are_never_faster() {
    let engine = engine();
    let plan = &engine.plan_candidates(JOIN_SQL).unwrap()[0];
    let result = engine.execute_plan(plan).unwrap();
    let res = resources(4, 2);
    for run_seed in 0..20u64 {
        let base = engine.resimulate(plan, &result, &res, run_seed).seconds;
        let faults = FaultPlan::chaos(run_seed, 0.3);
        if let Ok(fr) = engine.resimulate_with_faults(plan, &result, &res, run_seed, &faults) {
            assert!(
                fr.report.seconds >= base - 1e-9,
                "seed {run_seed}: faulty {} < clean {}",
                fr.report.seconds,
                base
            );
        }
    }
}
