//! High-level facade tying the pieces together: SQL in, candidate plans,
//! results and simulated execution times out.

use crate::catalog::Catalog;
use crate::exec::{ExecResult, Executor};
use crate::plan::physical::PhysicalPlan;
use crate::plan::planner::{OpTable, Planner, PlannerOptions};
use crate::plan::spec::{resolve, QuerySpec};
use crate::resource::{ClusterConfig, ResourceConfig};
use crate::simulator::{CostSimulator, SimReport, SimulatorConfig};
use crate::sql::parser::parse;
use std::fmt;

/// Any failure between SQL text and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Tokenizer/parser failure.
    Parse(String),
    /// Binder failure.
    Resolve(String),
    /// Executor failure.
    Exec(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(m) => write!(f, "parse: {m}"),
            EngineError::Resolve(m) => write!(f, "resolve: {m}"),
            EngineError::Exec(m) => write!(f, "exec: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One observed run: the real result/metrics plus the simulated wall time
/// — exactly one training record for the cost model.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// Execution output and true per-node metrics.
    pub result: ExecResult,
    /// Simulated timing breakdown.
    pub report: SimReport,
}

impl ObservedRun {
    /// Simulated wall-clock seconds (the training label).
    pub fn seconds(&self) -> f64 {
        self.report.seconds
    }
}

/// The Spark-SQL-like engine: catalog + planner + executor + simulator.
#[derive(Debug)]
pub struct Engine {
    catalog: Catalog,
    planner_opts: PlannerOptions,
    simulator: CostSimulator,
    /// The scan-free operators of every plan it builds, one allocation
    /// each (the [planner](crate::plan::planner)'s module docs).
    ops: OpTable,
}

impl Engine {
    /// Creates an engine with default planner/simulator settings over the
    /// default 4-node cluster.
    pub fn new(catalog: Catalog) -> Self {
        Self::with_options(
            catalog,
            PlannerOptions::default(),
            ClusterConfig::default(),
            SimulatorConfig::default(),
        )
    }

    /// Creates an engine with explicit settings.
    pub fn with_options(
        catalog: Catalog,
        planner_opts: PlannerOptions,
        cluster: ClusterConfig,
        sim_cfg: SimulatorConfig,
    ) -> Self {
        Self {
            catalog,
            planner_opts,
            simulator: CostSimulator::new(cluster, sim_cfg),
            ops: OpTable::default(),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The underlying time simulator.
    pub fn simulator(&self) -> &CostSimulator {
        &self.simulator
    }

    /// Planner options in use.
    pub fn planner_options(&self) -> &PlannerOptions {
        &self.planner_opts
    }

    /// The operator table its plans share.
    pub fn op_table(&self) -> &OpTable {
        &self.ops
    }

    /// Parses and binds a query.
    pub fn spec(&self, sql: &str) -> Result<QuerySpec, EngineError> {
        let q = parse(sql).map_err(|e| EngineError::Parse(e.to_string()))?;
        resolve(&q, &self.catalog).map_err(|e| EngineError::Resolve(e.to_string()))
    }

    /// Candidate physical plans for a query, Catalyst default first.
    /// Their scan-free operators are the ones every earlier call's plans
    /// hold, where `==`.
    pub fn plan_candidates(&self, sql: &str) -> Result<Vec<PhysicalPlan>, EngineError> {
        let spec = self.spec(sql)?;
        let planner = Planner::with_table(&self.catalog, self.planner_opts.clone(), &self.ops);
        Ok(planner.enumerate(&spec))
    }

    /// Executes a physical plan and collects true metrics.
    pub fn execute_plan(&self, plan: &PhysicalPlan) -> Result<ExecResult, EngineError> {
        let mut span = telemetry::span("sparksim.execute_plan");
        span.record("plan_nodes", plan.len() as u64);
        let result = Executor::new(&self.catalog)
            .execute(plan)
            .map_err(|e| EngineError::Exec(e.to_string()));
        if let Ok(r) = &result {
            if let Some(root) = r.metrics.last() {
                span.record("root_rows", root.rows_out);
            }
        }
        result
    }

    /// Executes the default plan of a query.
    pub fn run_sql(&self, sql: &str) -> Result<ExecResult, EngineError> {
        let plans = self.plan_candidates(sql)?;
        self.execute_plan(&plans[0])
    }

    /// Executes a plan and simulates its wall time under `resources` —
    /// one training record.
    pub fn observe(
        &self,
        plan: &PhysicalPlan,
        resources: &ResourceConfig,
        seed: u64,
    ) -> Result<ObservedRun, EngineError> {
        let _span = telemetry::span("sparksim.observe");
        let result = self.execute_plan(plan)?;
        let report = self.simulator.simulate_report(plan, &result.metrics, resources, seed);
        Ok(ObservedRun { result, report })
    }

    /// Re-simulates an already-executed plan under different resources
    /// (the execution metrics do not depend on resources).
    pub fn resimulate(
        &self,
        plan: &PhysicalPlan,
        result: &ExecResult,
        resources: &ResourceConfig,
        seed: u64,
    ) -> SimReport {
        self.simulator.simulate_report(plan, &result.metrics, resources, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::physical::{OpRef, PhysicalOp};
    use crate::plan::planner::OP_TABLE_ENTRIES;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::storage::{Column, ColumnData, Table};
    use crate::types::DataType;

    fn engine() -> Engine {
        let mut c = Catalog::new();
        c.register(Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int, false),
                    ColumnDef::new("x", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int((0..1000).collect())),
                Column::non_null(ColumnData::Int((0..1000).map(|i| i % 10).collect())),
            ],
        ));
        c.register(Table::new(
            TableSchema::new(
                "u",
                vec![
                    ColumnDef::new("t_id", DataType::Int, false),
                    ColumnDef::new("y", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int((0..2000).map(|i| i % 1000).collect())),
                Column::non_null(ColumnData::Int((0..2000).collect())),
            ],
        ));
        Engine::new(c)
    }

    #[test]
    fn count_star_is_correct() {
        let e = engine();
        let r = e.run_sql("SELECT COUNT(*) FROM t WHERE t.x < 5").unwrap();
        assert_eq!(r.scalar_i64(), Some(500));
    }

    #[test]
    fn all_candidate_plans_agree_on_results() {
        let e = engine();
        let sql = "SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id AND t.x < 3";
        let plans = e.plan_candidates(sql).unwrap();
        assert!(plans.len() >= 2);
        let counts: Vec<_> = plans
            .iter()
            .map(|p| e.execute_plan(p).unwrap().scalar_i64().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert_eq!(counts[0], 600, "each t row matches 2 u rows; 300 t rows pass");
    }

    #[test]
    fn observe_produces_positive_time() {
        let e = engine();
        let plans = e.plan_candidates("SELECT COUNT(*) FROM t").unwrap();
        let res = ResourceConfig::default_for(e.simulator().cluster());
        let run = e.observe(&plans[0], &res, 42).unwrap();
        assert!(run.seconds() > 0.0);
    }

    /// Queries over `t` and `u` that vary in literals, shape and, from
    /// `aliases` on, in their aliases (one fresh pair per query).
    fn queries(n: usize, aliases: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let (a, b) = if i < aliases {
                    ("t".into(), "u".into())
                } else {
                    (format!("a{i}"), format!("b{i}"))
                };
                let from =
                    format!("FROM t {a}, u {b} WHERE {a}.id = {b}.t_id AND {a}.x < {}", i % 10);
                match i % 4 {
                    0 => format!("SELECT COUNT(*) {from}"),
                    1 => format!("SELECT {a}.x, COUNT(*) {from} GROUP BY {a}.x"),
                    2 => format!("SELECT {a}.id, {b}.y {from} ORDER BY {b}.y LIMIT {}", i % 7 + 1),
                    _ => format!("SELECT COUNT(*) FROM t {a} WHERE {a}.x < {}", i % 10),
                }
            })
            .collect()
    }

    /// Whether an operator is interned per call, not by the engine.
    fn per_query(op: &PhysicalOp) -> bool {
        matches!(
            op,
            PhysicalOp::FileScan { .. } | PhysicalOp::Filter { .. } | PhysicalOp::Limit { .. }
        )
    }

    /// Two calls through one engine share every `==` scan-free operator
    /// by allocation, and no scan, filter or limit, however equal.
    #[test]
    fn calls_share_every_scan_free_operator_and_no_scan() {
        let e = engine();
        let q = queries(8, 8);
        for (i, j) in [(0, 0), (1, 5), (2, 2), (2, 6), (3, 3), (3, 7)] {
            let (first, second) = (&q[i], &q[j]);
            let a = e.plan_candidates(first).unwrap();
            let b = e.plan_candidates(second).unwrap();
            let held: Vec<&OpRef> = a.iter().flat_map(|p| p.nodes()).map(|n| &n.op).collect();
            let (mut shared, mut apart) = (0, 0);
            for node in b.iter().flat_map(|p| p.nodes()) {
                for &op in held.iter().filter(|&&op| *op == node.op) {
                    let same = OpRef::ptr_eq(op, &node.op);
                    assert_eq!(same, !per_query(op), "{second}: {:?} after {first}", node.op);
                    (shared, apart) = (shared + usize::from(same), apart + usize::from(!same));
                }
            }
            assert!(
                shared > 0 && apart > 0,
                "{second} after {first}: {shared} shared, {apart} not"
            );
        }
    }

    /// Queries with far more distinct aliases than the table holds fill
    /// it to the cap and no further, and plan as a fresh engine does.
    #[test]
    fn fresh_aliases_fill_the_table_to_its_cap() {
        let e = engine();
        let q = queries(900, 0);
        for sql in &q {
            e.plan_candidates(sql).unwrap();
        }
        assert_eq!(e.op_table().len(), OP_TABLE_ENTRIES);
        for sql in &q[880..] {
            let fresh = Engine::new(e.catalog().clone());
            assert_eq!(
                e.plan_candidates(sql).unwrap(),
                fresh.plan_candidates(sql).unwrap(),
                "{sql}"
            );
        }
        assert_eq!(e.op_table().len(), OP_TABLE_ENTRIES);
    }

    #[test]
    fn an_engine_is_shared_across_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Engine>();
    }

    /// Each candidate's text and estimates, by bits.
    fn rendered(plans: &[PhysicalPlan]) -> Vec<(String, Vec<u64>)> {
        plans
            .iter()
            .map(|p| (p.explain(), p.nodes().iter().map(|n| n.est_rows.to_bits()).collect()))
            .collect()
    }

    /// Two threads planning through one engine, in opposite orders,
    /// return the lists one thread returns alone.
    #[test]
    fn two_threads_plan_as_one_thread_does() {
        let q = queries(120, 60);
        let alone = engine();
        let expected: Vec<_> = q
            .iter()
            .map(|sql| rendered(&alone.plan_candidates(sql).unwrap()))
            .collect();
        let e = engine();
        std::thread::scope(|s| {
            let forward = s.spawn(|| {
                q.iter()
                    .map(|sql| rendered(&e.plan_candidates(sql).unwrap()))
                    .collect::<Vec<_>>()
            });
            let mut backward: Vec<_> = q
                .iter()
                .rev()
                .map(|sql| rendered(&e.plan_candidates(sql).unwrap()))
                .collect();
            backward.reverse();
            assert_eq!(forward.join().unwrap(), expected);
            assert_eq!(backward, expected);
        });
        assert_eq!(e.op_table().len(), alone.op_table().len());
    }

    #[test]
    fn parse_error_is_reported() {
        let e = engine();
        assert!(matches!(e.spec("SELEKT *"), Err(EngineError::Parse(_))));
        assert!(matches!(e.spec("SELECT COUNT(*) FROM missing"), Err(EngineError::Resolve(_))));
    }
}
