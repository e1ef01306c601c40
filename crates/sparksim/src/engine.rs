//! High-level facade tying the pieces together: SQL in, candidate plans,
//! results and simulated execution times out.

use crate::catalog::Catalog;
use crate::exec::{ExecResult, Executor};
use crate::plan::physical::PhysicalPlan;
use crate::plan::planner::{Planner, PlannerOptions};
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

    /// Parses and binds a query.
    pub fn spec(&self, sql: &str) -> Result<QuerySpec, EngineError> {
        let q = parse(sql).map_err(|e| EngineError::Parse(e.to_string()))?;
        resolve(&q, &self.catalog).map_err(|e| EngineError::Resolve(e.to_string()))
    }

    /// Candidate physical plans for a query, Catalyst default first.
    pub fn plan_candidates(&self, sql: &str) -> Result<Vec<PhysicalPlan>, EngineError> {
        let spec = self.spec(sql)?;
        Ok(Planner::new(&self.catalog, self.planner_opts.clone()).enumerate(&spec))
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

    /// `EXPLAIN`-style rendering of every candidate plan for a query.
    pub fn explain_sql(&self, sql: &str) -> Result<String, EngineError> {
        let plans = self.plan_candidates(sql)?;
        let mut out = String::new();
        for (i, p) in plans.iter().enumerate() {
            out.push_str(&format!("-- plan {i} --\n"));
            out.push_str(&p.explain());
        }
        Ok(out)
    }

    /// `EXPLAIN ANALYZE`-style rendering of a plan: executes it for true
    /// cardinalities, simulates it under `resources`, and annotates each
    /// node with estimated vs. actual rows plus the per-stage times.
    pub fn explain_analyze(
        &self,
        plan: &PhysicalPlan,
        resources: &ResourceConfig,
        seed: u64,
    ) -> Result<String, EngineError> {
        let result = self.execute_plan(plan)?;
        let report = self.simulator.simulate_report(plan, &result.metrics, resources, seed);
        let mut out = String::new();
        for id in (0..plan.len()).rev() {
            let node = plan.node(id);
            out.push_str(&format!(
                "[{id:>2}] {:<70} est_rows={:<12.0} actual_rows={:<12.0}
",
                plan.statement(id),
                node.est_rows,
                result.metrics[id].rows_out
            ));
        }
        out.push_str(&format!(
            "simulated: {:.2}s over {} stages {:?}; spill {:.1} MB; gc {:.2}s; cache hit {:.0}%
",
            report.seconds,
            report.stage_seconds.len(),
            report
                .stage_seconds
                .iter()
                .map(|s| (s * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            report.spill_bytes / 1e6,
            report.gc_seconds,
            report.cache_hit * 100.0
        ));
        Ok(out)
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

    #[test]
    fn explain_renders_all_candidates() {
        let e = engine();
        let text = e
            .explain_sql("SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id")
            .unwrap();
        assert!(text.contains("-- plan 0 --"));
        assert!(text.contains("FileScan"));
        assert!(text.matches("-- plan").count() >= 2);
    }

    #[test]
    fn explain_analyze_annotates_estimates_and_actuals() {
        let e = engine();
        let plans = e.plan_candidates("SELECT COUNT(*) FROM t WHERE t.x < 5").unwrap();
        let res = ResourceConfig::default_for(e.simulator().cluster());
        let text = e.explain_analyze(&plans[0], &res, 3).unwrap();
        assert!(text.contains("actual_rows"));
        assert!(text.contains("simulated:"));
        assert!(text.contains("FileScan"));
    }

    #[test]
    fn parse_error_is_reported() {
        let e = engine();
        assert!(matches!(e.spec("SELEKT *"), Err(EngineError::Parse(_))));
        assert!(matches!(e.spec("SELECT COUNT(*) FROM missing"), Err(EngineError::Resolve(_))));
    }
}
