//! The planner's candidate lists, the executor's output and the
//! simulator's reports, pinned without a golden file: the early exit at
//! `max_plans` returns exactly the prefix a far larger budget returns,
//! de-duplicating by structure returns the lists de-duplicating by
//! rendered text returned, an engine's shared operator table changes no
//! candidate, and four folds — over every candidate's text and
//! estimates, over its executed batch and metrics, over every field of
//! its simulated reports and over its GPSJ estimates — equal the
//! constants recorded before refactors.

use baselines::{GpsjModel, GpsjParams};
use raal::CollectionConfig;
use sparksim::plan::planner::{Planner, PlannerOptions};
use sparksim::types::Value;
use sparksim::{ClusterConfig, Engine, PhysicalPlan, ResourceGrid, SimulatorConfig};
use std::fmt::Write as _;
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
/// FNV-1a fold of every candidate's executed root batch (column names,
/// then each row's values by bits, in row order) and of every
/// `NodeMetrics` field, over the same queries — recorded at commit
/// `84492ce`, before plan names became shared and the executor's
/// per-row loops stopped looking columns up by name.
const EXEC_FOLD: u64 = 0xb7e0_2394_6863_c979;
const QUERIES: usize = 640;
/// FNV-1a fold of every candidate's `explain()` text and estimate bits
/// under a budget of 64, over [`QUERIES`] generated queries and three
/// self-joins — recorded at commit `a27fd59`, while the planner still
/// de-duplicated candidates by rendered text.
const ALL_FOLD: u64 = 0x23b1_dec1_5a54_5ac1;
/// FNV-1a fold of GPSJ's estimate bits for each candidate of the same
/// queries under every 7th `ResourceGrid::default()` point — recorded
/// at commit `e9c810f`, while GPSJ's calibration constants were still
/// `GpsjParams` fields.
const GPSJ_FOLD: u64 = 0x36ff_61fe_cc0a_e3b3;
/// FNV-1a fold of `raal::collect` at the repo benchmark's scale
/// (`title_rows` 2 000, 120 queries, seed 42): every plan run's
/// `NodeMetrics` bits, then its observations' seconds bits — recorded at
/// commit `a51fc90`, while the executor still materialised every column
/// of every operator's output. At `title_rows` 400 ([`EXEC_FOLD`]) no
/// join is large enough to take the count-only path.
const COLLECT_FOLD: u64 = 0xcc61_71aa_0d53_7604;

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

/// The planner's de-duplication key before it compared structure: every
/// node's statement and child list, not the estimates, and (a scan
/// renders its table) not the aliases.
fn text_fingerprint(plan: &PhysicalPlan) -> String {
    let mut s = String::new();
    for (i, n) in plan.nodes().iter().enumerate() {
        write!(s, "{i}:{}{:?};", plan.statement(i), n.children).unwrap();
    }
    s
}

/// The candidates an enumeration that kept a candidate unless an earlier
/// one had its [`text_fingerprint`] returned under `budget`, given every
/// structurally distinct candidate in offer order (`all`). Equal
/// structure renders equal text, so de-duplicating `all` by text is
/// de-duplicating the offered candidates by text.
fn by_text(all: &[PhysicalPlan], budget: usize) -> Vec<PhysicalPlan> {
    let mut seen = Vec::new();
    let mut kept = Vec::new();
    for plan in all {
        let print = text_fingerprint(plan);
        if kept.len() < budget && !seen.contains(&print) {
            seen.push(print);
            kept.push(plan.clone());
        }
    }
    kept
}

/// De-duplicating candidates by operators and child lists returns the
/// lists de-duplicating them by rendered text did, over the pinned
/// queries and self-joins (one table under two aliases, which a scan's
/// text does not tell apart): under a budget of 64 the lists fold to the
/// constant text de-duplication gave, so no two offered candidates of
/// different text were merged, and no two kept ones render alike.
#[test]
fn structural_dedup_returns_the_lists_text_dedup_returned() {
    let (engine, mut queries) = engine_and_queries();
    queries.extend([
        "SELECT COUNT(*) FROM title t1, title t2 WHERE t1.id = t2.id".to_string(),
        "SELECT COUNT(*) FROM title t1, title t2, movie_companies mc \
         WHERE t1.id = mc.movie_id AND t2.id = mc.movie_id AND t1.kind_id < 3"
            .to_string(),
        "SELECT COUNT(*) FROM movie_companies a, movie_companies b \
         WHERE a.movie_id = b.movie_id AND b.company_id < 20"
            .to_string(),
    ]);
    let opts = |max_plans| PlannerOptions { max_plans, ..engine.planner_options().clone() };
    let mut candidates = 0usize;
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for sql in &queries {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        // Far more than any query offers: every distinct candidate.
        let all = Planner::new(engine.catalog(), opts(64)).enumerate(&spec);
        for plan in &all {
            fnv(&mut fold, plan.explain().as_bytes());
            for node in plan.nodes() {
                fnv(&mut fold, &node.est_rows.to_bits().to_le_bytes());
                fnv(&mut fold, &node.est_bytes.to_bits().to_le_bytes());
            }
        }
        for budget in [5, 64] {
            let plans = Planner::new(engine.catalog(), opts(budget)).enumerate(&spec);
            assert!(plans == by_text(&all, budget), "{sql}: budget {budget}");
            candidates += plans.len();
        }
    }
    assert!(candidates >= 5000, "only {candidates} candidates compared");
    assert_eq!(fold, ALL_FOLD, "the budget-64 lists fold to {fold:#018x}");
}

/// An engine's planned candidates are the ones a planner built alone
/// returns; planning the same queries again adds nothing to the
/// engine's operator table, which holds far fewer operators than the
/// candidates have nodes.
#[test]
fn an_engines_operator_table_changes_no_candidate_and_stops_growing() {
    let (engine, queries) = engine_and_queries();
    let opts = engine.planner_options().clone();
    let mut nodes = 0usize;
    for sql in &queries {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let alone = Planner::new(engine.catalog(), opts.clone()).enumerate(&spec);
        let planned = engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(planned == alone, "{sql}");
        nodes += planned.iter().map(PhysicalPlan::len).sum::<usize>();
    }
    let held = engine.op_table().len();
    println!("{nodes} nodes, {held} shared operators");
    assert!(held > 0 && held * 20 < nodes, "{held} shared operators for {nodes} nodes");
    for sql in &queries {
        engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    assert_eq!(engine.op_table().len(), held, "a second pass grew the table");
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

#[test]
fn executed_batches_and_metrics_are_the_same_bits_as_before() {
    let (engine, queries) = engine_and_queries();
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let (mut plans, mut rows) = (0usize, 0usize);
    for sql in &queries {
        for plan in &engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
            let result = engine.execute_plan(plan).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let batch = &result.batch;
            fnv(&mut fold, &(batch.num_columns() as u64).to_le_bytes());
            for re in batch.refs() {
                fnv(&mut fold, re.to_string().as_bytes());
            }
            fnv(&mut fold, &(batch.num_rows() as u64).to_le_bytes());
            for row in 0..batch.num_rows() {
                for (_, col) in batch.entries() {
                    match col.value(row) {
                        Value::Null => fnv(&mut fold, &[0]),
                        Value::Int(i) => {
                            fnv(&mut fold, &[1]);
                            fnv(&mut fold, &i.to_le_bytes());
                        }
                        Value::Float(f) => {
                            fnv(&mut fold, &[2]);
                            fnv(&mut fold, &f.to_bits().to_le_bytes());
                        }
                        Value::Str(s) => {
                            fnv(&mut fold, &[3]);
                            fnv(&mut fold, &(s.len() as u64).to_le_bytes());
                            fnv(&mut fold, s.as_bytes());
                        }
                    }
                }
            }
            for m in &result.metrics {
                for x in [m.rows_out, m.bytes_out, m.rows_in, m.bytes_in] {
                    fnv(&mut fold, &x.to_bits().to_le_bytes());
                }
            }
            plans += 1;
            rows += batch.num_rows();
        }
    }
    assert_eq!(
        fold, EXEC_FOLD,
        "{plans} plans ({rows} root rows) fold to {fold:#018x}: the executor's output changed"
    );
}

#[test]
fn gpsj_estimates_are_the_same_bits_as_before() {
    let (engine, queries) = engine_and_queries();
    let data_scale = engine.simulator().config().data_scale;
    let gpsj = GpsjModel::new(GpsjParams { data_scale });
    let states: Vec<_> = ResourceGrid::default()
        .enumerate(engine.simulator().cluster())
        .into_iter()
        .step_by(7)
        .collect();
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let mut estimates = 0usize;
    for sql in &queries {
        for plan in &engine.plan_candidates(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
            for res in &states {
                fnv(&mut fold, &gpsj.estimate_seconds(plan, res).to_bits().to_le_bytes());
                estimates += 1;
            }
        }
    }
    assert_eq!(
        fold, GPSJ_FOLD,
        "{estimates} estimates fold to {fold:#018x}: GPSJ's output changed"
    );
}

#[test]
fn fixture_scale_collection_is_the_same_bits_as_before() {
    let data = generate(&ImdbConfig { title_rows: 2_000, seed: 42 });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let cfg = CollectionConfig {
        num_queries: 120,
        seed: 42,
        ..CollectionConfig::default()
    };
    let collection = raal::collect(&engine, &data.graph, &cfg);
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for run in &collection.plan_runs {
        for m in &run.metrics {
            for x in [m.rows_out, m.bytes_out, m.rows_in, m.bytes_in] {
                fnv(&mut fold, &x.to_bits().to_le_bytes());
            }
        }
        for (_, seconds) in &run.observations {
            fnv(&mut fold, &seconds.to_bits().to_le_bytes());
        }
    }
    assert_eq!(
        fold,
        COLLECT_FOLD,
        "{} plan runs fold to {fold:#018x}: collection's metrics or observations changed",
        collection.plan_runs.len()
    );
}
