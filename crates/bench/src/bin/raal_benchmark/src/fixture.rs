//! Set-up: everything that exists before the first request is sent.
//!
//! The fixture is the *system* being served — an IMDB-like catalog, a
//! briefly trained RAAL model with its encoder, and the GPSJ fallback —
//! plus the pool of physical plans the request streams draw from. The
//! catalog and the model are built from [`FIXTURE_SEED`], not from the
//! run's `--seed`: the seed varies the traffic, not the server, so runs
//! on different seeds price different plans with the same weights.
//!
//! Every constant that shapes the load lives here or in `stream.rs`;
//! nothing is taken from `bench::` helpers, so refactoring the
//! experiment harnesses cannot move this benchmark's baseline.

use crate::stats::seconds_since;
use baselines::{GpsjModel, GpsjParams};
use encoding::{EncoderConfig, PlanEncoder, W2vConfig};
use raal::{CollectionConfig, CostModel, ModelConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, PhysicalPlan, SimulatorConfig};
use std::collections::HashMap;
use workloads::querygen::{generate_queries, QueryGenConfig};
use workloads::FkGraph;

/// Seed of the served system (catalog contents, collection, training).
pub const FIXTURE_SEED: u64 = 42;
/// `title` rows of the IMDB-like dataset (the harnesses' reduced scale).
pub const TITLE_ROWS: usize = 2_000;
/// Queries executed by `raal::dataset::collect` for the training set.
pub const COLLECT_QUERIES: usize = 120;
/// word2vec embedding width and epochs.
pub const W2V_DIM: usize = 32;
pub const W2V_EPOCHS: usize = 2;
/// Training is brief on purpose: weights do not change what a forward
/// pass costs, but a trained head keeps the accuracy gate meaningful.
pub const TRAIN_EPOCHS: usize = 3;
pub const TRAIN_SAMPLES: usize = 200;
/// Queries planned (never executed) for the request pool.
pub const POOL_QUERIES: usize = 3_000;
/// Candidate-set size `select_k` scores per call; the planner emits 2, 4
/// or 5 candidates per query and about two thirds of queries have 5.
pub const SELECT_K: usize = 5;

/// Wall-clock seconds of each set-up stage, for the per-layer report.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    pub generate_s: f64,
    pub collect_s: f64,
    pub w2v_train_s: f64,
    pub train_s: f64,
    pub plan_pool_s: f64,
}

/// The distinct physical plans requests are drawn from, and which of
/// them belong to the same query.
pub struct PlanPool {
    /// Distinct plans, in first-seen order.
    pub plans: Vec<PhysicalPlan>,
    /// Per planned query, its candidates as indices into `plans`.
    pub candidate_sets: Vec<Vec<u32>>,
}

impl PlanPool {
    /// De-duplicates candidate plans by their `EXPLAIN` text. Two queries
    /// that differ only in a literal still plan differently (the literal
    /// is in the statement), so what collapses here is genuinely the same
    /// plan reached from two queries.
    pub fn from_candidates(per_query: Vec<Vec<PhysicalPlan>>) -> Self {
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut plans = Vec::new();
        let mut candidate_sets = Vec::with_capacity(per_query.len());
        for candidates in per_query {
            let mut set = Vec::with_capacity(candidates.len());
            for plan in candidates {
                let next = plans.len() as u32;
                let idx = *index.entry(plan.explain()).or_insert(next);
                if idx == next {
                    plans.push(plan);
                }
                set.push(idx);
            }
            candidate_sets.push(set);
        }
        Self { plans, candidate_sets }
    }

    /// Mean node count over the distinct plans.
    pub fn mean_nodes(&self) -> f64 {
        let total: usize = self.plans.iter().map(PhysicalPlan::len).sum();
        total as f64 / self.plans.len().max(1) as f64
    }
}

/// The served system plus the request pool.
pub struct Fixture {
    pub engine: Engine,
    pub encoder: PlanEncoder,
    pub model: CostModel,
    pub gpsj: GpsjModel,
    pub pool: PlanPool,
    pub stages: StageTimes,
}

impl Fixture {
    /// Builds the served system from [`FIXTURE_SEED`] and the plan pool
    /// from `seed`.
    pub fn build(seed: u64) -> Self {
        let mut stages = StageTimes::default();

        let t = telemetry::clock_ns();
        let data = workloads::imdb::generate(&workloads::ImdbConfig {
            title_rows: TITLE_ROWS,
            seed: FIXTURE_SEED,
        });
        let scale = data.simulated_scale();
        let engine = Engine::with_options(
            data.catalog,
            PlannerOptions::scaled_to(scale),
            ClusterConfig::default(),
            SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
        );
        stages.generate_s = seconds_since(t);

        let t = telemetry::clock_ns();
        let collection = raal::collect(
            &engine,
            &data.graph,
            &CollectionConfig {
                num_queries: COLLECT_QUERIES,
                seed: FIXTURE_SEED,
                ..CollectionConfig::default()
            },
        );
        stages.collect_s = seconds_since(t);

        let t = telemetry::clock_ns();
        let encoder = collection.build_encoder(
            &W2vConfig {
                dim: W2V_DIM,
                epochs: W2V_EPOCHS,
                ..W2vConfig::default()
            },
            EncoderConfig::default(),
        );
        stages.w2v_train_s = seconds_since(t);

        let samples = collection.encode(&encoder, &engine);
        let t = telemetry::clock_ns();
        let mut model = CostModel::new(ModelConfig::raal(encoder.node_dim()));
        raal::train(
            &mut model,
            &samples[..TRAIN_SAMPLES.min(samples.len())],
            &TrainConfig {
                epochs: TRAIN_EPOCHS,
                lr: 1.5e-3,
                batch_size: 32,
                clip_norm: 5.0,
                seed: FIXTURE_SEED,
                threads: 0,
            },
        );
        stages.train_s = seconds_since(t);

        let t = telemetry::clock_ns();
        let pool = plan_pool(&engine, &data.graph, seed);
        stages.plan_pool_s = seconds_since(t);

        let gpsj = GpsjModel::new(GpsjParams { data_scale: scale, ..GpsjParams::default() });
        Self { engine, encoder, model, gpsj, pool, stages }
    }

    /// The cluster resource features are normalised against.
    pub fn cluster(&self) -> &ClusterConfig {
        self.engine.simulator().cluster()
    }
}

/// Plans [`POOL_QUERIES`] generated queries without executing them. A
/// query the planner rejects is dropped; the generator emits only valid
/// SQL, so the pool printing fewer queries than asked is itself a
/// finding.
fn plan_pool(engine: &Engine, graph: &FkGraph, seed: u64) -> PlanPool {
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = generate_queries(graph, &QueryGenConfig::default(), POOL_QUERIES, &mut rng);
    PlanPool::from_candidates(
        queries
            .iter()
            .filter_map(|sql| engine.plan_candidates(sql).ok())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparksim::catalog::Catalog;
    use sparksim::schema::{ColumnDef, TableSchema};
    use sparksim::storage::{Column, ColumnData, Table};
    use sparksim::types::DataType;

    fn tiny_engine() -> Engine {
        let mut catalog = Catalog::new();
        catalog.register(Table::new(
            TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
            vec![Column::non_null(ColumnData::Int((0..100).collect()))],
        ));
        Engine::new(catalog)
    }

    #[test]
    fn identical_plans_collapse_and_candidate_sets_keep_pointing_at_them() {
        let engine = tiny_engine();
        let a = engine
            .plan_candidates("SELECT COUNT(*) FROM t WHERE id < 10")
            .unwrap();
        let b = engine
            .plan_candidates("SELECT COUNT(*) FROM t WHERE id < 20")
            .unwrap();
        let a_len = a.len();
        let b_len = b.len();
        // Query `a` twice: the second copy must add no plan.
        let pool = PlanPool::from_candidates(vec![a.clone(), b, a]);
        assert_eq!(pool.candidate_sets.len(), 3);
        assert_eq!(pool.candidate_sets[0], pool.candidate_sets[2]);
        assert_ne!(pool.candidate_sets[0], pool.candidate_sets[1]);
        assert_eq!(pool.plans.len(), a_len + b_len);
        let mut texts: Vec<String> = pool.plans.iter().map(PhysicalPlan::explain).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), pool.plans.len(), "pool holds a duplicate plan");
        for set in &pool.candidate_sets {
            for &i in set {
                assert!((i as usize) < pool.plans.len());
            }
        }
        assert!(pool.mean_nodes() >= 1.0);
    }
}
