//! Data collection (the paper's Sec. IV-B "Data Collection" phase):
//! generate queries → enumerate candidate plans → execute each plan once
//! for true metrics → observe it under many resource states (averaged over
//! three runs, as in Sec. III) → train word2vec on the plan-statement
//! corpus → encode labelled samples.

use crate::model::MAX_SECONDS;
use encoding::plan_encoder::{PlanEncoder, Sample};
use encoding::tokenizer::plan_sentences;
use encoding::word2vec::{train as train_w2v, W2vConfig};
use encoding::EncoderConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparksim::exec::NodeMetrics;
use sparksim::resource::ResourceGrid;
use sparksim::{Engine, PhysicalPlan, ResourceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::querygen::{generate_queries, QueryGenConfig};
use workloads::FkGraph;

/// Collection parameters.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Queries to generate.
    pub num_queries: usize,
    /// Resource states observed per plan.
    pub resource_states_per_plan: usize,
    /// Simulated runs averaged per observation (the paper uses 3).
    pub runs_per_observation: usize,
    /// Query-generation knobs.
    pub querygen: QueryGenConfig,
    /// Resource grid to sample from.
    pub grid: ResourceGrid,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        Self {
            num_queries: 200,
            resource_states_per_plan: 3,
            runs_per_observation: 3,
            querygen: QueryGenConfig::default(),
            grid: ResourceGrid::default(),
            seed: 0xC0DE,
            threads: 0,
        }
    }
}

/// One plan with its observations.
#[derive(Debug, Clone)]
pub struct PlanRun {
    /// Index of the originating query.
    pub query_idx: usize,
    /// Index among the query's candidate plans (0 = Catalyst default).
    pub plan_idx: usize,
    /// The physical plan.
    pub plan: PhysicalPlan,
    /// True per-node execution metrics.
    pub metrics: Vec<NodeMetrics>,
    /// Observed (resources, mean seconds) pairs.
    pub observations: Vec<(ResourceConfig, f64)>,
}

/// A full collected dataset, pre-encoding.
#[derive(Debug)]
pub struct Collection {
    /// All plan runs.
    pub plan_runs: Vec<PlanRun>,
    /// Queries that failed to plan or execute (kept for accounting).
    pub skipped_queries: usize,
}

impl Collection {
    /// Total number of (plan, resources, time) records.
    pub fn num_records(&self) -> usize {
        self.plan_runs.iter().map(|p| p.observations.len()).sum()
    }

    /// Trains word2vec on every plan statement in the collection and
    /// builds the sample encoder.
    pub fn build_encoder(&self, w2v_cfg: &W2vConfig, enc_cfg: EncoderConfig) -> PlanEncoder {
        let mut corpus = Vec::new();
        for run in &self.plan_runs {
            corpus.extend(plan_sentences(&run.plan));
        }
        PlanEncoder::new(train_w2v(&corpus, w2v_cfg), enc_cfg)
    }

    /// Encodes every observation into a training sample.
    pub fn encode(&self, encoder: &PlanEncoder, engine: &Engine) -> Vec<Sample> {
        let cluster = engine.simulator().cluster();
        let mut out = Vec::with_capacity(self.num_records());
        for run in &self.plan_runs {
            let encoded = encoder.encode(&run.plan);
            for (res, seconds) in &run.observations {
                out.push(Sample {
                    plan: encoded.clone(),
                    resources: res.feature_vector(cluster),
                    seconds: *seconds,
                });
            }
        }
        out
    }
}

/// Runs the full collection pipeline over a workload.
pub fn collect(engine: &Engine, graph: &FkGraph, cfg: &CollectionConfig) -> Collection {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let queries = generate_queries(graph, &cfg.querygen, cfg.num_queries, &mut rng);
    collect_queries(engine, &queries, cfg)
}

/// Runs collection over an explicit query list.
pub fn collect_queries(engine: &Engine, queries: &[String], cfg: &CollectionConfig) -> Collection {
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.threads
    };
    // Workers take the next unclaimed query, so one slow query occupies
    // one worker, not a chunk; `collect_one` depends on the query's index
    // alone, so who runs it changes nothing.
    let next = AtomicUsize::new(0);
    let mut plan_runs = Vec::new();
    let mut skipped = 0usize;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, queries.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut local_runs = Vec::new();
                    let mut local_skipped = 0usize;
                    loop {
                        // ORDERING: Relaxed — the counter only hands out
                        // distinct indices; the results travel through `join`.
                        let query_idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(sql) = queries.get(query_idx) else {
                            break;
                        };
                        match collect_one(engine, sql, query_idx, cfg) {
                            Some(runs) => local_runs.extend(runs),
                            None => local_skipped += 1,
                        }
                    }
                    (local_runs, local_skipped)
                })
            })
            .collect();
        for h in handles {
            // Re-raise a worker panic with its original payload instead
            // of a generic join failure.
            let (runs, s) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            plan_runs.extend(runs);
            skipped += s;
        }
    });

    // Deterministic order regardless of thread interleaving.
    plan_runs.sort_by_key(|r| (r.query_idx, r.plan_idx));
    Collection { plan_runs, skipped_queries: skipped }
}

fn collect_one(
    engine: &Engine,
    sql: &str,
    query_idx: usize,
    cfg: &CollectionConfig,
) -> Option<Vec<PlanRun>> {
    let plans = engine.plan_candidates(sql).ok()?;
    let cluster = engine.simulator().cluster().clone();
    // Per-query deterministic RNG for resource sampling.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (query_idx as u64).wrapping_mul(0x9E37));
    let mut runs = Vec::with_capacity(plans.len());
    for (plan_idx, plan) in plans.into_iter().enumerate() {
        // Execute once: metrics are resource-independent.
        let result = match engine.execute_plan(&plan) {
            Ok(r) => r,
            Err(_) => return None, // runaway query: skip it entirely
        };
        let mut observations = Vec::with_capacity(cfg.resource_states_per_plan);
        for obs in 0..cfg.resource_states_per_plan {
            let res = cfg.grid.sample(&cluster, &mut rng);
            let mut total = 0.0;
            for run in 0..cfg.runs_per_observation.max(1) {
                let seed = cfg
                    .seed
                    .wrapping_add(query_idx as u64 * 1_000_003)
                    .wrapping_add(plan_idx as u64 * 7919)
                    .wrapping_add(obs as u64 * 97)
                    .wrapping_add(run as u64);
                total += engine.simulator().simulate(&plan, &result.metrics, &res, seed);
            }
            let mean = total / cfg.runs_per_observation.max(1) as f64;
            // Failed placements (1h sentinel) are real observations the
            // model should learn, but cap to the label range.
            observations.push((res, mean.min(MAX_SECONDS)));
        }
        runs.push(PlanRun {
            query_idx,
            plan_idx,
            plan,
            metrics: result.metrics,
            observations,
        });
    }
    Some(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::imdb;

    fn tiny_engine() -> (Engine, FkGraph, f64) {
        let data = imdb::generate(&imdb::ImdbConfig { title_rows: 400, seed: 3 });
        let scale = data.simulated_scale();
        let graph = data.graph.clone();
        let sim_cfg = sparksim::SimulatorConfig {
            data_scale: scale,
            ..sparksim::SimulatorConfig::default()
        };
        let engine = Engine::with_options(
            data.catalog,
            sparksim::plan::planner::PlannerOptions::default(),
            sparksim::ClusterConfig::default(),
            sim_cfg,
        );
        (engine, graph, scale)
    }

    #[test]
    fn collects_and_encodes_samples() {
        let (engine, graph, _) = tiny_engine();
        let cfg = CollectionConfig {
            num_queries: 8,
            resource_states_per_plan: 2,
            runs_per_observation: 2,
            threads: 2,
            ..Default::default()
        };
        let coll = collect(&engine, &graph, &cfg);
        assert!(coll.num_records() > 0);
        let encoder = coll.build_encoder(
            &W2vConfig { dim: 8, epochs: 1, ..Default::default() },
            EncoderConfig::default(),
        );
        let samples = coll.encode(&encoder, &engine);
        assert_eq!(samples.len(), coll.num_records());
        for s in &samples {
            assert!(s.seconds > 0.0 && s.seconds.is_finite());
            assert_eq!(s.resources.len(), ResourceConfig::NUM_FEATURES);
            assert!(s.plan.num_nodes() > 0);
        }
    }

    /// Same collection twice, and whoever runs which query: the shared
    /// query index hands queries out in a different order per schedule.
    #[test]
    fn collection_is_deterministic() {
        let (engine, graph, _) = tiny_engine();
        let cfg = |threads| CollectionConfig {
            num_queries: 9,
            resource_states_per_plan: 2,
            runs_per_observation: 1,
            threads,
            ..Default::default()
        };
        let a = collect(&engine, &graph, &cfg(2));
        assert!(a.plan_runs.len() >= 9, "only {} plan runs", a.plan_runs.len());
        for threads in [2, 1, 3, 7] {
            let b = collect(&engine, &graph, &cfg(threads));
            assert_eq!(a.skipped_queries, b.skipped_queries, "threads = {threads}");
            assert_eq!(a.plan_runs.len(), b.plan_runs.len(), "threads = {threads}");
            for (ra, rb) in a.plan_runs.iter().zip(&b.plan_runs) {
                assert_eq!((ra.query_idx, ra.plan_idx), (rb.query_idx, rb.plan_idx));
                assert!(ra.plan == rb.plan && ra.metrics == rb.metrics, "threads = {threads}");
                assert_eq!(ra.observations.len(), rb.observations.len());
                for ((resa, ta), (resb, tb)) in ra.observations.iter().zip(&rb.observations) {
                    assert_eq!(resa, resb);
                    assert_eq!(ta.to_bits(), tb.to_bits());
                }
            }
        }
    }

    #[test]
    fn same_plan_varies_across_resources() {
        let (engine, graph, _) = tiny_engine();
        let cfg = CollectionConfig {
            num_queries: 6,
            resource_states_per_plan: 4,
            runs_per_observation: 1,
            threads: 1,
            ..Default::default()
        };
        let coll = collect(&engine, &graph, &cfg);
        // At least one plan should show a time spread across resources.
        let spread = coll.plan_runs.iter().any(|r| {
            let times: Vec<f64> = r.observations.iter().map(|(_, t)| *t).collect();
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = times.iter().cloned().fold(0.0f64, f64::max);
            max > min * 1.2
        });
        assert!(spread, "resources should move execution time");
    }
}
