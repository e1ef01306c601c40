//! Plan selection: the end use of the cost model (paper Fig. 1) — given a
//! query's candidate plans and the resources the manager just allocated,
//! predict each plan's time and run the cheapest.

use crate::model::CostModel;
use encoding::PlanEncoder;
use sparksim::{Engine, EngineError, PhysicalPlan, ResourceConfig};

/// Predicts every candidate's cost and returns the index of the cheapest.
///
/// # Panics
/// Panics when `plans` is empty or one of them is not a single tree.
pub fn select_plan(
    model: &CostModel,
    encoder: &PlanEncoder,
    plans: &[PhysicalPlan],
    resources: &ResourceConfig,
    engine: &Engine,
) -> usize {
    assert!(!plans.is_empty(), "no candidate plans");
    let features = resources.feature_vector(engine.simulator().cluster());
    // Candidates of one query share most operators: each is encoded once.
    let cache = encoder.op_cache();
    let costs = plans.iter().map(|plan| {
        // As `PlanEncoder::encode`: a malformed candidate must not be priced.
        let (encoded, _) = encoder
            .try_encode_in(plan, Some(&cache))
            .unwrap_or_else(|e| panic!("plan is not a single tree: {e}"));
        model.predict_seconds(&encoded, &features)
    });
    costs
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(0, |(i, _)| i)
}

/// The outcome of a head-to-head between the rule-based default plan and
/// the model-selected plan, measured on the simulator.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Index of the plan the model picked.
    pub chosen: usize,
    /// Simulated seconds of the chosen plan.
    pub chosen_seconds: f64,
    /// Simulated seconds of Catalyst's default plan (index 0).
    pub default_seconds: f64,
    /// Index of the truly fastest plan.
    pub oracle: usize,
    /// Simulated seconds of the truly fastest plan.
    pub oracle_seconds: f64,
}

impl SelectionOutcome {
    /// Speedup of the model's choice over the rule-based default.
    pub fn speedup(&self) -> f64 {
        self.default_seconds / self.chosen_seconds.max(1e-9)
    }

    /// Whether the model picked the true optimum.
    pub fn optimal(&self) -> bool {
        self.chosen == self.oracle
    }
}

/// Evaluates plan selection for one query under the given resources,
/// using noise-free repeated simulation as ground truth.
pub fn evaluate_selection(
    engine: &Engine,
    model: &CostModel,
    encoder: &PlanEncoder,
    sql: &str,
    resources: &ResourceConfig,
    seed: u64,
) -> Result<SelectionOutcome, EngineError> {
    let plans = engine.plan_candidates(sql)?;
    let chosen = select_plan(model, encoder, &plans, resources, engine);

    // Ground truth: average several simulated runs per plan.
    let mut times = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let result = engine.execute_plan(plan)?;
        let mut total = 0.0;
        for r in 0..3u64 {
            total += engine.simulator().simulate(
                plan,
                &result.metrics,
                resources,
                seed ^ (i as u64 * 131 + r),
            );
        }
        times.push(total / 3.0);
    }
    let oracle = times
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    Ok(SelectionOutcome {
        chosen,
        chosen_seconds: times[chosen],
        default_seconds: times[0],
        oracle,
        oracle_seconds: times[oracle],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{collect, CollectionConfig};
    use crate::model::{CostModel, ModelConfig};
    use crate::train::{train, TrainConfig};
    use encoding::word2vec::W2vConfig;
    use encoding::EncoderConfig;
    use workloads::imdb;

    #[test]
    fn selection_pipeline_end_to_end() {
        let data = imdb::generate(&imdb::ImdbConfig { title_rows: 400, seed: 5 });
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
        let cfg = CollectionConfig {
            num_queries: 10,
            resource_states_per_plan: 2,
            runs_per_observation: 1,
            threads: 2,
            ..Default::default()
        };
        let coll = collect(&engine, &graph, &cfg);
        let encoder =
            coll.build_encoder(&W2vConfig { dim: 8, epochs: 1 }, EncoderConfig::default());
        let samples = coll.encode(&encoder, &engine);
        let mut model = CostModel::new(ModelConfig {
            hidden: 16,
            latent_k: 8,
            head_hidden: 16,
            ..ModelConfig::raal(encoder.node_dim())
        });
        train(
            &mut model,
            &samples,
            &TrainConfig {
                epochs: 2,
                batch_size: 16,
                threads: 2,
                ..Default::default()
            },
        );
        let res = ResourceConfig::default_for(engine.simulator().cluster());
        let outcome = evaluate_selection(
            &engine,
            &model,
            &encoder,
            "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = mk.movie_id",
            &res,
            9,
        )
        .unwrap();
        assert!(outcome.chosen_seconds > 0.0);
        assert!(outcome.oracle_seconds <= outcome.chosen_seconds + 1e-9);
        assert!(outcome.oracle_seconds <= outcome.default_seconds + 1e-9);
    }
}
