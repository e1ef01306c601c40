//! Fixtures shared by the serving test binaries: a two-table engine,
//! its plans, and the tiny untrained bundle they serve.
#![allow(dead_code)] // each binary uses its own subset

use encoding::word2vec::{train as w2v_train, W2vConfig};
use encoding::{EncoderConfig, PlanEncoder};
use raal::model::{CostModel, ModelConfig};
use raal::persist::ModelBundle;
use sparksim::catalog::Catalog;
use sparksim::engine::Engine;
use sparksim::plan::physical::PhysicalPlan;
use sparksim::resource::{ClusterConfig, ResourceConfig};
use sparksim::schema::{ColumnDef, TableSchema};
use sparksim::storage::{Column, ColumnData, Table};
use sparksim::types::DataType;

pub fn engine() -> Engine {
    let mut catalog = Catalog::new();
    catalog.register(Table::new(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("x", DataType::Int, false),
            ],
        ),
        vec![
            Column::non_null(ColumnData::Int((0..200).collect())),
            Column::non_null(ColumnData::Int((0..200).map(|i| i % 10).collect())),
        ],
    ));
    catalog.register(Table::new(
        TableSchema::new(
            "u",
            vec![
                ColumnDef::new("t_id", DataType::Int, false),
                ColumnDef::new("y", DataType::Int, false),
            ],
        ),
        vec![
            Column::non_null(ColumnData::Int((0..400).map(|i| i % 200).collect())),
            Column::non_null(ColumnData::Int((0..400).map(|i| i % 7).collect())),
        ],
    ));
    Engine::new(catalog)
}

pub fn some_plan(engine: &Engine) -> PhysicalPlan {
    engine
        .plan_candidates("SELECT t.x, COUNT(*) FROM t GROUP BY t.x")
        .unwrap()
        .remove(0)
}

pub fn candidate_plans(engine: &Engine) -> Vec<PhysicalPlan> {
    engine
        .plan_candidates("SELECT t.x, COUNT(*) FROM t, u WHERE t.id = u.t_id GROUP BY t.x")
        .unwrap()
}

pub fn resources() -> ResourceConfig {
    ResourceConfig::default_for(&ClusterConfig::default())
}

pub fn tiny_bundle() -> ModelBundle {
    bundle_with_model_input(0)
}

/// The tiny untrained bundle, its model built for node features
/// `narrower_by` narrower than the bundled encoder emits.
pub fn bundle_with_model_input(narrower_by: usize) -> ModelBundle {
    let corpus = vec![vec!["filescan".to_string(), "hashaggregate".to_string()]];
    let encoder = PlanEncoder::new(
        w2v_train(&corpus, &W2vConfig { dim: 4, epochs: 1, ..Default::default() }),
        EncoderConfig { max_nodes: 32, structure: true },
    );
    let model = CostModel::new(ModelConfig {
        hidden: 8,
        latent_k: 4,
        head_hidden: 8,
        ..ModelConfig::raal(encoder.node_dim() - narrower_by)
    });
    ModelBundle::new(model, &encoder)
}
