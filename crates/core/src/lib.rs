//! # raal — the Resource-Aware Attentional LSTM deep cost model
//!
//! The primary contribution of *"A Resource-Aware Deep Cost Model for Big
//! Data Query Processing"* (ICDE 2022), built on the `sparksim`,
//! `workloads`, `encoding` and `nn` substrates:
//!
//! * [`model`] — the RAAL network (LSTM plan-feature layer, node-aware
//!   attention, resource-aware attention, dense head) and all ablations
//!   (NA-LSTM, RAAC, ±resource attention; NE-LSTM via the encoder's
//!   structure flag);
//! * [`mod@train`] — mini-batch Adam training with multi-threaded gradients;
//! * [`dataset`] — the data-collection pipeline (queries → plans →
//!   observed runs → word2vec → samples);
//! * [`metrics`] — RE, MSE, COR and R² (Eqs. 12–15);
//! * [`selection`] — plan selection with a trained model (Fig. 1's use);
//! * [`serving`] — the production service ([`ShardedServing`]): sharded,
//!   cross-request-batching and multi-tenant, with deadlines, admission
//!   control and graceful degradation to an analytical fallback;
//!   [`ServingModel`] is its single-caller façade.
//!
//! Quickstart: see `examples/quickstart.rs` at the workspace root.

#![warn(missing_docs)]

pub mod dataset;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod selection;
pub mod serving;
pub mod train;

pub use dataset::{collect, Collection, CollectionConfig};
pub use metrics::{EvalSet, MetricSummary};
pub use model::{
    thread_arena_stats, CostModel, FrozenModel, ModelConfig, PlanContext, PlanLayerKind,
};
pub use persist::ModelBundle;
pub use selection::{evaluate_selection, select_plan, SelectionOutcome};
pub use serving::shard::{ShardConfig, ShardedServing};
pub use serving::{
    FallbackModel, FallbackReason, PredictionSource, ServingConfig, ServingModel, ServingPrediction,
};
pub use train::{evaluate, train, train_test_split, TrainConfig, TrainHistory};
