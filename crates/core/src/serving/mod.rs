//! Degraded-mode serving: deadlines, admission control and an
//! analytical fallback around the deep cost model.
//!
//! A trained [`CostModel`](crate::model::CostModel) is the *fast path*;
//! production plan selection cannot afford to block on it forever or to
//! crash when a checkpoint is corrupt. [`shard::ShardedServing`] is the
//! service that wraps it — the whole request path and every guard rail
//! live there, run on the caller's thread, and each [`FallbackReason`]
//! names one way a call ends up with the analytical answer instead.
//!
//! This module holds the vocabulary ([`ServingConfig`],
//! [`FallbackReason`], [`SloStats`], [`ServingPrediction`]) and
//! [`ServingModel`], a single-caller (`&mut self`) façade over the
//! service.
//!
//! The fallback is any [`FallbackModel`] — in this workspace the GPSJ
//! analytical baseline (`baselines::gpsj::GpsjModel`) implements it, and
//! plain closures work too:
//!
//! ```
//! use raal::serving::{FallbackReason, PredictionSource, ServingConfig, ServingModel};
//! use sparksim::catalog::Catalog;
//! use sparksim::engine::Engine;
//! use sparksim::resource::{ClusterConfig, ResourceConfig};
//! use sparksim::schema::{ColumnDef, TableSchema};
//! use sparksim::storage::{Column, ColumnData, Table};
//! use sparksim::types::DataType;
//!
//! let mut catalog = Catalog::new();
//! catalog.register(Table::new(
//!     TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
//!     vec![Column::non_null(ColumnData::Int((0..100).collect()))],
//! ));
//! let engine = Engine::new(catalog);
//! let plan = engine.plan_candidates("SELECT COUNT(*) FROM t").unwrap().remove(0);
//!
//! // A missing/corrupt checkpoint degrades instead of panicking.
//! let mut serving = ServingModel::from_checkpoint(
//!     std::path::Path::new("/nonexistent/raal.json"),
//!     Box::new(|_plan: &sparksim::PhysicalPlan, _res: &ResourceConfig| 42.0),
//!     ServingConfig::default(),
//! );
//! let pred = serving.predict(&plan, &ResourceConfig::default_for(&ClusterConfig::default()));
//! assert_eq!(pred.seconds, 42.0);
//! assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Checkpoint));
//! ```

pub mod handoff;
mod plan_cache;
pub mod shard;

pub use plan_cache::plan_key_charge;

use crate::model::FrozenModel;
use crate::persist::ModelBundle;
use shard::{ShardConfig, ShardedServing};
use sparksim::plan::physical::PhysicalPlan;
use sparksim::resource::{ClusterConfig, ResourceConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// An always-available analytical estimator that backs up the deep
/// model. Implementations must be cheap and total: no I/O, no panics.
///
/// `baselines::gpsj::GpsjModel` implements this; closures of the right
/// shape do too via the blanket impl.
pub trait FallbackModel {
    /// Estimated wall-clock seconds for `plan` under `res`.
    fn estimate_seconds(&self, plan: &PhysicalPlan, res: &ResourceConfig) -> f64;
}

impl<F> FallbackModel for F
where
    F: Fn(&PhysicalPlan, &ResourceConfig) -> f64,
{
    fn estimate_seconds(&self, plan: &PhysicalPlan, res: &ResourceConfig) -> f64 {
        self(plan, res)
    }
}

/// Serving-time guard-rail settings.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Per-predict budget: a call that took this long or longer is
    /// answered by the fallback instead of the model (judged after
    /// pricing; a zero deadline is never met).
    pub deadline: Duration,
    /// Largest plan (in physical nodes) admitted to the deep model.
    pub max_plan_nodes: usize,
    /// Cluster used to normalise resource feature vectors.
    pub cluster: ClusterConfig,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_millis(50),
            max_plan_nodes: 64,
            cluster: ClusterConfig::default(),
        }
    }
}

/// Why a prediction came from the fallback rather than the deep model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The checkpoint failed to load or failed shape validation.
    Checkpoint,
    /// The plan exceeded [`ServingConfig::max_plan_nodes`], or is not
    /// a single bottom-up tree the encoder accepts.
    Admission,
    /// The call took [`ServingConfig::deadline`] or longer; its model
    /// answers were computed and set aside.
    Deadline,
    /// The service was shut down.
    Busy,
    /// Pricing panicked, on this call or an earlier one: the service
    /// answers analytically from then on and does not touch the model
    /// again.
    WorkerLost,
    /// The tenant already had its fair share of calls in flight
    /// ([`shard::ShardConfig::tenant_inflight`]).
    TenantQuota,
}

impl FallbackReason {
    /// Every reason, in a stable order (indexes [`SloStats::by_reason`]).
    pub const ALL: [FallbackReason; 6] = [
        FallbackReason::Checkpoint,
        FallbackReason::Admission,
        FallbackReason::Deadline,
        FallbackReason::Busy,
        FallbackReason::WorkerLost,
        FallbackReason::TenantQuota,
    ];

    /// The registered telemetry counter for this reason.
    pub fn counter(self) -> &'static str {
        match self {
            FallbackReason::Checkpoint => "serving.fallback.checkpoint",
            FallbackReason::Admission => "serving.fallback.admission",
            FallbackReason::Deadline => "serving.fallback.deadline",
            FallbackReason::Busy => "serving.fallback.busy",
            FallbackReason::WorkerLost => "serving.fallback.worker_lost",
            FallbackReason::TenantQuota => "serving.fallback.tenant_quota",
        }
    }

    fn idx(self) -> usize {
        match self {
            FallbackReason::Checkpoint => 0,
            FallbackReason::Admission => 1,
            FallbackReason::Deadline => 2,
            FallbackReason::Busy => 3,
            FallbackReason::WorkerLost => 4,
            FallbackReason::TenantQuota => 5,
        }
    }
}

/// Point-in-time serving-quality statistics: how often the deep model
/// actually answered, and which guard rail ate the misses. Maintained
/// by the service itself (plain counters, no telemetry required); with
/// telemetry on, the `serving.predict`, `serving.predict.model` and
/// `serving.fallback.*` counters carry the same counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloStats {
    /// Predictions served in total.
    pub total: u64,
    /// Predictions answered by the deep model.
    pub model: u64,
    /// Fallback counts, indexed per [`FallbackReason::ALL`].
    pub by_reason: [u64; 6],
}

impl SloStats {
    /// Fraction of predictions the deep model answered (1.0 before any
    /// traffic — an idle server has not missed its SLO).
    pub fn hit_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.model as f64 / self.total as f64
        }
    }

    /// Fallbacks attributed to `reason`.
    pub fn count(&self, reason: FallbackReason) -> u64 {
        // idx() enumerates the FallbackReason variants and by_reason is
        // sized to that variant count.
        self.by_reason[reason.idx()]
    }
}

/// Where a [`ServingPrediction`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionSource {
    /// The deep cost model answered within its deadline.
    Model,
    /// The analytical fallback answered, for the given reason.
    Fallback(FallbackReason),
}

/// One serving-time answer: always produced, never a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingPrediction {
    /// Estimated wall-clock seconds.
    pub seconds: f64,
    /// Which estimator produced it.
    pub source: PredictionSource,
}

/// The tenant every [`ServingModel`] call is accounted under.
const FACADE_TENANT: &str = "serving_model";

/// The single-caller face of the serving service: a [`ShardedServing`]
/// with one fixed tenant behind `&mut self` call shapes that take no
/// tenant id. Everything it does — guard rails, accounting, telemetry
/// — is the service's; see [`shard`] for the contract and the request
/// path.
pub struct ServingModel {
    service: ShardedServing,
}

impl ServingModel {
    fn shard_config(cfg: ServingConfig) -> ShardConfig {
        ShardConfig { serving: cfg, ..ShardConfig::default() }
    }

    /// Serves a loaded bundle ([`ShardedServing::new`]).
    pub fn new(
        bundle: ModelBundle,
        fallback: Box<dyn FallbackModel + Send + Sync>,
        cfg: ServingConfig,
    ) -> Self {
        Self {
            service: ShardedServing::new(bundle, Arc::from(fallback), Self::shard_config(cfg)),
        }
    }

    /// Loads a checkpoint and serves it; a bundle that fails
    /// [`ModelBundle::load`] validation yields a permanently degraded
    /// server (every predict answered by the fallback) instead of an
    /// error or panic.
    pub fn from_checkpoint(
        path: &Path,
        fallback: Box<dyn FallbackModel + Send + Sync>,
        cfg: ServingConfig,
    ) -> Self {
        let service =
            ShardedServing::from_checkpoint(path, Arc::from(fallback), Self::shard_config(cfg));
        Self { service }
    }

    /// A server with no deep model at all — every predict is answered by
    /// the fallback with the given sticky reason.
    pub fn degraded(
        fallback: Box<dyn FallbackModel + Send + Sync>,
        cfg: ServingConfig,
        reason: FallbackReason,
    ) -> Self {
        Self {
            service: ShardedServing::degraded(Arc::from(fallback), Self::shard_config(cfg), reason),
        }
    }

    /// The frozen model handle, when the server is healthy. Cloning it
    /// is a reference-count bump — replicas share one copy of the
    /// weights ([`FrozenModel`]).
    pub fn model(&self) -> Option<&FrozenModel> {
        self.service.model()
    }

    /// True when the server was built without a deep model.
    pub fn is_degraded(&self) -> bool {
        self.service.is_degraded()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.service.config().serving
    }

    /// Adjusts the per-predict deadline at runtime (e.g. tightening
    /// under load, loosening for batch scoring).
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.service.set_deadline(deadline);
    }

    /// Scores a plan, never failing ([`ShardedServing::predict`]).
    pub fn predict(&mut self, plan: &PhysicalPlan, res: &ResourceConfig) -> ServingPrediction {
        self.service.predict(FACADE_TENANT, plan, res)
    }

    /// Scores K candidate plans under one resource configuration in
    /// one call, judged against one deadline
    /// ([`ShardedServing::predict_many`]).
    pub fn predict_many(
        &mut self,
        plans: &[&PhysicalPlan],
        res: &ResourceConfig,
    ) -> Vec<ServingPrediction> {
        self.service.predict_many(FACADE_TENANT, plans, res)
    }

    /// Lifetime serving-quality counters for this server.
    pub fn slo_stats(&self) -> SloStats {
        self.service.slo_stats()
    }
}
