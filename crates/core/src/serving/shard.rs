//! The serving service: one frozen model that any number of client
//! threads price with directly, behind per-tenant fair-share admission
//! and a plan-context cache.
//!
//! [`ShardedServing::predict`] takes `&self` and is the whole request
//! path, run on the calling thread: admission → tenant slot → per
//! admitted plan: [`PhysicalPlan::structural_hash`] → lookup in the
//! service-wide plan-context cache (the `plan_cache` module; a hit is
//! confirmed by `==`) → a hit runs the head over the cached
//! [`PlanContext`](crate::model::PlanContext); a miss encodes the plan
//! through the service's operator-row [`OpCache`] (the rows of the
//! operators it has met are copied, not recomputed), builds its context
//! and runs the same head → the answers are counted.
//! There is no queue, no service thread and no second route: the caller
//! threads are the service's parallelism, and every one of them prices
//! with the same Arc-shared [`FrozenModel`]. A plan is admitted to the
//! cache on its second recent sighting, so a stream of distinct plans
//! pays one hash per plan and retains nothing.
//!
//! Every guard rail answers from the analytical fallback and counts
//! the trip:
//!
//! * a corrupt checkpoint degrades the whole service
//!   (`serving.fallback.checkpoint`);
//! * an oversized plan, or one the encoder rejects as malformed, falls
//!   back alone (`serving.fallback.admission`);
//! * **fair share** — a tenant with [`ShardConfig::tenant_inflight`]
//!   calls already inside the service is shed before any lookup or
//!   encoding (`serving.fallback.tenant_quota`); this and the caller
//!   threads themselves are what bounds the work in flight;
//! * **the deadline is judged once, after pricing**, from the two clock
//!   readings that time the call: a call that took
//!   [`ServingConfig::deadline`] or longer has its model answers
//!   replaced by analytical ones (`serving.fallback.deadline`), so a
//!   zero deadline is never met. A synchronous forward pass cannot be
//!   interrupted; what bounds it is `max_plan_nodes` admission;
//! * a panic while pricing is caught on the calling thread, answered
//!   `serving.fallback.worker_lost`, and **sticky service-wide**: every
//!   later call is answered the same way without touching the model;
//! * after [`ShardedServing::shutdown`] every call sheds
//!   `serving.fallback.busy`.
//!
//! Every call also counts `serving.tenant.predict.<tenant>`, every shed
//! one `serving.tenant.shed.<tenant>`.
//!
//! **Pinned, unused by the service.** [`BatchQueue`] and [`ReplySlot`]
//! (with the `wait` / `wait_timeout` helpers under them) were the hop
//! between client and dispatcher threads until the service stopped
//! having any; [`ShardConfig::shards`] counted those threads. The repo
//! benchmark, which a library change may not edit, still times the
//! first two and sets the third, so they stay — model-checked as before
//! (`crates/core/tests/model_check.rs`) — until a `benchmark` PR lets
//! go of them (ROADMAP item 4).

#![deny(missing_docs)]

use super::plan_cache::{Lookup, PlanCache};
use super::{
    FallbackModel, FallbackReason, PredictionSource, ServingConfig, ServingPrediction, SloStats,
};
use crate::model::FrozenModel;
use crate::persist::ModelBundle;
use encoding::{OpCache, PlanEncoder};
use raal_sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use raal_sync::sync::{Condvar, Mutex, MutexGuard};
use sparksim::plan::physical::PhysicalPlan;
use sparksim::resource::ResourceConfig;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Acquires a mutex, recovering the guard from a poisoned lock: every
/// protected value here (queue states, reply slots, the tenant map)
/// stays consistent across a panicking holder, because each critical
/// section is a handful of field writes with no invariant spanning an
/// unwind point.
pub(super) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Blocks on a condvar, recovering from poison like [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Timed condvar wait; returns the reacquired guard and whether the
/// wait timed out.
fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, bool) {
    match cv.wait_timeout(guard, dur) {
        Ok((guard, timeout)) => (guard, timeout.timed_out()),
        Err(poisoned) => {
            let (guard, timeout) = poisoned.into_inner();
            (guard, timeout.timed_out())
        }
    }
}

/// Service settings. The per-request guard rails (deadline, admission
/// size, SLO target) live in the embedded [`ServingConfig`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Ignored: the service has no threads of its own to count (see
    /// "Pinned" in the [module docs](self)).
    pub shards: usize,
    /// Fair-share cap: the most calls one tenant may have inside the
    /// service at once before new ones are shed
    /// (`serving.fallback.tenant_quota`).
    pub tenant_inflight: u32,
    /// The per-request guard rails.
    pub serving: ServingConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            tenant_inflight: 64,
            serving: ServingConfig::default(),
        }
    }
}

/// A single-use completion cell (pinned, see the [module docs](self)):
/// a waiter parks on it while another thread works, and exactly one of
/// them settles it.
///
/// The three states make the settle race explicit: the worker's
/// [`complete`](Self::complete) moves `Waiting → Done` and returns
/// `true`; a waiter whose [`wait_deadline`](Self::wait_deadline)
/// expires moves `Waiting → Abandoned`, after which `complete` returns
/// `false` — so both sides always agree on who owned the outcome.
pub struct ReplySlot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

enum SlotState<T> {
    Waiting,
    Done(T),
    Abandoned,
}

impl<T> ReplySlot<T> {
    /// A fresh slot in the `Waiting` state.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Waiting),
            cv: Condvar::new(),
        }
    }

    /// Settles the slot with `value` if it is still awaited; `true`
    /// means this call delivered the outcome, `false` that the waiter
    /// already abandoned it (or it was settled before).
    pub fn complete(&self, value: T) -> bool {
        let mut state = lock(&self.state);
        match *state {
            SlotState::Waiting => {
                *state = SlotState::Done(value);
                self.cv.notify_all();
                true
            }
            _ => false,
        }
    }

    /// Waits up to `deadline` for the outcome. `None` means the wait
    /// expired and the slot is now `Abandoned`: a later `complete` will
    /// return `false` and the value will be dropped by the completer.
    ///
    /// The bound is absolute: the expiry is fixed once on entry, a wake
    /// without an outcome waits only for what is left of it, and a zero
    /// deadline never waits at all.
    pub fn wait_deadline(&self, deadline: Duration) -> Option<T> {
        let budget_ns = u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX);
        let expires_ns = telemetry::clock_ns().saturating_add(budget_ns);
        let mut remaining = deadline;
        let mut state = lock(&self.state);
        loop {
            // Checked before the expiry on every pass, so a completer
            // that slipped in between a timeout and reacquiring the
            // lock still wins.
            match std::mem::replace(&mut *state, SlotState::Abandoned) {
                SlotState::Done(value) => return Some(value),
                SlotState::Abandoned => return None,
                SlotState::Waiting => {}
            }
            if remaining.is_zero() {
                return None;
            }
            *state = SlotState::Waiting;
            let (reacquired, timed_out) = wait_timeout(&self.cv, state, remaining);
            state = reacquired;
            remaining = if timed_out {
                Duration::ZERO
            } else {
                Duration::from_nanos(expires_ns.saturating_sub(telemetry::clock_ns()))
            };
        }
    }
}

impl<T> Default for ReplySlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A bounded multi-producer queue drained in batches by one consumer
/// (pinned, see the [module docs](self)).
///
/// [`push`](Self::push) never blocks (a full or closed queue hands the
/// item back to the caller); [`drain`](Self::drain) blocks until work
/// or close. After [`close`](Self::close), pushes fail but drains keep
/// returning the backlog until it is empty, so closing loses no queued
/// item.
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `capacity` items (0 rejects everything).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item`, or hands it back if the queue is full or
    /// closed. Never blocks.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = lock(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        self.cv.notify_one();
        Ok(())
    }

    /// Moves up to `max` queued items into `into`, blocking while the
    /// queue is empty and open. Returns `false` only when the queue is
    /// closed *and* fully drained — the consumer's signal to exit.
    pub fn drain(&self, max: usize, into: &mut Vec<T>) -> bool {
        let mut state = lock(&self.state);
        loop {
            if !state.items.is_empty() {
                let take = max.max(1).min(state.items.len());
                into.extend(state.items.drain(..take));
                return true;
            }
            if state.closed {
                return false;
            }
            state = wait(&self.cv, state);
        }
    }

    /// Closes the queue: future pushes fail, and drains return the
    /// remaining backlog then `false`.
    pub fn close(&self) {
        let mut state = lock(&self.state);
        state.closed = true;
        self.cv.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One tenant's admission state and cached telemetry names. The names
/// are built once at first sighting so the per-predict counter bumps
/// borrow them without allocating.
struct TenantEntry {
    inflight: AtomicU32,
    predict_counter: String,
    shed_counter: String,
}

impl TenantEntry {
    /// Claims an in-flight slot under `limit`; `false` means the tenant
    /// is at its fair share and the request must be shed.
    fn try_acquire(&self, limit: u32) -> bool {
        // ORDERING: the in-flight gate is a saturation counter; no data
        // is published through it, so relaxed increments suffice.
        let prev = self.inflight.fetch_add(1, Ordering::Relaxed);
        if prev >= limit {
            // ORDERING: undo of the optimistic relaxed increment above.
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Returns an in-flight slot claimed by [`Self::try_acquire`].
    fn release(&self) {
        // ORDERING: matches the relaxed admission counter in try_acquire.
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The tenant registry: interns one [`TenantEntry`] per tenant id.
struct TenantTable {
    map: Mutex<HashMap<String, Arc<TenantEntry>>>,
    limit: u32,
}

impl TenantTable {
    fn new(limit: u32) -> Self {
        Self { map: Mutex::new(HashMap::new()), limit }
    }

    /// The interned entry for `tenant`, created on first sighting. The
    /// sanitized `serving.tenant.*` counter names are built exactly
    /// once, here.
    fn entry(&self, tenant: &str) -> Arc<TenantEntry> {
        let mut map = lock(&self.map);
        if let Some(entry) = map.get(tenant) {
            // HOT-ALLOC: Arc::clone is a reference-count bump, not a
            // heap allocation.
            return entry.clone();
        }
        // First sighting of this tenant: one-time registration cost
        // (sanitized name strings, map entry); every later predict
        // takes the borrow-only path above.
        let sanitized = sanitize_tenant(tenant);
        // HOT-ALLOC: once per tenant lifetime, not per predict.
        let entry = Arc::new(TenantEntry {
            inflight: AtomicU32::new(0),
            predict_counter: format!("serving.tenant.predict.{sanitized}"),
            shed_counter: format!("serving.tenant.shed.{sanitized}"),
        });
        // HOT-ALLOC: once per tenant lifetime (see above).
        map.insert(tenant.to_string(), entry.clone());
        entry
    }
}

/// Folds a tenant id into the telemetry name alphabet (`[a-z0-9_]`),
/// so the `serving.tenant.*` counter families stay Prometheus-safe no
/// matter what callers pass.
fn sanitize_tenant(tenant: &str) -> String {
    let mut out: String = tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("anon");
    }
    out
}

/// Bytes of plan keys and contexts the plan-context cache may retain —
/// about 4% of the benchmark's resident set, room for roughly six
/// hundred plans of the size it serves.
const PLAN_CACHE_BYTES: usize = 8 << 20;

/// The resource feature vector a call is priced under.
type ResourceFeatures = [f32; ResourceConfig::NUM_FEATURES];

/// Lifetime service-quality counters, shared by every client thread.
struct ServiceStats {
    total: AtomicU64,
    model: AtomicU64,
    by_reason: [AtomicU64; 6],
}

impl ServiceStats {
    fn new() -> Self {
        Self {
            total: AtomicU64::new(0),
            model: AtomicU64::new(0),
            by_reason: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Counts every answer of one call, here and in telemetry
    /// (`serving.predict.model`, `serving.fallback.*`) — the only place
    /// either is bumped, so [`SloStats`] and the counters agree by
    /// construction.
    fn record(&self, out: &[ServingPrediction]) {
        let mut model = 0u64;
        let mut by_reason = [0u64; 6];
        for p in out {
            match p.source {
                PredictionSource::Model => model += 1,
                // PANIC-FREE: idx() enumerates the FallbackReason
                // variants and by_reason is sized to that count.
                PredictionSource::Fallback(reason) => by_reason[reason.idx()] += 1,
            }
        }
        // ORDERING: monotone statistics counters; readers only report,
        // no data is published through them.
        self.total.fetch_add(out.len() as u64, Ordering::Relaxed);
        if model > 0 {
            // ORDERING: same monotone statistics counters.
            self.model.fetch_add(model, Ordering::Relaxed);
            telemetry::count("serving.predict.model", model);
        }
        for (reason, n) in FallbackReason::ALL.into_iter().zip(by_reason) {
            if n > 0 {
                // PANIC-FREE: idx() is below the array's length, as above.
                // ORDERING: same monotone statistics counters.
                self.by_reason[reason.idx()].fetch_add(n, Ordering::Relaxed);
                telemetry::count(reason.counter(), n);
            }
        }
    }
}

/// The multi-tenant serving service (it has had no shards since it
/// stopped having threads; the name is what the benchmark links). See
/// the [module docs](self) for the request path and `docs/SERVING.md`
/// for the operator's guide.
///
/// Every method takes `&self`: the service is `Send + Sync` and meant
/// to be shared across client threads (`Arc<ShardedServing>` or a
/// scoped borrow).
///
/// ```
/// use encoding::word2vec::{train as w2v_train, W2vConfig};
/// use encoding::{EncoderConfig, PlanEncoder};
/// use raal::serving::shard::{ShardConfig, ShardedServing};
/// use raal::serving::{PredictionSource, ServingConfig};
/// use raal::{CostModel, ModelBundle, ModelConfig};
/// use sparksim::catalog::Catalog;
/// use sparksim::engine::Engine;
/// use sparksim::resource::{ClusterConfig, ResourceConfig};
/// use sparksim::schema::{ColumnDef, TableSchema};
/// use sparksim::storage::{Column, ColumnData, Table};
/// use sparksim::types::DataType;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// // A tiny (untrained) bundle keeps the example fast; production
/// // loads a trained checkpoint with `ShardedServing::from_checkpoint`.
/// let corpus = vec![vec!["filescan".to_string(), "hashaggregate".to_string()]];
/// let encoder = PlanEncoder::new(
///     w2v_train(&corpus, &W2vConfig { dim: 4, epochs: 1, ..Default::default() }),
///     EncoderConfig { max_nodes: 32, structure: true },
/// );
/// let model = CostModel::new(ModelConfig {
///     hidden: 8,
///     latent_k: 4,
///     head_hidden: 8,
///     ..ModelConfig::raal(encoder.node_dim())
/// });
/// let bundle = ModelBundle::new(model, &encoder);
///
/// let mut catalog = Catalog::new();
/// catalog.register(Table::new(
///     TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
///     vec![Column::non_null(ColumnData::Int((0..100).collect()))],
/// ));
/// let engine = Engine::new(catalog);
/// let plan = engine.plan_candidates("SELECT COUNT(*) FROM t").unwrap().remove(0);
/// let res = ResourceConfig::default_for(&ClusterConfig::default());
///
/// let cfg = ShardConfig {
///     serving: ServingConfig { deadline: Duration::from_secs(10), ..Default::default() },
///     ..Default::default()
/// };
/// let service = ShardedServing::new(
///     bundle,
///     Arc::new(|plan: &sparksim::PhysicalPlan, _: &ResourceConfig| 1.0 + plan.len() as f64),
///     cfg,
/// );
///
/// // Concurrent tenants share the service through &self.
/// let pred = service.predict("tenant-a", &plan, &res);
/// assert_eq!(pred.source, PredictionSource::Model);
/// assert!(pred.seconds.is_finite());
/// assert_eq!(service.slo_stats().total, 1);
///
/// // Shutdown is idempotent; later predicts shed to the fallback.
/// service.shutdown();
/// assert!(service.predict("tenant-a", &plan, &res).source != PredictionSource::Model);
/// ```
pub struct ShardedServing {
    /// What a healthy service prices with, or why this one has no deep
    /// model.
    model: Result<Healthy, FallbackReason>,
    fallback: Arc<dyn FallbackModel + Send + Sync>,
    cfg: ShardConfig,
    tenants: TenantTable,
    stats: ServiceStats,
    cache: PlanCache,
    /// Set by [`Self::shutdown`]: from then on every call sheds `Busy`.
    closed: AtomicBool,
    /// Set when pricing panicked: from then on every call sheds
    /// `WorkerLost` and the model is not touched again.
    lost: AtomicBool,
}

/// What a healthy service prices with: the encoder, the operator-row
/// cache every miss encodes through, and the frozen model.
struct Healthy {
    encoder: PlanEncoder,
    ops: OpCache,
    model: FrozenModel,
}

/// What a response slot holds until it is answered. Every slot is
/// written — oversized plans at admission, admitted plans in
/// [`ShardedServing::settle_admitted`] — so this value never reaches a
/// caller.
const UNANSWERED: ServingPrediction = ServingPrediction {
    seconds: f64::NAN,
    source: PredictionSource::Fallback(FallbackReason::WorkerLost),
};

impl ShardedServing {
    /// Serves a loaded bundle. The model is frozen once
    /// ([`FrozenModel::freeze`]) and every calling thread prices with
    /// that one copy of the weights. Spawns nothing.
    pub fn new(
        bundle: ModelBundle,
        fallback: Arc<dyn FallbackModel + Send + Sync>,
        cfg: ShardConfig,
    ) -> Self {
        let encoder = bundle.encoder();
        let healthy = Healthy {
            ops: encoder.op_cache(),
            encoder,
            model: FrozenModel::freeze(bundle.model),
        };
        Self::assemble(Ok(healthy), fallback, cfg)
    }

    /// Loads a checkpoint and serves it; a bundle that fails
    /// [`ModelBundle::load`] validation yields a permanently degraded
    /// service (every predict answered by the fallback) instead of an
    /// error or panic.
    pub fn from_checkpoint(
        path: &Path,
        fallback: Arc<dyn FallbackModel + Send + Sync>,
        cfg: ShardConfig,
    ) -> Self {
        match ModelBundle::load(path) {
            Ok(bundle) => Self::new(bundle, fallback, cfg),
            Err(_) => Self::degraded(fallback, cfg, FallbackReason::Checkpoint),
        }
    }

    /// A service with no deep model at all — every predict is answered
    /// by the fallback with the given sticky reason.
    pub fn degraded(
        fallback: Arc<dyn FallbackModel + Send + Sync>,
        cfg: ShardConfig,
        reason: FallbackReason,
    ) -> Self {
        Self::assemble(Err(reason), fallback, cfg)
    }

    fn assemble(
        model: Result<Healthy, FallbackReason>,
        fallback: Arc<dyn FallbackModel + Send + Sync>,
        cfg: ShardConfig,
    ) -> Self {
        Self {
            model,
            fallback,
            tenants: TenantTable::new(cfg.tenant_inflight),
            cfg,
            stats: ServiceStats::new(),
            cache: PlanCache::new(PLAN_CACHE_BYTES),
            closed: AtomicBool::new(false),
            lost: AtomicBool::new(false),
        }
    }

    /// True when the service was built without a deep model.
    pub fn is_degraded(&self) -> bool {
        self.model.is_err()
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Rewrites [`ServingConfig::deadline`], the budget every later
    /// call is judged against (the [`ServingModel`](super::ServingModel)
    /// façade's `set_deadline`).
    pub(super) fn set_deadline(&mut self, deadline: Duration) {
        self.cfg.serving.deadline = deadline;
    }

    /// The frozen model handle, when the service is healthy.
    pub fn model(&self) -> Option<&FrozenModel> {
        self.model.as_ref().ok().map(|healthy| &healthy.model)
    }

    /// Scores one plan for `tenant`, on the calling thread: the deep
    /// model's answer if the call took less than
    /// [`ServingConfig::deadline`], the analytical fallback's otherwise
    /// — never a panic, never a wait.
    /// Increments `serving.predict` plus either `serving.predict.model`
    /// or the per-reason `serving.fallback.*` counter.
    ///
    /// ```
    /// use raal::serving::shard::{ShardConfig, ShardedServing};
    /// use raal::serving::{FallbackReason, PredictionSource};
    /// use sparksim::resource::{ClusterConfig, ResourceConfig};
    /// # use sparksim::catalog::Catalog;
    /// # use sparksim::engine::Engine;
    /// # use sparksim::schema::{ColumnDef, TableSchema};
    /// # use sparksim::storage::{Column, ColumnData, Table};
    /// # use sparksim::types::DataType;
    /// # let mut catalog = Catalog::new();
    /// # catalog.register(Table::new(
    /// #     TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
    /// #     vec![Column::non_null(ColumnData::Int((0..100).collect()))],
    /// # ));
    /// # let engine = Engine::new(catalog);
    /// # let plan = engine.plan_candidates("SELECT COUNT(*) FROM t").unwrap().remove(0);
    /// let service = ShardedServing::degraded(
    ///     std::sync::Arc::new(|_: &sparksim::PhysicalPlan, _: &ResourceConfig| 7.0),
    ///     ShardConfig::default(),
    ///     FallbackReason::Checkpoint,
    /// );
    /// let res = ResourceConfig::default_for(&ClusterConfig::default());
    /// let pred = service.predict("ad-hoc", &plan, &res);
    /// assert_eq!(pred.seconds, 7.0);
    /// assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Checkpoint));
    /// ```
    pub fn predict(
        &self,
        tenant: &str,
        plan: &PhysicalPlan,
        res: &ResourceConfig,
    ) -> ServingPrediction {
        let mut out = [UNANSWERED];
        self.serve(tenant, &[plan], res, &mut out);
        let [prediction] = out;
        prediction
    }

    /// Scores K candidate plans for `tenant` under one resource
    /// configuration, one after the other on the calling thread.
    /// Oversized and malformed plans fall back individually; a shed,
    /// over-deadline or failed call falls back for every admitted plan.
    pub fn predict_many(
        &self,
        tenant: &str,
        plans: &[&PhysicalPlan],
        res: &ResourceConfig,
    ) -> Vec<ServingPrediction> {
        // HOT-ALLOC: one response vector per request — the serving API
        // hands owned predictions back to the caller.
        let mut out = vec![UNANSWERED; plans.len()];
        self.serve(tenant, plans, res, &mut out);
        out
    }

    /// Answers `plans` into `out` (one slot per plan), timed, judged
    /// against the deadline and counted.
    fn serve(
        &self,
        tenant: &str,
        plans: &[&PhysicalPlan],
        res: &ResourceConfig,
        out: &mut [ServingPrediction],
    ) {
        debug_assert_eq!(plans.len(), out.len());
        let t0 = telemetry::clock_us();
        self.answer(tenant, plans, res, out);
        let took_us = telemetry::clock_us().saturating_sub(t0);
        telemetry::observe("serving.predict_us", took_us);
        if Duration::from_micros(took_us) >= self.cfg.serving.deadline {
            for (plan, slot) in plans.iter().zip(out.iter_mut()) {
                if slot.source == PredictionSource::Model {
                    *slot = self.fall_back(plan, res, FallbackReason::Deadline);
                }
            }
        }
        self.stats.record(out);
        if telemetry::enabled() && !out.is_empty() {
            self.publish_slo();
        }
    }

    /// Lifetime serving-quality counters for this service, aggregated
    /// across every client thread.
    pub fn slo_stats(&self) -> SloStats {
        // ORDERING: monotone statistics counters, read for reporting.
        SloStats {
            total: self.stats.total.load(Ordering::Relaxed),
            model: self.stats.model.load(Ordering::Relaxed),
            // PANIC-FREE: from_fn indexes 0..6 into the length-6 array.
            // ORDERING: same monotone statistics counters.
            by_reason: std::array::from_fn(|i| self.stats.by_reason[i].load(Ordering::Relaxed)),
            slo_target: self.cfg.serving.slo_target,
        }
    }

    /// A consistent snapshot of the process-wide metrics registry.
    /// Empty when telemetry is disabled; [`Self::slo_stats`] is the
    /// always-on view.
    pub fn metrics_snapshot(&self) -> telemetry::MetricsSnapshot {
        telemetry::metrics_snapshot()
    }

    /// Stops the service: every later call sheds to the fallback
    /// (`Busy`); calls already inside finish as they would have. There
    /// is nothing to drain or join. Idempotent.
    ///
    /// ```
    /// use raal::serving::shard::{ShardConfig, ShardedServing};
    /// use raal::serving::FallbackReason;
    /// use sparksim::resource::ResourceConfig;
    /// let service = ShardedServing::degraded(
    ///     std::sync::Arc::new(|_: &sparksim::PhysicalPlan, _: &ResourceConfig| 1.0),
    ///     ShardConfig::default(),
    ///     FallbackReason::Checkpoint,
    /// );
    /// service.shutdown();
    /// service.shutdown(); // idempotent
    /// ```
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Per-plan admission: oversized plans are answered analytically.
    fn admits(&self, plan: &PhysicalPlan) -> bool {
        plan.len() <= self.cfg.serving.max_plan_nodes
    }

    fn answer(
        &self,
        tenant: &str,
        plans: &[&PhysicalPlan],
        res: &ResourceConfig,
        out: &mut [ServingPrediction],
    ) {
        let _span = telemetry::span("serving.predict");
        telemetry::count("serving.predict", plans.len() as u64);
        if plans.is_empty() {
            return;
        }
        let entry = self.tenants.entry(tenant);
        telemetry::count(&entry.predict_counter, plans.len() as u64);
        let healthy = match &self.model {
            Ok(healthy) => healthy,
            Err(reason) => {
                for (plan, slot) in plans.iter().zip(out.iter_mut()) {
                    *slot = self.fall_back(plan, res, *reason);
                }
                return;
            }
        };
        let mut admitted = 0usize;
        for (plan, slot) in plans.iter().zip(out.iter_mut()) {
            if self.admits(plan) {
                admitted += 1;
            } else {
                *slot = self.fall_back(plan, res, FallbackReason::Admission);
            }
        }
        if admitted == 0 {
            return;
        }
        // Fair share: a tenant at its in-flight cap is shed before any
        // lookup or encoding happens on its behalf. The slot is held
        // for exactly the span of the pricing below, which contains its
        // own panics, so it is given back whichever way the call ends.
        if !entry.try_acquire(self.tenants.limit) {
            telemetry::count(&entry.shed_counter, admitted as u64);
            return self.shed(plans, res, out, FallbackReason::TenantQuota);
        }
        self.price_admitted(healthy, plans, res, out);
        entry.release();
    }

    /// Prices every admitted plan on this thread, through its cached
    /// context or a fresh one. A panic on the way is contained here: it
    /// answers the whole call `WorkerLost` and takes the model out of
    /// service for good, so a fault is met once, not once per call.
    ///
    /// Every miss encodes through the service's [`OpCache`], which
    /// supplies the rows of the operators it has met; the call counts
    /// the nodes its misses encoded and those the cache supplied
    /// (`serving.encode.nodes` / `.nodes_reused`).
    fn price_admitted(
        &self,
        healthy: &Healthy,
        plans: &[&PhysicalPlan],
        res: &ResourceConfig,
        out: &mut [ServingPrediction],
    ) {
        if self.closed.load(Ordering::SeqCst) {
            return self.shed(plans, res, out, FallbackReason::Busy);
        }
        if self.lost.load(Ordering::SeqCst) {
            return self.shed(plans, res, out, FallbackReason::WorkerLost);
        }
        let model = &healthy.model;
        let features = res.feature_array(&self.cfg.serving.cluster);
        // Nodes the call's misses encoded, and those the cache supplied.
        let mut encoded = [0u64; 2];
        // PANIC-FREE: the one place a pricing panic is allowed to
        // surface — contained, never unwound into the caller.
        let priced = catch_unwind(AssertUnwindSafe(|| {
            self.settle_admitted(plans, out, |plan| {
                let fingerprint = plan.structural_hash();
                match self.cache.lookup(fingerprint, plan) {
                    Lookup::Hit(cached) => ServingPrediction {
                        seconds: model.predict_with_context(cached.context(), &features),
                        source: PredictionSource::Model,
                    },
                    Lookup::Miss { seen_before } => {
                        let admit_as = seen_before.then_some(fingerprint);
                        self.price_miss(healthy, plan, &mut encoded, res, &features, admit_as)
                    }
                }
            });
        }));
        if priced.is_err() {
            self.lost.store(true, Ordering::SeqCst);
            self.shed(plans, res, out, FallbackReason::WorkerLost);
        }
        let [nodes, reused] = encoded;
        if nodes > 0 {
            telemetry::count("serving.encode.nodes", nodes);
            telemetry::count("serving.encode.nodes_reused", reused);
        }
    }

    /// Prices a plan the cache does not hold: encode, build the
    /// context, run the head — the call a hit makes. On the plan's
    /// second recent sighting (`admit_as`, its fingerprint) the context
    /// is copied into the cache, exact-sized, under a clone of the plan;
    /// built contexts go back to the arena. A plan the encoder rejects
    /// as malformed is answered analytically, like an oversized one.
    ///
    /// Kept out of line: inlined into the `catch_unwind` closure it
    /// moved the hit path's code and cost `resweep_hot` 2% of its p50.
    #[inline(never)]
    fn price_miss(
        &self,
        Healthy { encoder, ops, model }: &Healthy,
        plan: &PhysicalPlan,
        [nodes, reused]: &mut [u64; 2],
        res: &ResourceConfig,
        features: &ResourceFeatures,
        admit_as: Option<u64>,
    ) -> ServingPrediction {
        let encoded = {
            let _encode_span = telemetry::kernel_span("serving.encode");
            encoder.try_encode_in(plan, Some(ops))
        };
        let Ok((encoded, supplied)) = encoded else {
            return self.fall_back(plan, res, FallbackReason::Admission);
        };
        *nodes += plan.len() as u64;
        *reused += supplied as u64;
        let context = model.plan_context(&encoded);
        let seconds = model.predict_with_context(&context, features);
        if let Some(fingerprint) = admit_as {
            // HOT-ALLOC: the cache key and an exact-sized copy of the
            // context, once per admitted plan — a stream of distinct
            // plans never pays for either.
            self.cache.insert(fingerprint, plan.clone(), context.clone());
        }
        model.recycle_context(context);
        ServingPrediction { seconds, source: PredictionSource::Model }
    }

    /// Writes `answer(plan)` into the slot of every admitted plan, in
    /// plan order.
    fn settle_admitted<'p>(
        &self,
        plans: &[&'p PhysicalPlan],
        out: &mut [ServingPrediction],
        mut answer: impl FnMut(&'p PhysicalPlan) -> ServingPrediction,
    ) {
        for (plan, slot) in plans.iter().zip(out.iter_mut()) {
            if self.admits(plan) {
                *slot = answer(plan);
            }
        }
    }

    /// Answers every admitted plan from the fallback, for `reason`.
    fn shed(
        &self,
        plans: &[&PhysicalPlan],
        res: &ResourceConfig,
        out: &mut [ServingPrediction],
        reason: FallbackReason,
    ) {
        self.settle_admitted(plans, out, |plan| self.fall_back(plan, res, reason));
    }

    fn fall_back(
        &self,
        plan: &PhysicalPlan,
        res: &ResourceConfig,
        reason: FallbackReason,
    ) -> ServingPrediction {
        ServingPrediction {
            seconds: self.fallback.estimate_seconds(plan, res),
            source: PredictionSource::Fallback(reason),
        }
    }

    /// Mirrors [`SloStats`] into the registered `serving.slo.*` gauges.
    fn publish_slo(&self) {
        let slo = self.slo_stats();
        telemetry::gauge("serving.slo.hit_rate", slo.hit_rate());
        telemetry::gauge("serving.slo.fallback_rate", slo.fallback_rate());
        for reason in FallbackReason::ALL {
            telemetry::gauge(reason.burn_gauge(), slo.error_budget_burn(reason));
        }
    }
}

#[cfg(all(test, not(raal_model_check)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// The wait's bound must hold against wakes that bring no outcome: a
    /// second thread
    /// keeps notifying the slot's condvar without ever completing it,
    /// and the wait still gives up on time instead of re-arming its
    /// deadline on every wake.
    #[test]
    fn wait_deadline_is_absolute_under_wakes_without_an_outcome() {
        let deadline = Duration::from_millis(20);
        let slot: ReplySlot<u32> = ReplySlot::new();
        let stop = AtomicBool::new(false);
        // The hammer stops by itself after 10 deadlines, so that a wait
        // which does re-arm fails the assertion below rather than hangs.
        let give_up_ns = telemetry::clock_ns() + 10 * deadline.as_nanos() as u64;
        let (got, waited) = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) && telemetry::clock_ns() < give_up_ns {
                    slot.cv.notify_all();
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let t0 = telemetry::clock_ns();
            let got = slot.wait_deadline(deadline);
            let waited = Duration::from_nanos(telemetry::clock_ns() - t0);
            stop.store(true, Ordering::SeqCst);
            (got, waited)
        });
        assert_eq!(got, None);
        assert!(waited >= deadline, "gave up early: {waited:?}");
        assert!(waited < 5 * deadline, "wakes re-armed the deadline: waited {waited:?}");
        assert!(!slot.complete(1), "an expired wait leaves the slot abandoned");
    }
}
