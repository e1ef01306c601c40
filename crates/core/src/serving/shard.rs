//! The serving service: N frozen-model replicas behind striped request
//! queues, with per-tenant fair-share admission and one thread per
//! shard.
//!
//! A [`ShardedServing`] service owns [`ShardConfig::shards`] *shards*,
//! each a [`BatchQueue`] plus one dispatcher thread holding a clone of
//! one Arc-shared [`FrozenModel`] (a reference-count bump — all shards
//! price with the same weights). Client threads call
//! [`ShardedServing::predict`] concurrently through `&self`; each call
//! is striped round-robin onto a shard queue, and the shard's
//! dispatcher prices and settles the queued jobs one at a time, plan by
//! plan, so no job's answer waits for a later job's arithmetic.
//!
//! Before it encodes anything, a client looks each admitted plan up in
//! the service-wide plan-context cache (the `plan_cache` module; keyed
//! by [`PhysicalPlan::structural_hash`], a hit confirmed by `==`). A
//! plan that hits travels as its cached
//! [`PlanContext`](crate::model::PlanContext) and skips the encoder and
//! the plan layer; a call whose admitted plans **all** hit is not
//! queued at all — the calling thread runs the head itself. The
//! route is chosen from that observation alone; there is no setting
//! for it. A plan is admitted to the cache on its second recent
//! sighting, so a stream of distinct plans pays one hash per plan and
//! retains nothing.
//!
//! Every guard rail answers from the analytical fallback and counts
//! the trip: a corrupt checkpoint degrades the whole service
//! (`serving.fallback.checkpoint`), oversized plans fall back at
//! admission (`serving.fallback.admission`), a full or closed shard
//! queue sheds (`serving.fallback.busy`), and a pricing panic is caught
//! on the dispatcher, which settles that job and every later one on
//! its shard analytically (`serving.fallback.worker_lost`). The
//! **client owns the deadline**: its [`ReplySlot::wait_deadline`] is
//! the only timeout in the path (`serving.fallback.deadline`); the
//! dispatcher never times out. A call priced in place never waits, so
//! there a deadline only matters when it is zero — which no answer
//! meets, cached or not — and a pricing panic is caught on the calling
//! thread and answered `worker_lost` without marking any shard.
//! Tenancy adds two things:
//!
//! * **fair-share admission** — a tenant with
//!   [`ShardConfig::tenant_inflight`] requests already in flight is
//!   shed analytically (`serving.fallback.tenant_quota`), so one noisy
//!   tenant cannot queue out the rest;
//! * **per-tenant telemetry** — every call counts
//!   `serving.tenant.predict.<tenant>`, every shed request counts
//!   `serving.tenant.shed.<tenant>`.
//!
//! The building blocks ([`BatchQueue`], [`ReplySlot`]) are public on
//! purpose: they are built on [`raal_sync`] primitives, so the
//! model-check suite (`crates/core/tests/model_check.rs`) explores the
//! *real* queue and settle protocol — not a test double — across all bounded
//! schedules, proving no request is lost, none is answered twice, and
//! shutdown completes with requests still queued.

#![deny(missing_docs)]

use super::plan_cache::{CachedPlan, Lookup, PlanCache};
use super::{
    FallbackModel, FallbackReason, PredictionSource, ServingConfig, ServingPrediction, SloStats,
};
use crate::model::FrozenModel;
use crate::persist::ModelBundle;
use encoding::plan_encoder::EncodedPlan;
use encoding::PlanEncoder;
use raal_sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use raal_sync::sync::{Condvar, Mutex, MutexGuard};
use raal_sync::thread;
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

/// Sharded-service settings. The per-request guard rails (deadline,
/// admission size, SLO target) live in the embedded [`ServingConfig`];
/// the fields here shape the fleet around them.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (a queue and one dispatcher thread each). Each
    /// shard prices one job at a time, so this is the service's
    /// inference parallelism. Clamped to at least 1.
    pub shards: usize,
    /// Bound on queued requests per shard; a full queue sheds new
    /// arrivals to the fallback (`serving.fallback.busy`) instead of
    /// growing without limit.
    pub queue_capacity: usize,
    /// Fair-share cap: the most calls one tenant may have inside the
    /// service at once, across all shards, before new ones are shed
    /// (`serving.fallback.tenant_quota`).
    pub tenant_inflight: u32,
    /// The per-request guard rails.
    pub serving: ServingConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            tenant_inflight: 64,
            serving: ServingConfig::default(),
        }
    }
}

/// A single-use completion cell: the serving client parks on it while
/// the shard dispatcher works, and exactly one of them settles it.
///
/// The three states make the settle race explicit: the dispatcher's
/// [`complete`](Self::complete) moves `Waiting → Done` and returns
/// `true`; a client whose [`wait_deadline`](Self::wait_deadline)
/// expires moves `Waiting → Abandoned`, after which `complete` returns
/// `false` — so both sides always agree on who owned the outcome, and
/// the client returns (and counts) exactly one answer.
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
    /// This is the only timeout on a serving call, so the bound is
    /// absolute: the expiry is fixed once on entry, a wake without an
    /// outcome waits only for what is left of it, and a zero deadline
    /// never waits at all.
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

/// A bounded multi-producer queue drained in batches by one consumer —
/// the mutex-striped buffer between serving clients and a shard's
/// dispatcher.
///
/// [`push`](Self::push) never blocks (a full or closed queue rejects
/// the item back to the caller, which sheds it to the fallback);
/// [`drain`](Self::drain) blocks until work or close. After
/// [`close`](Self::close), pushes fail but drains keep returning the
/// backlog until it is empty, which is how shutdown guarantees no
/// queued request is lost.
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

/// The answer a dispatcher settles a [`ReplySlot`] with: one source for
/// the whole job, and one estimate per admitted plan.
struct JobOutcome {
    source: PredictionSource,
    seconds: Vec<f64>,
}

/// Bytes of plan keys and contexts the plan-context cache may retain —
/// about 4% of the benchmark's resident set, room for roughly six
/// hundred plans of the size it serves.
const PLAN_CACHE_BYTES: usize = 8 << 20;

/// The resource feature vector a job is priced under.
type ResourceFeatures = [f32; ResourceConfig::NUM_FEATURES];

/// One admitted plan of a serving call, after the client's cache
/// lookup.
enum JobPlan {
    /// Resident in the plan-context cache: nothing left to build.
    Cached(Arc<CachedPlan>),
    /// Not resident: encoded on the client, its context is built by
    /// the dispatcher. `admit` is set on the plan's second recent
    /// sighting and carries the cache key (fingerprint and an owned
    /// copy of the plan); the dispatcher then keeps the context it
    /// builds instead of recycling it.
    Encoded {
        plan: EncodedPlan,
        admit: Option<(u64, PhysicalPlan)>,
    },
}

/// One queued serving call: the admitted plans of a `predict_many`,
/// looked up or encoded — and priced analytically — on the client
/// thread (the fallback must be cheap and total, and pricing it eagerly
/// means the dispatcher never needs the borrowed `PhysicalPlan`s). A
/// call whose plans were all resident is never queued: its client
/// prices it in place.
struct ShardJob {
    plans: Vec<JobPlan>,
    resources: ResourceFeatures,
    fallback: Vec<f64>,
    reply: Arc<ReplySlot<JobOutcome>>,
}

/// Jobs a dispatcher takes from its queue per lock acquisition.
const DRAIN: usize = 32;

/// A shard dispatcher: takes what is queued, then prices
/// ([`price_job`]) and settles one job at a time, so a job's answer
/// never waits for the job behind it. It never times out — the waiting
/// client owns the deadline, and a job whose client gave up simply
/// fails to settle — and it counts nothing: the client counts the
/// answer it returns.
///
/// A panic while pricing is caught here: that job is settled
/// `WorkerLost` from its precomputed analytical estimates and the shard
/// stays lost, so every later job on it — those already taken from the
/// queue included — falls back the same way, the model untouched.
///
/// Exits when the queue is closed and fully drained.
fn dispatch_loop(queue: Arc<BatchQueue<ShardJob>>, model: FrozenModel, cache: Arc<PlanCache>) {
    // HOT-ALLOC: one scratch vector per dispatcher lifetime.
    let mut taken: Vec<ShardJob> = Vec::with_capacity(DRAIN);
    let mut lost = false;
    while queue.drain(DRAIN, &mut taken) {
        let _span = telemetry::span("serving.shard.dispatch");
        for ShardJob { plans, resources, fallback, reply } in taken.drain(..) {
            // PANIC-FREE: the one place a pricing panic is allowed to
            // surface — it is contained to this job and turned into the
            // sticky WorkerLost state, never unwound into a client.
            let priced = if lost {
                None
            } else {
                catch_unwind(AssertUnwindSafe(|| price_job(&model, &cache, plans, &resources))).ok()
            };
            lost = priced.is_none();
            reply.complete(match priced {
                Some(seconds) => JobOutcome { source: PredictionSource::Model, seconds },
                None => JobOutcome {
                    source: PredictionSource::Fallback(FallbackReason::WorkerLost),
                    seconds: fallback,
                },
            });
        }
    }
}

/// Prices one job plan by plan: a cached plan through its resident
/// context, an encoded one through a context built here — the same
/// [`FrozenModel::predict_with_context`] call either way, and the one
/// the in-place route makes. The context of a plan marked for admission
/// is copied into the cache (exact-sized; before the job is settled, so
/// its client's next call finds it); built contexts go back to the arena.
fn price_job(
    model: &FrozenModel,
    cache: &PlanCache,
    plans: Vec<JobPlan>,
    resources: &ResourceFeatures,
) -> Vec<f64> {
    // HOT-ALLOC: the per-job response vector handed to the waiting
    // client.
    let mut seconds = Vec::with_capacity(plans.len());
    for plan in plans {
        seconds.push(match plan {
            JobPlan::Cached(cached) => model.predict_with_context(cached.context(), resources),
            JobPlan::Encoded { plan, admit } => {
                let context = model.plan_context(&plan);
                let priced = model.predict_with_context(&context, resources);
                if let Some((fingerprint, key)) = admit {
                    // HOT-ALLOC: once per admitted plan, not per request.
                    cache.insert(fingerprint, key, context.clone());
                }
                model.recycle_context(context);
                priced
            }
        });
    }
    seconds
}

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

/// The sharded, multi-tenant serving service. See the
/// [module docs](self) for the architecture and `docs/SERVING.md` for
/// the operator's guide.
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
///     shards: 2,
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
/// // Shutdown drains the queues, joins every dispatcher, and is
/// // idempotent; later predicts shed to the fallback.
/// service.shutdown();
/// assert!(service.predict("tenant-a", &plan, &res).source != PredictionSource::Model);
/// ```
pub struct ShardedServing {
    queues: Vec<Arc<BatchQueue<ShardJob>>>,
    dispatchers: Mutex<Vec<thread::JoinHandle<()>>>,
    encoder: Option<PlanEncoder>,
    model: Option<FrozenModel>,
    fallback: Arc<dyn FallbackModel + Send + Sync>,
    cfg: ShardConfig,
    tenants: TenantTable,
    next_shard: AtomicUsize,
    degraded: Option<FallbackReason>,
    stats: ServiceStats,
    cache: Arc<PlanCache>,
    /// Set by [`Self::shutdown`]: from then on no call is priced in
    /// place, so a shut-down service sheds cached plans like any other.
    closed: AtomicBool,
}

/// What a response slot holds until its route answers it. Every route
/// writes every slot — oversized plans at admission, admitted plans in
/// [`ShardedServing::settle_admitted`] — so this value never reaches a
/// caller.
const UNANSWERED: ServingPrediction = ServingPrediction {
    seconds: f64::NAN,
    source: PredictionSource::Fallback(FallbackReason::WorkerLost),
};

impl ShardedServing {
    /// Serves a loaded bundle across [`ShardConfig::shards`] shards.
    /// The model is frozen once ([`FrozenModel::freeze`]);
    /// every shard's dispatcher holds a reference-counted clone of the
    /// same weights. Spawns one thread per shard immediately.
    pub fn new(
        bundle: ModelBundle,
        fallback: Arc<dyn FallbackModel + Send + Sync>,
        cfg: ShardConfig,
    ) -> Self {
        let encoder = bundle.encoder();
        let frozen = FrozenModel::freeze(bundle.model);
        let shards = cfg.shards.max(1);
        let cache = Arc::new(PlanCache::new(PLAN_CACHE_BYTES));
        let mut queues = Vec::with_capacity(shards);
        let mut dispatchers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let queue = Arc::new(BatchQueue::bounded(cfg.queue_capacity));
            let (jobs, model, contexts) = (queue.clone(), frozen.clone(), cache.clone());
            dispatchers.push(thread::spawn(move || dispatch_loop(jobs, model, contexts)));
            queues.push(queue);
        }
        let tenants = TenantTable::new(cfg.tenant_inflight);
        Self {
            queues,
            dispatchers: Mutex::new(dispatchers),
            encoder: Some(encoder),
            model: Some(frozen),
            fallback,
            cfg,
            tenants,
            next_shard: AtomicUsize::new(0),
            degraded: None,
            stats: ServiceStats::new(),
            cache,
            closed: AtomicBool::new(false),
        }
    }

    /// Loads a checkpoint and serves it sharded; a bundle that fails
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
    /// by the fallback with the given sticky reason. No threads are
    /// spawned.
    pub fn degraded(
        fallback: Arc<dyn FallbackModel + Send + Sync>,
        cfg: ShardConfig,
        reason: FallbackReason,
    ) -> Self {
        let tenants = TenantTable::new(cfg.tenant_inflight);
        Self {
            queues: Vec::new(),
            dispatchers: Mutex::new(Vec::new()),
            encoder: None,
            model: None,
            fallback,
            cfg,
            tenants,
            next_shard: AtomicUsize::new(0),
            degraded: Some(reason),
            stats: ServiceStats::new(),
            cache: Arc::new(PlanCache::new(PLAN_CACHE_BYTES)),
            closed: AtomicBool::new(false),
        }
    }

    /// True when the deep model is out of the serving path for good.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Rewrites [`ServingConfig::deadline`], the budget every later
    /// client-side wait reads (the [`ServingModel`](super::ServingModel)
    /// façade's `set_deadline`).
    pub(super) fn set_deadline(&mut self, deadline: Duration) {
        self.cfg.serving.deadline = deadline;
    }

    /// Number of live shards (0 for a degraded service).
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The frozen model handle, when the service is healthy.
    pub fn model(&self) -> Option<&FrozenModel> {
        self.model.as_ref()
    }

    /// Scores one plan for `tenant`: the deep model's answer if it
    /// arrives within [`ServingConfig::deadline`], the analytical
    /// fallback's otherwise — never a panic, never an unbounded wait.
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
    /// configuration. The admitted plans travel as one job, priced and
    /// settled together by one shard's dispatcher — unless every one of
    /// them is in the plan-context cache, in which case the calling
    /// thread prices them itself. Oversized plans fall back
    /// individually at admission; a shed, timed-out or failed job falls
    /// back for every admitted plan.
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

    /// Answers `plans` into `out` (one slot per plan), timed and
    /// counted.
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
        telemetry::observe("serving.predict_us", telemetry::clock_us().saturating_sub(t0));
        self.stats.record(out);
        if !out.is_empty() {
            self.publish_slo();
        }
    }

    /// Lifetime serving-quality counters for this service, aggregated
    /// across every shard and client thread.
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

    /// Drains and stops the service: closes every shard queue (later
    /// pushes shed to the fallback), lets each dispatcher finish the
    /// backlog, then joins the dispatcher threads. Idempotent; also run
    /// by `Drop`.
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
        for queue in &self.queues {
            queue.close();
        }
        for handle in self.take_dispatchers() {
            let _ = handle.join();
        }
    }

    /// Takes the dispatcher handles exactly once (empty after the first
    /// call), so concurrent shutdowns join disjoint sets.
    fn take_dispatchers(&self) -> Vec<thread::JoinHandle<()>> {
        std::mem::take(&mut *lock(&self.dispatchers))
    }

    /// Round-robin stripe cursor; only called on a healthy service,
    /// where at least one queue exists.
    fn pick_shard(&self) -> usize {
        // ORDERING: the stripe cursor is load-balancing state only; no
        // data is published through it.
        let n = self.next_shard.fetch_add(1, Ordering::Relaxed);
        // PANIC-FREE: queues is non-empty on every healthy-service
        // path (ShardConfig::shards is clamped to >= 1), so the
        // modulus is never zero.
        n % self.queues.len()
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
        if let Some(reason) = self.degraded {
            for (plan, slot) in plans.iter().zip(out.iter_mut()) {
                *slot = self.fall_back(plan, res, reason);
            }
            return;
        }
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
        // lookup, encoding or queue work happens on its behalf. The
        // slot is held for exactly the span of this call — given back
        // here, on the client thread, whichever way the call was
        // answered.
        if !entry.try_acquire(self.tenants.limit) {
            telemetry::count(&entry.shed_counter, admitted as u64);
            return self.shed(plans, res, out, FallbackReason::TenantQuota);
        }
        self.price_admitted(plans, res, out, admitted);
        entry.release();
    }

    /// Looks every admitted plan up in the plan-context cache, encoding
    /// the ones that miss. If all of them hit, prices them in place;
    /// otherwise queues them on a shard as one job and waits out the
    /// deadline for the dispatcher's answer.
    fn price_admitted(
        &self,
        plans: &[&PhysicalPlan],
        res: &ResourceConfig,
        out: &mut [ServingPrediction],
        admitted: usize,
    ) {
        let (Some(encoder), Some(model)) = (&self.encoder, &self.model) else {
            return self.shed(plans, res, out, FallbackReason::WorkerLost);
        };
        let features = res.feature_array(&self.cfg.serving.cluster);
        // HOT-ALLOC: the per-request job payload, one slot per admitted
        // plan (owned by the shard until settle when the job is
        // queued). A plan is cloned only on its second recent sighting,
        // and encoding builds one owned EncodedPlan per missing plan.
        let mut job_plans: Vec<JobPlan> = Vec::with_capacity(admitted);
        let mut hits = 0usize;
        for plan in plans.iter().filter(|p| self.admits(p)) {
            let fingerprint = plan.structural_hash();
            job_plans.push(match self.cache.lookup(fingerprint, plan) {
                Lookup::Hit(cached) => {
                    hits += 1;
                    JobPlan::Cached(cached)
                }
                Lookup::Miss { seen_before } => JobPlan::Encoded {
                    plan: encoder.encode(plan),
                    // HOT-ALLOC: the cache key, cloned on a plan's
                    // second recent sighting only — a stream of
                    // distinct plans never pays for it.
                    admit: seen_before.then(|| (fingerprint, (*plan).clone())),
                },
            });
        }
        if hits == admitted && !self.closed.load(Ordering::SeqCst) {
            return self.price_in_place(model, &job_plans, &features, plans, res, out);
        }
        // The fallback is priced eagerly on the client thread: it must
        // be cheap and total, and this keeps borrowed plans off the
        // dispatcher entirely.
        // HOT-ALLOC: per-request job payload (owned by the shard until
        // settle).
        let fallback_secs: Vec<f64> = plans
            .iter()
            .filter(|p| self.admits(p))
            .map(|p| self.fallback.estimate_seconds(p, res))
            .collect();
        // HOT-ALLOC: one reply cell per request, shared with the shard.
        let reply = Arc::new(ReplySlot::new());
        // HOT-ALLOC: Arc::clone bumps a reference count; the job struct
        // itself rides inline in the queue's VecDeque slot.
        let job = ShardJob {
            plans: job_plans,
            resources: features,
            fallback: fallback_secs,
            reply: reply.clone(),
        };
        let shard = self.pick_shard();
        // PANIC-FREE: pick_shard returns an index < queues.len().
        // HOT-ALLOC: BatchQueue::push moves the job into a VecDeque
        // slot; ring growth is amortized and capped by queue_capacity.
        if self.queues[shard].push(job).is_err() {
            // Full or closed queue: shed immediately.
            return self.shed(plans, res, out, FallbackReason::Busy);
        }
        match reply.wait_deadline(self.cfg.serving.deadline) {
            Some(outcome) => {
                let mut seconds = outcome.seconds.iter();
                self.settle_admitted(plans, out, |plan| match seconds.next() {
                    Some(&seconds) => ServingPrediction { seconds, source: outcome.source },
                    // Defensive: a short outcome (never produced by a
                    // correct dispatcher) answers analytically.
                    None => self.fall_back(plan, res, FallbackReason::WorkerLost),
                });
            }
            // The deadline passed and we abandoned the slot: the
            // dispatcher's later complete() returns false and its
            // outcome is dropped.
            None => self.shed(plans, res, out, FallbackReason::Deadline),
        }
    }

    /// The full-hit route: every admitted plan's context is in hand, so
    /// the calling thread runs the head itself — no job, no reply slot,
    /// no queue. The guard rails mean what they mean on the queue
    /// route: a zero deadline is never met ([`ReplySlot::wait_deadline`]
    /// "never waits at all"), and a panic while pricing is contained
    /// and answered `WorkerLost`.
    fn price_in_place(
        &self,
        model: &FrozenModel,
        cached: &[JobPlan],
        features: &ResourceFeatures,
        plans: &[&PhysicalPlan],
        res: &ResourceConfig,
        out: &mut [ServingPrediction],
    ) {
        if self.cfg.serving.deadline.is_zero() {
            return self.shed(plans, res, out, FallbackReason::Deadline);
        }
        // PANIC-FREE: a pricing panic is contained here, as the
        // dispatcher contains its own, never unwound into the caller.
        let priced = catch_unwind(AssertUnwindSafe(|| {
            let mut cached = cached.iter();
            self.settle_admitted(plans, out, |plan| match cached.next() {
                Some(JobPlan::Cached(hit)) => ServingPrediction {
                    seconds: model.predict_with_context(hit.context(), features),
                    source: PredictionSource::Model,
                },
                // Defensive: this route is only taken when every
                // admitted plan hit.
                _ => self.fall_back(plan, res, FallbackReason::WorkerLost),
            });
        }));
        if priced.is_err() {
            self.shed(plans, res, out, FallbackReason::WorkerLost);
        }
    }

    /// Writes `answer(plan)` into the slot of every admitted plan, in
    /// plan order.
    fn settle_admitted(
        &self,
        plans: &[&PhysicalPlan],
        out: &mut [ServingPrediction],
        mut answer: impl FnMut(&PhysicalPlan) -> ServingPrediction,
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

impl Drop for ShardedServing {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(all(test, not(raal_model_check)))]
mod tests {
    use super::*;
    use crate::model::{CostModel, ModelConfig};
    use encoding::plan_encoder::PLAN_STAT_FEATURES;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When pricing panics, the jobs the dispatcher had already taken
    /// from its queue are settled `WorkerLost` like the one that
    /// tripped it — each from its own analytical estimates.
    #[test]
    fn a_pricing_panic_settles_the_jobs_already_taken() {
        const NODE_DIM: usize = 6;
        let model = FrozenModel::freeze(CostModel::new(ModelConfig::raal(NODE_DIM)));
        let queue = Arc::new(BatchQueue::bounded(2));
        let mut replies = Vec::new();
        for fallback in [1.0, 2.0] {
            // One feature wider than the model reads: the LSTM kernel's
            // input guard panics.
            let plan = EncodedPlan::from_rows(
                &[vec![0.0; NODE_DIM + 1]],
                &[vec![]],
                [0.0; PLAN_STAT_FEATURES],
            );
            let reply = Arc::new(ReplySlot::new());
            let job = ShardJob {
                plans: vec![JobPlan::Encoded { plan, admit: None }],
                resources: [0.5; ResourceConfig::NUM_FEATURES],
                fallback: vec![fallback],
                reply: reply.clone(),
            };
            assert!(queue.push(job).is_ok());
            replies.push((reply, fallback));
        }
        queue.close();
        dispatch_loop(queue, model, Arc::new(PlanCache::new(PLAN_CACHE_BYTES)));
        for (reply, fallback) in replies {
            let outcome = reply.wait_deadline(Duration::ZERO).expect("settled");
            assert_eq!(outcome.source, PredictionSource::Fallback(FallbackReason::WorkerLost));
            assert_eq!(outcome.seconds, [fallback]);
        }
    }

    /// The client-side wait is the only bound on a serving call, so it
    /// must hold against wakes that bring no outcome: a second thread
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
