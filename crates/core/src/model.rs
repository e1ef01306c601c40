//! The Resource-Aware Attentional LSTM cost model (RAAL, Sec. IV-D) and
//! its ablations.
//!
//! One [`CostModel`] covers the whole model family of the paper's
//! evaluation via [`ModelConfig`]:
//!
//! | paper name | plan layer | node attention | resource attention | structure embedding |
//! |------------|-----------|----------------|--------------------|---------------------|
//! | RAAL       | LSTM      | yes            | yes                | yes (encoder)       |
//! | NE-LSTM    | LSTM      | yes            | configurable       | **no** (encoder)    |
//! | NA-LSTM    | LSTM      | **no**         | configurable       | yes                 |
//! | RAAC       | **CNN**   | yes            | configurable       | yes                 |
//!
//! The structure-embedding ablation lives in the *encoder*
//! ([`encoding::EncoderConfig::structure`]); everything else is a model
//! flag. Targets are trained in normalised log-space
//! ([`normalize_seconds`]) with MSE loss, as in the paper.

use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
use nn::infer::{self, InferArena};
use nn::layers::{
    child_attention, dot_attention, dot_attention_into, Activation, Conv1d, Dense, LstmCell,
};
use nn::{Graph, ParamId, ParamStore, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which network models the node sequence (the plan feature layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanLayerKind {
    /// LSTM (RAAL and the LSTM ablations).
    Lstm,
    /// 1-D CNN (the RAAC ablation).
    Cnn,
}

/// Model architecture and ablation flags.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Per-node input feature width (from the encoder).
    pub node_dim: usize,
    /// Hidden width of the plan feature layer.
    pub hidden: usize,
    /// Attention latent dimension (the paper's K = 32).
    pub latent_k: usize,
    /// Plan feature layer kind.
    pub plan_layer: PlanLayerKind,
    /// Enable the node-aware attention layer.
    pub node_attention: bool,
    /// Enable the resource-aware attention layer (when disabled the model
    /// never sees the resource vector, as in Table VII's left columns).
    pub resource_attention: bool,
    /// Resource feature width.
    pub resource_dim: usize,
    /// Dense head width.
    pub head_hidden: usize,
    /// Initialisation seed.
    pub seed: u64,
}

impl ModelConfig {
    /// The full RAAL configuration.
    pub fn raal(node_dim: usize) -> Self {
        Self {
            node_dim,
            hidden: 64,
            latent_k: 32,
            plan_layer: PlanLayerKind::Lstm,
            node_attention: true,
            resource_attention: true,
            resource_dim: sparksim::ResourceConfig::NUM_FEATURES,
            head_hidden: 64,
            seed: 0xA11,
        }
    }

    /// NA-LSTM: RAAL without node-aware attention.
    pub fn na_lstm(node_dim: usize) -> Self {
        Self { node_attention: false, ..Self::raal(node_dim) }
    }

    /// RAAC: RAAL with a CNN plan feature layer.
    pub fn raac(node_dim: usize) -> Self {
        Self {
            plan_layer: PlanLayerKind::Cnn,
            ..Self::raal(node_dim)
        }
    }

    /// Disables the resource-aware attention layer (ablation).
    pub fn without_resources(mut self) -> Self {
        self.resource_attention = false;
        self
    }
}

/// Maximum seconds representable by the normalised log target.
pub const MAX_SECONDS: f64 = 7200.0;

/// Maps seconds to the `[0, 1]` log-space training target.
pub fn normalize_seconds(seconds: f64) -> f32 {
    ((1.0 + seconds.clamp(0.0, MAX_SECONDS)).ln() / (1.0 + MAX_SECONDS).ln()) as f32
}

/// Inverse of [`normalize_seconds`]. Outputs are clamped to the label
/// range `[0, MAX_SECONDS]`: an unclamped network extrapolation in log
/// space would denormalise to absurd times and single-handedly wreck
/// raw-space R².
pub fn denormalize_seconds(y: f32) -> f64 {
    ((y as f64).clamp(0.0, 1.0) * (1.0 + MAX_SECONDS).ln()).exp() - 1.0
}

/// A deep cost model instance (RAAL or an ablation).
#[derive(Clone, Serialize, Deserialize)]
pub struct CostModel {
    cfg: ModelConfig,
    store: ParamStore,
    lstm: Option<LstmCell>,
    cnn: Option<Conv1d>,
    /// Node-attention query/key projections (`hidden x K`).
    wq: Option<ParamId>,
    wk: Option<ParamId>,
    /// Resource-attention projections.
    wr: Option<ParamId>,
    wk_res: Option<ParamId>,
    head1: Dense,
    head2: Dense,
    out: Dense,
    /// Label standardisation (set by the trainer): the network regresses
    /// `(normalize_seconds(y) − mean) / std`, which keeps gradients
    /// well-scaled even though the log-targets span a narrow band.
    label_mean: f32,
    label_std: f32,
    /// Process-unique id binding [`PlanContext`]s to the model instance
    /// that produced them. Never serialised: a deserialised model gets a
    /// fresh identity, so contexts cannot be resurrected across a
    /// save/load round trip.
    #[serde(skip, default = "next_model_identity")]
    identity: u64,
    /// Bumped on every mutation that can change predictions
    /// ([`CostModel::store_mut`], [`CostModel::set_label_stats`],
    /// [`CostModel::restore`]); a [`PlanContext`] is only valid for the
    /// exact `(identity, version)` it was computed under.
    #[serde(skip)]
    version: u64,
}

static MODEL_IDENTITY: AtomicU64 = AtomicU64::new(1);

fn next_model_identity() -> u64 {
    // ORDERING: Relaxed — a unique-id counter needs only atomicity of
    // the increment; nothing else is published through this operation.
    MODEL_IDENTITY.fetch_add(1, Ordering::Relaxed)
}

/// Checks one attention layer's projections `{layer}.{suffix}`, each
/// `rows x latent_k`, for [`CostModel::validate_shapes`]. The ids come
/// from the checkpoint, so they are looked up fallibly.
fn check_attention(
    store: &ParamStore,
    latent_k: usize,
    layer: &str,
    projections: [(Option<ParamId>, &str, usize); 2],
) -> Result<(), String> {
    for (id, suffix, rows) in projections {
        let name = format!("{layer}.{suffix}");
        if rows == 0 || latent_k == 0 {
            return Err(format!("{name} is declared {rows}x{latent_k}: a zero width"));
        }
        let Some(id) = id else {
            return Err(format!("{name} is enabled in the config but unregistered"));
        };
        let Some((found, t)) = store.get(id) else {
            return Err(format!("{name} is {id:?}, past the store's {} parameters", store.len()));
        };
        if found != name || t.shape() != (rows, latent_k) {
            let (r, c) = t.shape();
            return Err(format!(
                "{name} is `{found}` {r}x{c}, expected `{name}` {rows}x{latent_k}"
            ));
        }
    }
    Ok(())
}

thread_local! {
    /// Per-thread scratch pool for the tape-free inference path, so
    /// repeated predictions (selection loops, resource sweeps, batch
    /// shards) stop allocating after their first call.
    static INFER_ARENA: RefCell<InferArena> = RefCell::new(InferArena::new());
}

/// Precomputed resource-independent state of one plan's forward pass.
///
/// The LSTM/CNN hidden states, the node-aware attention pooling and the
/// projected resource-attention keys depend only on the plan, not on the
/// resource vector, so a what-if sweep over resource configurations can
/// compute them once via [`CostModel::plan_context`] and then price each
/// configuration with [`CostModel::predict_with_context`], which costs
/// only the resource attention and the dense head.
///
/// A context is pinned to the exact model state that produced it
/// (instance identity plus mutation version); using it after the model
/// has been mutated, retrained or deserialised panics. Check
/// [`CostModel::context_is_current`] to test freshness explicitly.
#[derive(Debug, Clone)]
pub struct PlanContext {
    model_identity: u64,
    model_version: u64,
    /// Number of plan nodes.
    n: usize,
    /// `n x hidden` plan-layer hidden states, row-major.
    h: Vec<f32>,
    /// `1 x hidden` pooled plan representation (after node attention).
    p: Vec<f32>,
    /// `n x latent_k` projected resource-attention keys (`h @ Wk_res`);
    /// empty when resource attention is disabled.
    keys: Vec<f32>,
    /// Plan-level statistic features.
    stats: Vec<f32>,
}

impl PlanContext {
    /// Number of nodes in the plan this context was computed for.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Heap bytes this context holds (buffer capacities, which for a
    /// context drawn from the inference arena can exceed what it uses;
    /// a `clone()` is exact-sized).
    pub fn heap_bytes(&self) -> usize {
        (self.h.capacity() + self.p.capacity() + self.keys.capacity() + self.stats.capacity())
            * std::mem::size_of::<f32>()
    }
}

impl std::fmt::Debug for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostModel")
            .field("cfg", &self.cfg)
            .field("weights", &self.store.num_weights())
            .finish()
    }
}

impl CostModel {
    /// Builds and initialises a model.
    pub fn new(cfg: ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (lstm, cnn) = match cfg.plan_layer {
            PlanLayerKind::Lstm => (
                Some(LstmCell::new(&mut store, &mut rng, "plan.lstm", cfg.node_dim, cfg.hidden)),
                None,
            ),
            PlanLayerKind::Cnn => (
                None,
                Some(Conv1d::new(&mut store, &mut rng, "plan.cnn", cfg.node_dim, cfg.hidden, 3)),
            ),
        };
        let (wq, wk) = if cfg.node_attention {
            (
                Some(store.register(
                    "attn.node.wq",
                    nn::init::xavier_uniform(&mut rng, cfg.hidden, cfg.latent_k),
                )),
                Some(store.register(
                    "attn.node.wk",
                    nn::init::xavier_uniform(&mut rng, cfg.hidden, cfg.latent_k),
                )),
            )
        } else {
            (None, None)
        };
        let (wr, wk_res) = if cfg.resource_attention {
            (
                Some(store.register(
                    "attn.res.wr",
                    nn::init::xavier_uniform(&mut rng, cfg.resource_dim, cfg.latent_k),
                )),
                Some(store.register(
                    "attn.res.wk",
                    nn::init::xavier_uniform(&mut rng, cfg.hidden, cfg.latent_k),
                )),
            )
        } else {
            (None, None)
        };
        // When resource awareness is on, the head sees both the
        // attention context M and the raw normalised resource vector
        // (joined with the "other statistical features", Sec. IV-D's
        // prediction layer).
        let head_in = cfg.hidden
            + if cfg.resource_attention {
                cfg.hidden + cfg.resource_dim
            } else {
                0
            }
            + PLAN_STAT_FEATURES;
        let head1 =
            Dense::new(&mut store, &mut rng, "head.1", head_in, cfg.head_hidden, Activation::Relu);
        let head2 = Dense::new(
            &mut store,
            &mut rng,
            "head.2",
            cfg.head_hidden,
            cfg.head_hidden / 2,
            Activation::Relu,
        );
        let out = Dense::new(
            &mut store,
            &mut rng,
            "head.out",
            cfg.head_hidden / 2,
            1,
            Activation::Identity,
        );
        let model = Self {
            cfg,
            store,
            lstm,
            cnn,
            wq,
            wk,
            wr,
            wk_res,
            head1,
            head2,
            out,
            label_mean: 0.0,
            label_std: 1.0,
            identity: next_model_identity(),
            version: 0,
        };
        // Static shape check before any data can touch the network: a
        // degenerate config (zero widths, resource_dim drift, ...) fails
        // here with a layer-level diagnostic instead of a kernel panic
        // mid-forward.
        if let Err(e) = model.validate_shapes() {
            panic!("invalid model configuration: {e}");
        }
        model
    }

    /// Checks every tensor the forward pass reads against the
    /// architecture the config declares, by the *actual* parameter ids and
    /// shapes: each layer's own (`check_params`), the two attention
    /// projections, that the widths chain (plan layer `node_dim → hidden`,
    /// both attentions read `hidden`, the head reads `hidden` + [`hidden` +
    /// `resource_dim`] + stats and ends at 1) and that no width is zero.
    /// The error names the offending tensor or layer.
    pub fn validate_shapes(&self) -> Result<(), String> {
        let (cfg, store) = (&self.cfg, &self.store);
        let (plan, in_dim, out_dim) = match (cfg.plan_layer, &self.lstm, &self.cnn) {
            (PlanLayerKind::Lstm, Some(lstm), _) => {
                lstm.check_params(store, "plan.lstm")?;
                ("plan.lstm", lstm.in_dim, lstm.hidden)
            }
            (PlanLayerKind::Cnn, _, Some(cnn)) => {
                cnn.check_params(store, "plan.cnn")?;
                ("plan.cnn", cnn.in_dim, cnn.out_dim)
            }
            (kind, _, _) => return Err(format!("plan: {kind:?} layer has no registered network")),
        };
        if (in_dim, out_dim) != (cfg.node_dim, cfg.hidden) {
            return Err(format!(
                "{plan} maps {in_dim} -> {out_dim}, but the config declares node_dim {} and \
                 hidden {}",
                cfg.node_dim, cfg.hidden
            ));
        }
        let mut width = cfg.hidden + PLAN_STAT_FEATURES;
        if cfg.node_attention {
            check_attention(
                store,
                cfg.latent_k,
                "attn.node",
                [(self.wq, "wq", cfg.hidden), (self.wk, "wk", cfg.hidden)],
            )?;
        }
        if cfg.resource_attention {
            check_attention(
                store,
                cfg.latent_k,
                "attn.res",
                [(self.wr, "wr", cfg.resource_dim), (self.wk_res, "wk", cfg.hidden)],
            )?;
            width += cfg.hidden + cfg.resource_dim;
        }
        for (name, layer) in
            [("head.1", &self.head1), ("head.2", &self.head2), ("head.out", &self.out)]
        {
            layer.check_params(store, name)?;
            if layer.in_dim != width {
                return Err(format!("{name} reads {} columns, but is fed {width}", layer.in_dim));
            }
            width = layer.out_dim;
        }
        if width != 1 {
            return Err(format!("head.out emits {width} columns, not the one prediction"));
        }
        Ok(())
    }

    /// Sets the label standardisation constants (normalised-log space).
    /// Called by the trainer with the training set's statistics.
    pub fn set_label_stats(&mut self, mean: f32, std: f32) {
        self.version += 1;
        self.label_mean = mean;
        self.label_std = std.max(1e-4);
    }

    /// Current label standardisation `(mean, std)`.
    pub fn label_stats(&self) -> (f32, f32) {
        (self.label_mean, self.label_std)
    }

    /// The standardised training target for a time in seconds.
    pub fn target(&self, seconds: f64) -> f32 {
        (normalize_seconds(seconds) - self.label_mean) / self.label_std
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Total trainable weights.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Parameter store (for optimizers).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store (for optimizers). Conservatively
    /// invalidates every outstanding [`PlanContext`], since the borrow
    /// may be used to change weights.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        self.version += 1;
        &mut self.store
    }

    /// Builds the per-step forward graph for one sample, returning the
    /// prediction in normalised log-space (a `1 x 1` variable): the plan
    /// layer and node-aware attention as primitive ops, a step and a node
    /// at a time. It is the independent reference
    /// [`CostModel::predict_seconds_tape`] evaluates; training
    /// differentiates [`CostModel::loss`]'s fused graph instead.
    pub fn forward<'p>(&'p self, g: &mut Graph<'p>, plan: &EncodedPlan, resources: &[f32]) -> Var {
        let store = &self.store;
        let x = g.input(node_matrix(plan));

        // Plan feature layer. The constructor builds exactly the layer
        // matching `cfg.plan_layer` and `validate_shapes` re-checks the
        // pairing on load, so the mismatched arms cannot be reached
        // through any public path.
        let h = match (self.cfg.plan_layer, &self.lstm, &self.cnn) {
            (PlanLayerKind::Lstm, Some(lstm), _) => lstm.forward_seq(g, store, x),
            (PlanLayerKind::Cnn, _, Some(cnn)) => cnn.forward_seq(g, store, x),
            (kind, _, _) => unreachable!("no layer weights for plan_layer {kind:?}"),
        };

        // Node-aware attention (Eq. 8–9): each node attends over its
        // children; the plan representation pools the enriched rows.
        let p = if let Some((wq_id, wk_id)) = self.node_attention() {
            let wq = g.param(store, wq_id);
            let wk = g.param(store, wk_id);
            let q_all = g.matmul(h, wq);
            let k_all = g.matmul(h, wk);
            let mut reps = Vec::with_capacity(plan.num_nodes());
            for i in 0..plan.num_nodes() {
                let hi = g.slice_rows(h, i, 1);
                let kids = plan.children(i);
                if kids.is_empty() {
                    reps.push(hi);
                    continue;
                }
                let qi = g.slice_rows(q_all, i, 1);
                let key_rows: Vec<Var> = kids.iter().map(|&c| g.slice_rows(k_all, c, 1)).collect();
                let keys = g.concat_rows(&key_rows);
                let val_rows: Vec<Var> = kids.iter().map(|&c| g.slice_rows(h, c, 1)).collect();
                let values = g.concat_rows(&val_rows);
                let ctx = dot_attention(g, qi, keys, values);
                reps.push(g.add(hi, ctx));
            }
            let enriched = g.concat_rows(&reps);
            g.mean_rows(enriched)
        } else {
            g.mean_rows(h)
        };
        self.head(g, store, plan, resources, h, p)
    }

    /// Builds the training loss graph for one sample (standardised
    /// target). The LSTM over the plan and node-aware attention are one
    /// tape node each ([`LstmCell::forward_fused`], [`child_attention`]),
    /// computed by the inference kernels and differentiated by
    /// hand-written rules; the resource attention and the head are the
    /// same ops as in [`CostModel::forward`]. The RAAC ablation's CNN
    /// stays per-op.
    pub fn loss<'p>(
        &'p self,
        g: &mut Graph<'p>,
        plan: &EncodedPlan,
        resources: &[f32],
        seconds: f64,
    ) -> Var {
        self.loss_in(&self.store, g, plan, resources, seconds)
    }

    /// [`CostModel::loss`] over the weights in `store`, which has this
    /// model's layout.
    fn loss_in<'p>(
        &self,
        store: &'p ParamStore,
        g: &mut Graph<'p>,
        plan: &EncodedPlan,
        resources: &[f32],
        seconds: f64,
    ) -> Var {
        let x = g.input(node_matrix(plan));
        let h = match (self.cfg.plan_layer, &self.lstm, &self.cnn) {
            (PlanLayerKind::Lstm, Some(lstm), _) => lstm.forward_fused(g, store, x),
            (PlanLayerKind::Cnn, _, Some(cnn)) => cnn.forward_seq(g, store, x),
            (kind, _, _) => unreachable!("no layer weights for plan_layer {kind:?}"),
        };
        let p = if let Some((wq_id, wk_id)) = self.node_attention() {
            let wq = g.param(store, wq_id);
            let wk = g.param(store, wk_id);
            let q_all = g.matmul(h, wq);
            let k_all = g.matmul(h, wk);
            let enriched = child_attention(g, q_all, k_all, h, |i| plan.children(i));
            g.mean_rows(enriched)
        } else {
            g.mean_rows(h)
        };
        let pred = self.head(g, store, plan, resources, h, p);
        g.mse_loss(pred, &Tensor::scalar(self.target(seconds)))
    }

    /// The node-attention projections `(wq, wk)` when the layer is on.
    /// Missing weights with the flag set cannot happen via the
    /// constructor; if a hand-edited checkpoint produces it, mean pooling
    /// (the attention-off path) is the graceful answer.
    fn node_attention(&self) -> Option<(ParamId, ParamId)> {
        self.wq.zip(self.wk).filter(|_| self.cfg.node_attention)
    }

    /// Resource-aware attention (Eq. 10–11) over the plan layer's `h` and
    /// the dense head over `[p | m | rvec | stats]` (`[p | stats]` for
    /// resource-blind ablations): what both graphs share.
    fn head<'p>(
        &self,
        g: &mut Graph<'p>,
        store: &'p ParamStore,
        plan: &EncodedPlan,
        resources: &[f32],
        h: Var,
        p: Var,
    ) -> Var {
        // The resource vector queries the node hidden states.
        let stats = g.input(Tensor::row(&plan.plan_stats));
        let features = if let (true, Some((wr_id, wk_res_id))) =
            (self.cfg.resource_attention, self.wr.zip(self.wk_res))
        {
            assert_eq!(resources.len(), self.cfg.resource_dim, "resource vector width mismatch");
            let rvec = g.input(Tensor::row(resources));
            let wr = g.param(store, wr_id);
            let wk_res = g.param(store, wk_res_id);
            let q = g.matmul(rvec, wr);
            let keys = g.matmul(h, wk_res);
            let m = dot_attention(g, q, keys, h);
            g.concat_cols(&[p, m, rvec, stats])
        } else {
            g.concat_cols(&[p, stats])
        };

        // Prediction head.
        let z = self.head1.forward(g, store, features);
        let z = self.head2.forward(g, store, z);
        self.out.forward(g, store, z)
    }

    /// Predicts the execution time of a plan in seconds.
    ///
    /// Runs the tape-free inference engine ([`nn::infer`]): the same
    /// arithmetic as [`CostModel::forward`] in the same accumulation
    /// order, without recording autograd state, using SIMD kernels
    /// (FMA matmuls, polynomial `exp` gates) the tape deliberately
    /// avoids. Agreement with the tape within 1e-5 relative error is
    /// enforced by `tests/prop_infer.rs` and the layer unit tests.
    pub fn predict_seconds(&self, plan: &EncodedPlan, resources: &[f32]) -> f64 {
        telemetry::count("infer.predict.single", 1);
        let ctx = self.plan_context(plan);
        let y = self.predict_with_context(&ctx, resources);
        self.recycle_context(ctx);
        y
    }

    /// Reference implementation of [`CostModel::predict_seconds`] on the
    /// autograd tape. Kept as the ground truth the fast path is checked
    /// against; prefer `predict_seconds` everywhere else.
    pub fn predict_seconds_tape(&self, plan: &EncodedPlan, resources: &[f32]) -> f64 {
        let mut g = Graph::new();
        let pred = self.forward(&mut g, plan, resources);
        let y = g.value(pred).item() * self.label_std + self.label_mean;
        denormalize_seconds(y)
    }

    /// F32 data of a projection the config guarantees is registered.
    fn proj(&self, id: Option<ParamId>, which: &str) -> &[f32] {
        match id {
            Some(id) => self.store.value(id).data(),
            // Construction registers a projection for every feature the
            // config enables (shape::check validates the store), so this
            // arm is unreachable for a built model.
            None => panic!("{which} enabled in the config but unregistered"),
        }
    }

    /// Precomputes the resource-independent part of the forward pass for
    /// `plan`: plan-layer hidden states, node-aware attention pooling and
    /// the projected resource-attention keys. See [`PlanContext`].
    pub fn plan_context(&self, plan: &EncodedPlan) -> PlanContext {
        let n = plan.num_nodes();
        // An empty plan is a caller bug; the encoder never produces one.
        assert!(n > 0, "cannot cost an empty plan");
        // Counts builds only. Contexts reused by a caller's own sweep
        // show up in `infer.predict.with_context`; the serving cache
        // reports its reuse as `serving.plan_cache.hit` / `.miss`.
        telemetry::count("infer.plan_context.build", 1);
        INFER_ARENA.with(|cell| {
            let arena = &mut *cell.borrow_mut();
            let hidden = self.cfg.hidden;

            // The encoder's buffer is already the row-major node matrix.
            let xs = plan.node_features();

            // Plan feature layer.
            let h = {
                let _k = telemetry::kernel_span("infer.plan_layer");
                match self.cfg.plan_layer {
                    PlanLayerKind::Lstm => match &self.lstm {
                        Some(lstm) => lstm.infer_seq(&self.store, xs, n, arena),
                        None => panic!("lstm exists for Lstm kind"),
                    },
                    PlanLayerKind::Cnn => match &self.cnn {
                        Some(cnn) => cnn.infer_seq(&self.store, xs, n, arena),
                        None => panic!("cnn exists for Cnn kind"),
                    },
                }
            };

            // Node-aware attention and mean pooling. `p[j]` accumulates
            // `rep_i[j] / n` over nodes in order, matching the tape's
            // `mean_rows` exactly.
            let mut p = arena.take(hidden);
            let attn_span = telemetry::kernel_span("infer.node_attention");
            if self.cfg.node_attention {
                let k = self.cfg.latent_k;
                let mut q_all = arena.take(n * k);
                let mut k_all = arena.take(n * k);
                infer::matmul_into(
                    &h,
                    n,
                    hidden,
                    self.proj(self.wq, "attn.node.wq"),
                    k,
                    &mut q_all,
                );
                infer::matmul_into(
                    &h,
                    n,
                    hidden,
                    self.proj(self.wk, "attn.node.wk"),
                    k,
                    &mut k_all,
                );
                let mut scores = arena.take(0);
                let mut ctx = arena.take(hidden);
                for i in 0..n {
                    let hi = &h[i * hidden..(i + 1) * hidden];
                    let kids = plan.children(i);
                    if kids.is_empty() {
                        for (acc, &v) in p.iter_mut().zip(hi.iter()) {
                            *acc += v / n as f32;
                        }
                        continue;
                    }
                    dot_attention_into(
                        &q_all[i * k..(i + 1) * k],
                        &k_all,
                        &h,
                        k,
                        hidden,
                        Some(kids),
                        0,
                        &mut scores,
                        &mut ctx,
                    );
                    for ((acc, &hv), &cv) in p.iter_mut().zip(hi.iter()).zip(ctx.iter()) {
                        *acc += (hv + cv) / n as f32;
                    }
                }
                arena.give(q_all);
                arena.give(k_all);
                arena.give(scores);
                arena.give(ctx);
            } else {
                for i in 0..n {
                    let hi = &h[i * hidden..(i + 1) * hidden];
                    for (acc, &v) in p.iter_mut().zip(hi.iter()) {
                        *acc += v / n as f32;
                    }
                }
            }
            drop(attn_span);

            // Resource-attention keys (`h @ Wk_res`) are resource
            // independent, so a context amortises them across a sweep.
            let keys = if self.cfg.resource_attention {
                let _k_span = telemetry::kernel_span("infer.resource_keys");
                let k = self.cfg.latent_k;
                let mut keys = arena.take(n * k);
                infer::matmul_into(
                    &h,
                    n,
                    hidden,
                    self.proj(self.wk_res, "attn.res.wk"),
                    k,
                    &mut keys,
                );
                keys
            } else {
                Vec::new()
            };

            let mut stats = arena.take(plan.plan_stats.len());
            stats.copy_from_slice(&plan.plan_stats);
            PlanContext {
                model_identity: self.identity,
                model_version: self.version,
                n,
                h,
                p,
                keys,
                stats,
            }
        })
    }

    /// Returns a context's scratch buffers to the calling thread's
    /// inference arena. Purely an allocation-traffic optimisation — a
    /// context that is simply dropped is still correct, it just costs
    /// the next `plan_context` call fresh allocations.
    pub fn recycle_context(&self, ctx: PlanContext) {
        INFER_ARENA.with(|cell| {
            let arena = &mut *cell.borrow_mut();
            arena.give(ctx.h);
            arena.give(ctx.p);
            arena.give(ctx.stats);
            if !ctx.keys.is_empty() {
                arena.give(ctx.keys);
            }
        });
    }

    /// Whether `ctx` was computed by this exact model state (same
    /// instance, no intervening mutation, no serde round trip).
    pub fn context_is_current(&self, ctx: &PlanContext) -> bool {
        ctx.model_identity == self.identity && ctx.model_version == self.version
    }

    /// Predicts seconds from a precomputed [`PlanContext`], paying only
    /// the resource attention over the context's cached keys, the
    /// `[p | m | rvec | stats]` feature row (`[p | stats]` for
    /// resource-blind ablations) and `head1`/`head2`/`out`. The one head
    /// implementation: every prediction entry point ends here, once per
    /// plan.
    ///
    /// # Panics
    /// Panics if the context is stale — produced by a different model, or
    /// by this model before a mutation ([`CostModel::store_mut`],
    /// [`CostModel::set_label_stats`], [`CostModel::restore`]) or a serde
    /// round trip.
    pub fn predict_with_context(&self, ctx: &PlanContext, resources: &[f32]) -> f64 {
        telemetry::count("infer.predict.with_context", 1);
        // Pricing a context from another model state would silently
        // return garbage, so this fails loudly instead.
        assert!(
            self.context_is_current(ctx),
            "stale PlanContext: the model was mutated, retrained or deserialised after \
             plan_context() — recompute the context"
        );
        let hidden = self.cfg.hidden;
        INFER_ARENA.with(|cell| {
            let arena = &mut *cell.borrow_mut();
            // `features` has head_in elements: 2*hidden + rdim + stats
            // with resource attention, hidden + stats without.
            let mut features = arena.take(self.head1.in_dim);
            let (p_slot, rest) = features.split_at_mut(hidden);
            p_slot.copy_from_slice(&ctx.p);
            if self.cfg.resource_attention {
                let k = self.cfg.latent_k;
                let rdim = self.cfg.resource_dim;
                assert_eq!(resources.len(), rdim, "resource vector width mismatch");
                let mut q = arena.take(k);
                infer::matmul_into(
                    resources,
                    1,
                    rdim,
                    self.proj(self.wr, "attn.res.wr"),
                    k,
                    &mut q,
                );
                let mut scores = arena.take(0);
                let (m_slot, rest) = rest.split_at_mut(hidden);
                dot_attention_into(
                    &q,
                    &ctx.keys,
                    &ctx.h,
                    k,
                    hidden,
                    None,
                    ctx.n,
                    &mut scores,
                    m_slot,
                );
                let (r_slot, stats_slot) = rest.split_at_mut(rdim);
                r_slot.copy_from_slice(resources);
                stats_slot.copy_from_slice(&ctx.stats);
                arena.give(q);
                arena.give(scores);
            } else {
                rest.copy_from_slice(&ctx.stats);
            }

            let _head_span = telemetry::kernel_span("infer.head");
            let z1 = self.head1.infer(&self.store, &features, 1, arena);
            let z2 = self.head2.infer(&self.store, &z1, 1, arena);
            let ys = self.out.infer(&self.store, &z2, 1, arena);
            // `out` is a `head_hidden/2 x 1` layer run over one row, so
            // `ys` holds exactly one element.
            let seconds = denormalize_seconds(ys[0] * self.label_std + self.label_mean);
            arena.give(features);
            arena.give(z1);
            arena.give(z2);
            arena.give(ys);
            seconds
        })
    }

    /// Scores K candidate plans on the calling thread: a loop over
    /// [`CostModel::predict_seconds`], so each result is that call's by
    /// construction. Packing the K head inputs into one matmul per
    /// layer measured 0.96x of this loop (DESIGN.md §17); the name
    /// stays because the benchmark package links it.
    pub fn predict_packed(&self, items: &[(&EncodedPlan, &[f32])]) -> Vec<f64> {
        items
            .iter()
            .map(|(plan, resources)| self.predict_seconds(plan, resources))
            .collect()
    }

    /// Restores internal optimizer buffers after deserialisation.
    pub fn restore(&mut self) {
        self.version += 1;
        self.store.restore_state();
    }
}

/// An immutable, `Arc`-shared inference handle over one [`CostModel`].
///
/// `Clone` is a reference-count bump, so N serving replicas hold one
/// copy of the weights, not N. The handle is `Send + Sync` (asserted at
/// compile time in the tests): the model is never mutated after
/// freezing, and the per-thread scratch arenas keep concurrent
/// predictions independent. Every method returns the bits the
/// [`CostModel`] method of the same name returns.
#[derive(Debug, Clone)]
pub struct FrozenModel(Arc<CostModel>);

impl FrozenModel {
    /// Moves `model` behind an `Arc`; nothing can mutate it afterwards.
    pub fn freeze(model: CostModel) -> Self {
        Self(Arc::new(model))
    }

    /// The shared underlying model (read-only).
    pub fn model(&self) -> &CostModel {
        &self.0
    }

    /// Number of live handles sharing this model's weights.
    pub fn replicas(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// See [`CostModel::predict_seconds`].
    pub fn predict_seconds(&self, plan: &EncodedPlan, resources: &[f32]) -> f64 {
        CostModel::predict_seconds(&self.0, plan, resources)
    }

    /// Alias of [`Self::predict_seconds`], kept for the benchmark
    /// package (DESIGN.md §13, "benchmark-pinned").
    pub fn predict_seconds_f32(&self, plan: &EncodedPlan, resources: &[f32]) -> f64 {
        self.predict_seconds(plan, resources)
    }

    /// See [`CostModel::plan_context`].
    pub fn plan_context(&self, plan: &EncodedPlan) -> PlanContext {
        self.0.plan_context(plan)
    }

    /// See [`CostModel::predict_with_context`].
    pub fn predict_with_context(&self, ctx: &PlanContext, resources: &[f32]) -> f64 {
        self.0.predict_with_context(ctx, resources)
    }

    /// See [`CostModel::recycle_context`].
    pub fn recycle_context(&self, ctx: PlanContext) {
        self.0.recycle_context(ctx);
    }

    /// See [`CostModel::predict_packed`].
    pub fn predict_packed(&self, items: &[(&EncodedPlan, &[f32])]) -> Vec<f64> {
        self.0.predict_packed(items)
    }
}

/// Snapshot of the calling thread's inference-arena statistics — the
/// thread-local scratch pool behind every tape-free prediction on this
/// thread. Lets callers (and the serving tests) assert that a warmed
/// prediction loop has genuinely stopped allocating.
pub fn thread_arena_stats() -> nn::ArenaStats {
    INFER_ARENA.with(|cell| cell.borrow().stats())
}

/// A plan's node features as an `n x node_dim` tape input; panics on an
/// empty plan.
pub fn node_matrix(plan: &EncodedPlan) -> Tensor {
    assert!(plan.num_nodes() > 0, "cannot cost an empty plan");
    Tensor::from_vec(plan.num_nodes(), plan.node_dim(), plan.node_features().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_plan(n: usize, dim: usize) -> EncodedPlan {
        let node_features: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..dim).map(|d| ((i * 7 + d) % 13) as f32 / 13.0).collect())
            .collect();
        // Chain, except the root is a join-like node with two children —
        // single-child softmax is constant and would starve the
        // node-attention weights of gradient.
        let children: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                if i == 0 {
                    vec![]
                } else if i == n - 1 && n >= 3 {
                    vec![i - 1, i - 2]
                } else {
                    vec![i - 1]
                }
            })
            .collect();
        EncodedPlan::from_rows(&node_features, &children, [0.1; PLAN_STAT_FEATURES])
    }

    fn resources() -> Vec<f32> {
        vec![1.0, 1.0, 0.25, 0.5, 0.25, 0.9, 0.8]
    }

    #[test]
    fn all_variants_run_forward() {
        let dim = 20;
        let plan = toy_plan(5, dim);
        for cfg in [
            ModelConfig::raal(dim),
            ModelConfig::na_lstm(dim),
            ModelConfig::raac(dim),
            ModelConfig::raal(dim).without_resources(),
        ] {
            let model = CostModel::new(cfg);
            let s = model.predict_seconds(&plan, &resources());
            assert!(s.is_finite() && s >= 0.0, "{s}");
        }
    }

    #[test]
    fn normalisation_round_trips() {
        for s in [0.0, 0.5, 10.0, 100.0, 3600.0] {
            let y = normalize_seconds(s);
            assert!((denormalize_seconds(y) - s).abs() < s.max(1.0) * 1e-3);
        }
        assert!(normalize_seconds(1e9) <= 1.0);
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        let dim = 12;
        let plan = toy_plan(4, dim);
        let model = CostModel::new(ModelConfig::raal(dim));
        let mut store = model.store().clone();
        let mut g = Graph::new();
        let loss = model.loss(&mut g, &plan, &resources(), 25.0);
        let grads = g.backward(loss);
        grads.accumulate(&mut store, 1.0);
        let dead: Vec<String> = store
            .ids()
            .filter(|&id| store.grad(id).norm() == 0.0)
            .map(|id| store.name(id).to_string())
            .collect();
        assert!(dead.is_empty(), "parameters with zero gradient: {dead:?}");
    }

    #[test]
    fn gradcheck_full_raal() {
        // Small dims keep the finite-difference sweep fast.
        let dim = 6;
        let plan = toy_plan(3, dim);
        let cfg = ModelConfig {
            hidden: 5,
            latent_k: 4,
            head_hidden: 6,
            ..ModelConfig::raal(dim)
        };
        let model = CostModel::new(cfg);
        let mut store = model.store().clone();
        let res = resources();
        nn::gradcheck::assert_gradients_close(
            &mut store,
            move |g, s| model.loss_in(s, g, &plan, &res, 10.0),
            5e-3,
            3e-2,
        );
    }

    #[test]
    fn resource_blind_model_ignores_resources() {
        let dim = 10;
        let plan = toy_plan(4, dim);
        let model = CostModel::new(ModelConfig::raal(dim).without_resources());
        let a = model.predict_seconds(&plan, &resources());
        let b = model.predict_seconds(&plan, &[0.0; 7]);
        assert_eq!(a, b, "without resource attention, resources are unused");
    }

    #[test]
    fn resource_aware_model_reacts_to_resources() {
        let dim = 10;
        let plan = toy_plan(4, dim);
        let model = CostModel::new(ModelConfig::raal(dim));
        let a = model.predict_seconds(&plan, &resources());
        let b = model.predict_seconds(&plan, &[0.01; 7]);
        assert_ne!(a, b);
    }

    #[test]
    fn fast_path_matches_tape_on_all_variants() {
        let dim = 20;
        for cfg in [
            ModelConfig::raal(dim),
            ModelConfig::na_lstm(dim),
            ModelConfig::raac(dim),
            ModelConfig::raal(dim).without_resources(),
        ] {
            let model = CostModel::new(cfg);
            for n in [1, 2, 5, 9] {
                let plan = toy_plan(n, dim);
                let fast = model.predict_seconds(&plan, &resources());
                let tape = model.predict_seconds_tape(&plan, &resources());
                let rel = (fast - tape).abs() / tape.abs().max(1e-6);
                assert!(
                    rel <= 1e-5,
                    "n={n} cfg={:?}: fast {fast} vs tape {tape} (rel {rel:.2e})",
                    model.config()
                );
            }
        }
    }

    #[test]
    fn context_sweep_matches_direct_prediction() {
        let dim = 14;
        let plan = toy_plan(6, dim);
        let model = CostModel::new(ModelConfig::raal(dim));
        let ctx = model.plan_context(&plan);
        for scale in [0.1f32, 0.5, 1.0] {
            let res: Vec<f32> = resources().iter().map(|r| r * scale).collect();
            assert_eq!(model.predict_with_context(&ctx, &res), model.predict_seconds(&plan, &res));
        }
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let dim = 8;
        let plan = toy_plan(3, dim);
        let model = CostModel::new(ModelConfig::raal(dim));
        let json = serde_json::to_string(&model).unwrap();
        let mut back: CostModel = serde_json::from_str(&json).unwrap();
        back.restore();
        assert_eq!(
            model.predict_seconds(&plan, &resources()),
            back.predict_seconds(&plan, &resources())
        );
    }
}
