//! TLSTM baseline — the tree-structured LSTM cost estimator of Sun & Li
//! (the paper's relational-database state of the art, Sec. V-A).
//!
//! Each plan operator gets an LSTM unit; a unit's recurrent state is the
//! sum of its children's states (child-sum Tree-LSTM), so information
//! flows bottom-up through the plan tree instead of along the paper's
//! linearised node sequence. The root state feeds a dense head. TLSTM has
//! **no resource pathway** — exactly why it trails RAAL when resources
//! vary (Tables V and VII).

use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
use nn::layers::{Activation, Dense, LstmCell};
use nn::{Graph, ParamStore, Tensor, Var};
use raal::model::{denormalize_seconds, normalize_seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// TLSTM hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TlstmConfig {
    /// Per-node input feature width.
    pub node_dim: usize,
    /// Hidden/cell width of the tree-LSTM units.
    pub hidden: usize,
    /// Dense head width.
    pub head_hidden: usize,
    /// Initialisation seed.
    pub seed: u64,
}

impl TlstmConfig {
    /// Defaults matching the RAAL comparison setting.
    pub fn new(node_dim: usize) -> Self {
        Self { node_dim, hidden: 64, head_hidden: 64, seed: 0x715 }
    }
}

/// The TLSTM cost model.
#[derive(Clone, Serialize, Deserialize)]
pub struct TlstmModel {
    cfg: TlstmConfig,
    store: ParamStore,
    cell: LstmCell,
    head1: Dense,
    out: Dense,
    /// Label standardisation (see `raal::CostModel`): set by the trainer.
    label_mean: f32,
    label_std: f32,
}

impl std::fmt::Debug for TlstmModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlstmModel")
            .field("cfg", &self.cfg)
            .field("weights", &self.store.num_weights())
            .finish()
    }
}

impl TlstmModel {
    /// Builds and initialises the model.
    pub fn new(cfg: TlstmConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let cell = LstmCell::new(&mut store, &mut rng, "tlstm.cell", cfg.node_dim, cfg.hidden);
        let head1 = Dense::new(
            &mut store,
            &mut rng,
            "tlstm.head",
            cfg.hidden + PLAN_STAT_FEATURES,
            cfg.head_hidden,
            Activation::Relu,
        );
        let out =
            Dense::new(&mut store, &mut rng, "tlstm.out", cfg.head_hidden, 1, Activation::Identity);
        Self {
            cfg,
            store,
            cell,
            head1,
            out,
            label_mean: 0.0,
            label_std: 1.0,
        }
    }

    /// Sets label standardisation constants (normalised-log space).
    pub fn set_label_stats(&mut self, mean: f32, std: f32) {
        self.label_mean = mean;
        self.label_std = std.max(1e-4);
    }

    /// Total trainable weights.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Forward pass: bottom-up tree recurrence, normalised-log output.
    pub fn forward(&self, g: &mut Graph, plan: &EncodedPlan) -> Var {
        let n = plan.num_nodes();
        assert!(n > 0, "cannot cost an empty plan");
        let x = g.input(node_matrix(plan));
        let bound = self.cell.bind(g, &self.store);
        let zero = g.input(Tensor::zeros(1, self.cfg.hidden));
        let mut hs: Vec<Var> = Vec::with_capacity(n);
        let mut cs: Vec<Var> = Vec::with_capacity(n);
        for i in 0..n {
            // Child-sum recurrent state.
            let (h_in, c_in) = match plan.children(i) {
                [] => (zero, zero),
                [one] => (hs[*one], cs[*one]),
                kids => {
                    let mut h = hs[kids[0]];
                    let mut c = cs[kids[0]];
                    for &k in &kids[1..] {
                        h = g.add(h, hs[k]);
                        c = g.add(c, cs[k]);
                    }
                    (h, c)
                }
            };
            let x_i = g.slice_rows(x, i, 1);
            let (h, c) = bound.step(g, x_i, h_in, c_in);
            hs.push(h);
            cs.push(c);
        }
        let root = hs[n - 1];
        let stats = g.input(Tensor::row(&plan.plan_stats));
        let features = g.concat_cols(&[root, stats]);
        let z = self.head1.forward(g, &self.store, features);
        self.out.forward(g, &self.store, z)
    }

    /// Training loss for one sample (standardised target).
    pub fn loss(&self, g: &mut Graph, plan: &EncodedPlan, seconds: f64) -> Var {
        let pred = self.forward(g, plan);
        let target = (normalize_seconds(seconds) - self.label_mean) / self.label_std;
        g.mse_loss(pred, &Tensor::scalar(target))
    }

    /// Predicted execution time in seconds (resources are ignored by
    /// design — TLSTM is resource-blind).
    pub fn predict_seconds(&self, plan: &EncodedPlan) -> f64 {
        let mut g = Graph::new();
        let pred = self.forward(&mut g, plan);
        let y = g.value(pred).item() * self.label_std + self.label_mean;
        denormalize_seconds(y)
    }
}

fn node_matrix(plan: &EncodedPlan) -> Tensor {
    Tensor::from_vec(plan.num_nodes(), plan.node_dim(), plan.node_features().to_vec())
}

/// Trains a TLSTM model with mini-batch Adam (the raal trainer's loop,
/// specialised to a resource-free model).
pub fn train_tlstm(
    model: &mut TlstmModel,
    samples: &[encoding::plan_encoder::Sample],
    cfg: &raal::TrainConfig,
) -> raal::TrainHistory {
    use nn::optim::Adam;
    use rand::seq::SliceRandom;
    assert!(!samples.is_empty(), "training set must be non-empty");
    let mut run = telemetry::span("baselines.train_tlstm");
    run.record("epochs", cfg.epochs as u64);
    run.record("samples", samples.len() as u64);
    {
        let ys: Vec<f32> = samples.iter().map(|s| normalize_seconds(s.seconds)).collect();
        let mean = ys.iter().sum::<f32>() / ys.len() as f32;
        let var = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f32>() / ys.len() as f32;
        model.set_label_stats(mean, var.sqrt());
    }
    let mut adam = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        adam.lr = cfg.lr * (1.0 - 0.8 * epoch as f32 / cfg.epochs.max(1) as f32);
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(cfg.batch_size) {
            let weight = 1.0 / batch.len() as f32;
            model.store_mut().zero_grads();
            let mut batch_loss = 0.0;
            for &i in batch {
                let s = &samples[i];
                let mut g = Graph::new();
                let loss = model.loss(&mut g, &s.plan, s.seconds);
                batch_loss += g.value(loss).item() as f64;
                let grads = g.backward(loss);
                g.accumulate_grads(&grads, model.store_mut(), weight);
            }
            model.store_mut().clip_grad_norm(cfg.clip_norm);
            adam.step(model.store_mut());
            epoch_loss += batch_loss;
        }
        epoch_losses.push(epoch_loss / samples.len() as f64);
    }
    raal::TrainHistory { epoch_losses, train_seconds: run.elapsed_seconds() }
}

/// Evaluates a TLSTM model against actual costs.
pub fn evaluate_tlstm(
    model: &TlstmModel,
    samples: &[encoding::plan_encoder::Sample],
) -> raal::EvalSet {
    let mut set = raal::EvalSet::new();
    for s in samples {
        set.push(s.seconds, model.predict_seconds(&s.plan));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use encoding::plan_encoder::Sample;

    fn toy_plan(v: f32) -> EncodedPlan {
        EncodedPlan::from_rows(
            &[vec![v; 10], vec![v * 0.5; 10], vec![v * 0.25; 10]],
            &[vec![], vec![], vec![0, 1]],
            [v; PLAN_STAT_FEATURES],
        )
    }

    #[test]
    fn forward_handles_branching_trees() {
        let model = TlstmModel::new(TlstmConfig::new(10));
        let s = model.predict_seconds(&toy_plan(0.5));
        assert!(s.is_finite() && s >= 0.0);
    }

    #[test]
    fn gradients_reach_cell_weights() {
        let model = TlstmModel::new(TlstmConfig::new(10));
        let mut store = model.store().clone();
        let mut g = Graph::new();
        let loss = model.loss(&mut g, &toy_plan(0.7), 30.0);
        let grads = g.backward(loss);
        g.accumulate_grads(&grads, &mut store, 1.0);
        for id in store.ids().collect::<Vec<_>>() {
            assert!(store.grad(id).norm() > 0.0, "dead param {}", store.name(id));
        }
    }

    #[test]
    fn gradcheck_on_a_branching_tree() {
        // Small widths keep the finite-difference sweep fast; node 2 sums
        // the states of two children, node 4 those of a chain and a leaf.
        let dim = 5;
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..dim).map(|j| ((3 * i + 2 * j) % 7) as f32 / 7.0 - 0.4).collect())
            .collect();
        let plan = EncodedPlan::from_rows(
            &rows,
            &[vec![], vec![], vec![0, 1], vec![], vec![2, 3]],
            [0.2; PLAN_STAT_FEATURES],
        );
        let model =
            TlstmModel::new(TlstmConfig { hidden: 4, head_hidden: 5, ..TlstmConfig::new(dim) });
        let mut store = model.store().clone();
        nn::gradcheck::assert_gradients_close(
            &mut store,
            move |g, s| {
                // Rebind the model's forward against the perturbed store.
                let mut m = model.clone();
                *m.store_mut() = s.clone();
                m.loss(g, &plan, 10.0)
            },
            5e-3,
            3e-2,
        );
    }

    #[test]
    fn learns_a_simple_mapping() {
        let samples: Vec<Sample> = (0..48)
            .map(|i| {
                let v = (i % 12) as f32 / 12.0;
                Sample {
                    plan: toy_plan(v),
                    resources: vec![0.5; 7],
                    seconds: 10.0 + 60.0 * v as f64,
                }
            })
            .collect();
        let mut model = TlstmModel::new(TlstmConfig {
            hidden: 12,
            head_hidden: 12,
            ..TlstmConfig::new(10)
        });
        let history = train_tlstm(
            &mut model,
            &samples,
            &raal::TrainConfig {
                epochs: 40,
                lr: 3e-3,
                batch_size: 16,
                ..Default::default()
            },
        );
        assert!(
            history.final_loss() < history.epoch_losses[0] * 0.5,
            "losses: {:?}",
            history.epoch_losses
        );
        let eval = evaluate_tlstm(&model, &samples);
        assert!(eval.correlation() > 0.7, "cor={}", eval.correlation());
    }

    #[test]
    fn predictions_ignore_resources_by_construction() {
        // The API simply has no resource input; this documents the fact.
        let model = TlstmModel::new(TlstmConfig::new(10));
        let p = toy_plan(0.3);
        assert_eq!(model.predict_seconds(&p), model.predict_seconds(&p));
    }
}
