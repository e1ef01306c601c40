//! Training loop: mini-batch Adam on the normalised-log MSE objective,
//! with multi-threaded gradient computation (samples in a batch are
//! independent define-by-run graphs).

use crate::metrics::EvalSet;
use crate::model::{normalize_seconds, CostModel};
use encoding::plan_encoder::Sample;
use nn::optim::Adam;
use nn::{Graph, ParamStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Worker threads for within-batch parallelism (0 = all cores).
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 15,
            lr: 1e-3,
            batch_size: 32,
            clip_norm: 5.0,
            seed: 7,
            threads: 0,
        }
    }
}

impl TrainConfig {
    /// Worker-thread count after resolving `threads == 0` ("all cores")
    /// against the machine. Falls back to 1 when core discovery fails —
    /// a degraded-but-correct single-worker run beats guessing a count
    /// the container may not have.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Loss trajectory and timing of one training run.
#[derive(Debug, Clone)]
pub struct TrainHistory {
    /// Mean training loss per epoch (normalised-log MSE).
    pub epoch_losses: Vec<f64>,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
}

impl TrainHistory {
    /// Final epoch loss.
    pub fn final_loss(&self) -> f64 {
        *self.epoch_losses.last().unwrap_or(&f64::NAN)
    }
}

/// Trains a model in place on the given samples.
pub fn train(model: &mut CostModel, samples: &[Sample], cfg: &TrainConfig) -> TrainHistory {
    assert!(!samples.is_empty(), "training set must be non-empty");
    let threads = cfg.resolved_threads();
    let mut run = telemetry::span("train.run");
    run.record("epochs", cfg.epochs as u64);
    run.record("batch_size", cfg.batch_size as u64);
    run.record("lr", cfg.lr);
    run.record("threads", threads as u64);
    run.record("samples", samples.len() as u64);
    telemetry::manifest(&[("train_threads", telemetry::Value::UInt(threads as u64))]);
    // Standardise the regression target over the training set: the
    // normalised-log labels live in a narrow band, and z-scoring them
    // speeds convergence dramatically without changing the objective.
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
    // One gradient buffer per worker for the whole run; only the `grad`
    // half of these copies is ever used.
    let mut workers = vec![model.store().clone(); threads.max(1)];
    let mut grad_norm = 0.0;

    for epoch in 0..cfg.epochs {
        let epoch_start_us = telemetry::clock_us();
        // Linear learning-rate decay to 20% of the initial rate.
        let frac = epoch as f32 / cfg.epochs.max(1) as f32;
        adam.lr = cfg.lr * (1.0 - 0.8 * frac);
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut workers_used = 0usize;
        let mut batches = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            let batch_start_ns = telemetry::clock_ns();
            let weight = 1.0 / batch.len() as f32;
            let (batch_loss, used) = batch_gradients(model, samples, batch, weight, &mut workers);
            epoch_loss += batch_loss * batch.len() as f64;
            workers_used += used;
            batches += 1;
            merge_grads(model.store_mut(), &workers[..used]);
            grad_norm = model.store_mut().clip_grad_norm(cfg.clip_norm);
            adam.step(model.store_mut());
            telemetry::observe("train.batch_ns", telemetry::clock_ns() - batch_start_ns);
        }
        epoch_losses.push(epoch_loss / samples.len() as f64);
        // Live registry view of convergence: a stalled or diverging run
        // shows in `raal_train_loss` without waiting for shutdown.
        telemetry::gauge("train.loss", epoch_loss / samples.len() as f64);
        if telemetry::enabled() {
            // Utilisation = workers that actually received samples,
            // relative to the configured pool, averaged over batches.
            let util = workers_used as f64 / (batches.max(1) * threads) as f64;
            telemetry::event(
                "train.epoch",
                &[
                    ("epoch", telemetry::Value::UInt(epoch as u64)),
                    ("loss", telemetry::Value::F64(epoch_loss / samples.len() as f64)),
                    ("lr", telemetry::Value::F64(adam.lr as f64)),
                    ("grad_norm", telemetry::Value::F64(grad_norm as f64)),
                    ("worker_utilization", telemetry::Value::F64(util)),
                    ("epoch_us", telemetry::Value::UInt(telemetry::clock_us() - epoch_start_us)),
                ],
            );
        }
    }
    run.record("final_loss", *epoch_losses.last().unwrap_or(&f64::NAN));
    TrainHistory { epoch_losses, train_seconds: run.elapsed_seconds() }
}

/// Computes a batch's gradients, parallelised over samples: static chunk
/// `j` is summed into `workers[j]`'s zeroed gradient half, so the order
/// of summation is not the scheduler's. Returns (mean loss, workers used).
fn batch_gradients(
    model: &CostModel,
    samples: &[Sample],
    batch: &[usize],
    weight: f32,
    workers: &mut [ParamStore],
) -> (f64, usize) {
    let chunk = batch.len().div_ceil(workers.len());
    let mut total_loss = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .chunks(chunk)
            .zip(workers.iter_mut())
            .map(|(ids, local)| {
                scope.spawn(move || {
                    local.zero_grads();
                    let mut loss_sum = 0.0f64;
                    for &i in ids {
                        let s = &samples[i];
                        let mut g = Graph::new();
                        let loss = model.loss(&mut g, &s.plan, &s.resources, s.seconds);
                        loss_sum += g.value(loss).item() as f64;
                        let grads = g.backward(loss);
                        g.accumulate_grads(&grads, local, weight);
                    }
                    loss_sum
                })
            })
            .collect();
        for h in handles {
            // Re-raise a worker panic with its original payload instead
            // of a generic join failure.
            total_loss += h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    (total_loss / batch.len() as f64, batch.len().div_ceil(chunk))
}

/// Adds the gradients of worker stores into the model's store.
fn merge_grads(store: &mut ParamStore, workers: &[ParamStore]) {
    store.zero_grads();
    let ids: Vec<_> = store.ids().collect();
    for w in workers {
        for &id in &ids {
            store.grad_mut(id).axpy(1.0, w.grad(id));
        }
    }
}

/// Evaluates a model on a test set, pairing actual and predicted seconds.
pub fn evaluate(model: &CostModel, samples: &[Sample]) -> EvalSet {
    let mut set = EvalSet::new();
    for s in samples {
        set.push(s.seconds, model.predict_seconds(&s.plan, &s.resources));
    }
    set
}

/// The transform under which training MSE is measured (and which the
/// paper-style MSE tables should use).
pub fn training_transform(seconds: f64) -> f64 {
    normalize_seconds(seconds) as f64
}

/// Splits samples into (train, test) by shuffling with a seed — the
/// paper's 80/20 split.
pub fn train_test_split(
    samples: Vec<Sample>,
    train_frac: f64,
    seed: u64,
) -> (Vec<Sample>, Vec<Sample>) {
    let mut samples = samples;
    let mut rng = StdRng::seed_from_u64(seed);
    samples.shuffle(&mut rng);
    let cut = ((samples.len() as f64) * train_frac).round() as usize;
    let test = samples.split_off(cut.min(samples.len()));
    (samples, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};

    /// A synthetic task: cost = f(mean of node features, resource[2]).
    fn synthetic_samples(n: usize) -> Vec<Sample> {
        let dim = 10;
        (0..n)
            .map(|i| {
                let v = (i % 17) as f32 / 17.0;
                let r = (i % 5) as f32 / 5.0;
                let node_features = vec![vec![v; dim]; 4];
                let children = [vec![], vec![0], vec![1], vec![2]];
                let mut resources = vec![0.5f32; 7];
                resources[2] = r;
                let seconds = (20.0 * v as f64 + 30.0 * (1.0 - r as f64)) + 5.0;
                Sample {
                    plan: EncodedPlan::from_rows(
                        &node_features,
                        &children,
                        [v; PLAN_STAT_FEATURES],
                    ),
                    resources,
                    seconds,
                }
            })
            .collect()
    }

    #[test]
    fn loss_decreases_on_learnable_task() {
        let samples = synthetic_samples(64);
        let mut model = CostModel::new(ModelConfig {
            hidden: 16,
            latent_k: 8,
            head_hidden: 16,
            ..ModelConfig::raal(10)
        });
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
            threads: 2,
            ..Default::default()
        };
        let history = train(&mut model, &samples, &cfg);
        assert_eq!(history.epoch_losses.len(), 20);
        let first = history.epoch_losses[0];
        let last = history.final_loss();
        assert!(last < first * 0.5, "loss should halve: first={first} last={last}");
    }

    #[test]
    fn evaluation_tracks_learned_function() {
        let samples = synthetic_samples(96);
        let (train_set, test_set) = train_test_split(samples, 0.8, 1);
        assert!((test_set.len() as i64 - 19).abs() <= 1);
        let mut model = CostModel::new(ModelConfig {
            hidden: 16,
            latent_k: 8,
            head_hidden: 16,
            ..ModelConfig::raal(10)
        });
        train(
            &mut model,
            &train_set,
            &TrainConfig {
                epochs: 30,
                batch_size: 16,
                threads: 2,
                ..Default::default()
            },
        );
        let eval = evaluate(&model, &test_set);
        assert!(eval.correlation() > 0.8, "cor={}", eval.correlation());
    }

    #[test]
    fn training_is_deterministic_across_thread_counts() {
        // Gradients are merged additively, so 1 vs 2 threads must agree
        // (up to float addition order inside a parameter, which is fixed).
        let samples = synthetic_samples(16);
        let build = || {
            CostModel::new(ModelConfig {
                hidden: 8,
                latent_k: 4,
                head_hidden: 8,
                ..ModelConfig::raal(10)
            })
        };
        let mut m1 = build();
        let mut m2 = build();
        let cfg1 = TrainConfig {
            epochs: 2,
            batch_size: 8,
            threads: 1,
            ..Default::default()
        };
        let cfg2 = TrainConfig {
            epochs: 2,
            batch_size: 8,
            threads: 2,
            ..Default::default()
        };
        let h1 = train(&mut m1, &samples, &cfg1);
        let h2 = train(&mut m2, &samples, &cfg2);
        assert!((h1.final_loss() - h2.final_loss()).abs() < 1e-4);
        for id in m1.store().ids() {
            let (w1, w2) = (m1.store().value(id).data(), m2.store().value(id).data());
            let worst = w1.iter().zip(w2).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
            assert!(worst <= 1e-6, "{} differs by {worst}", m1.store().name(id));
        }
    }

    #[test]
    fn the_same_config_trains_the_same_bits() {
        // The summation order is fixed by the static chunking, not by
        // which worker finishes first: a served system "built from a
        // fixed seed" is one system.
        let samples = synthetic_samples(24);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            threads: 2,
            ..Default::default()
        };
        let weights = || {
            let mut model = CostModel::new(ModelConfig {
                hidden: 8,
                latent_k: 4,
                head_hidden: 8,
                ..ModelConfig::raal(10)
            });
            let history = train(&mut model, &samples, &cfg);
            let store = model.store();
            let bits: Vec<u32> = store
                .ids()
                .flat_map(|id| store.value(id).data().iter().map(|w| w.to_bits()))
                .collect();
            (bits, history.final_loss().to_bits())
        };
        assert_eq!(weights(), weights());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_panics() {
        let mut model = CostModel::new(ModelConfig::raal(10));
        train(&mut model, &[], &TrainConfig::default());
    }
}
