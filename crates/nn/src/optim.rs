//! First-order optimizers operating on a [`ParamStore`].

use crate::params::ParamStore;

/// Plain stochastic gradient descent with optional weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay coefficient (0 disables it).
    pub weight_decay: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate and no decay.
    pub fn new(lr: f32) -> Self {
        Self { lr, weight_decay: 0.0 }
    }

    /// Applies one update `w ← w − lr · (g + wd · w)` to every parameter,
    /// consuming the accumulated gradients (which are then zeroed).
    pub fn step(&self, store: &mut ParamStore) {
        let ids: Vec<_> = store.ids().collect();
        for id in ids {
            let (value, grad, _m, _v) = store.entry_mut(id);
            let lr = self.lr;
            let wd = self.weight_decay;
            for (w, &g) in value.data_mut().iter_mut().zip(grad.data().iter()) {
                *w -= lr * (g + wd * *w);
            }
        }
        store.zero_grads();
    }
}

/// Adam (Kingma & Ba) with bias correction, the optimizer the paper's
/// PyTorch implementation would default to.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight decay coefficient (0 disables it).
    pub weight_decay: f32,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with standard moments (0.9 / 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to every parameter, consuming the
    /// accumulated gradients (which are then zeroed).
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<_> = store.ids().collect();
        for id in ids {
            let (value, grad, m, v) = store.entry_mut(id);
            for i in 0..value.len() {
                let g = grad.data()[i] + self.weight_decay * value.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    /// Minimises (w - 3)^2; both optimizers must converge to w = 3.
    fn quadratic_descent(use_adam: bool) -> f32 {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(0.0));
        let mut adam = Adam::new(0.1);
        let sgd = Sgd::new(0.1);
        for _ in 0..300 {
            let mut g = Graph::new();
            let wv = g.param(&store, w);
            let loss = g.mse_loss(wv, &Tensor::scalar(3.0));
            let grads = g.backward(loss);
            grads.accumulate(&mut store, 1.0);
            if use_adam {
                adam.step(&mut store);
            } else {
                sgd.step(&mut store);
            }
        }
        store.value(w).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!((quadratic_descent(false) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!((quadratic_descent(true) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(1.0));
        store.grad_mut(w).axpy(1.0, &Tensor::scalar(2.0));
        Sgd::new(0.1).step(&mut store);
        assert_eq!(store.grad(w).data(), &[0.0]);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(10.0));
        let sgd = Sgd { lr: 0.1, weight_decay: 0.5 };
        // Zero gradient: only decay acts.
        sgd.step(&mut store);
        assert!((store.value(w).item() - 9.5).abs() < 1e-6);
    }
}
