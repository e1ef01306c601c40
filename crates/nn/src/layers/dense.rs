//! Fully connected layer.

use super::check_param;
use crate::graph::{Graph, Var};
use crate::infer::{self, InferArena};
use crate::init;
use crate::params::{ParamId, ParamStore};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation function applied after the affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// No nonlinearity.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// A dense layer `y = act(x @ W + b)` with `W : in x out`, `b : 1 x out`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: ParamId,
    b: ParamId,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
    /// Post-affine activation.
    pub activation: Activation,
}

impl Dense {
    /// Registers a dense layer's parameters in `store`. Uses He
    /// initialisation for ReLU and Xavier otherwise.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        let w_init = match activation {
            Activation::Relu => init::he_uniform(rng, in_dim, out_dim),
            _ => init::xavier_uniform(rng, in_dim, out_dim),
        };
        let w = store.register(format!("{name}.w"), w_init);
        let b = store.register(format!("{name}.b"), init::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim, activation }
    }

    /// Parameter handles `(weight, bias)`, e.g. for inspection in tests.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }

    /// Checks the layer against its own declared dims, as [`Dense::new`]
    /// registers it under `name`: `{name}.w` is `in_dim x out_dim`,
    /// `{name}.b` is `1 x out_dim`, and neither width is zero.
    pub fn check_params(&self, store: &ParamStore, name: &str) -> Result<(), String> {
        if self.in_dim == 0 || self.out_dim == 0 {
            return Err(format!("{name} maps {} -> {}: a zero width", self.in_dim, self.out_dim));
        }
        check_param(store, self.w, &format!("{name}.w"), (self.in_dim, self.out_dim))?;
        check_param(store, self.b, &format!("{name}.b"), (1, self.out_dim))
    }

    /// Applies the layer to a `batch x in_dim` variable, producing
    /// `batch x out_dim`.
    pub fn forward<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, x: Var) -> Var {
        assert_eq!(g.value(x).cols(), self.in_dim, "dense layer input width mismatch");
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let affine = g.matmul(x, w);
        let affine = g.add_row(affine, b);
        match self.activation {
            Activation::Identity => affine,
            Activation::Relu => g.relu(affine),
            Activation::Sigmoid => g.sigmoid(affine),
            Activation::Tanh => g.tanh(affine),
        }
    }

    /// Tape-free equivalent of [`Dense::forward`]: fused affine + bias +
    /// activation over `rows` row-major input rows, returning a
    /// `rows * out_dim` buffer taken from `arena`. Same accumulation
    /// order as the tape path (bias added after the product); only FMA
    /// contraction and, for sigmoid/tanh, the fast polynomial `exp`
    /// drift from it (~1e-7).
    pub fn infer(
        &self,
        store: &ParamStore,
        x: &[f32],
        rows: usize,
        arena: &mut InferArena,
    ) -> Vec<f32> {
        // The model constructor fixes in_dim and every serving caller
        // encodes to that width.
        assert_eq!(x.len(), rows * self.in_dim, "dense layer input width mismatch");
        let b = store.value(self.b).data();
        let mut out = arena.take(rows * self.out_dim);
        let w = store.value(self.w).data();
        infer::matmul_into(x, rows, self.in_dim, w, self.out_dim, &mut out);
        for r in 0..rows {
            let row = &mut out[r * self.out_dim..(r + 1) * self.out_dim];
            for (o, &bias) in row.iter_mut().zip(b.iter()) {
                *o += bias;
            }
        }
        infer::activate(&mut out, self.activation);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(&mut store, &mut rng, "d", 3, 2, Activation::Identity);
        let (w, b) = layer.params();
        *store.value_mut(w) = Tensor::from_vec(3, 2, vec![1., 0., 0., 1., 0., 0.]);
        *store.value_mut(b) = Tensor::row(&[10., 20.]);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (2, 2));
        assert_eq!(g.value(y).data(), &[11., 22., 14., 25.]);
    }

    #[test]
    fn relu_activation_clamps() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(&mut store, &mut rng, "d", 1, 1, Activation::Relu);
        *store.value_mut(layer.params().0) = Tensor::scalar(1.0);
        let mut g = Graph::new();
        let x = g.input(Tensor::scalar(-5.0));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).item(), 0.0);
    }

    #[test]
    fn infer_tracks_tape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        for act in [Activation::Identity, Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let layer = Dense::new(&mut store, &mut rng, "d", 6, 3, act);
            let x = Tensor::from_vec(2, 6, (0..12).map(|i| (i as f32 * 0.31).cos()).collect());
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = layer.forward(&mut g, &store, xv);
            let mut arena = InferArena::new();
            let fast = layer.infer(&store, x.data(), 2, &mut arena);
            for (&got, &want) in fast.iter().zip(g.value(y).data()) {
                assert!((got - want).abs() <= 1e-5, "{act:?}: {got} vs {want}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_input_width() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(&mut store, &mut rng, "d", 3, 2, Activation::Identity);
        let mut g = Graph::new();
        let x = g.input(Tensor::row(&[1.0, 2.0]));
        let _ = layer.forward(&mut g, &store, x);
    }
}
