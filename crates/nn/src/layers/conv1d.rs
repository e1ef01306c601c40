//! One-dimensional convolution over a node sequence, used by the RAAC
//! ablation (the paper's CNN variant that replaces the LSTM plan-feature
//! layer).

use crate::graph::{Graph, Var};
use crate::infer::{self, InferArena};
use crate::init;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A "same"-padded 1-D convolution along the row (time) axis of an
/// `n x in_dim` sequence, producing `n x out_dim`. The kernel sees
/// `width` consecutive rows (width must be odd).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv1d {
    w: ParamId,
    b: ParamId,
    /// Input feature dimension (per row).
    pub in_dim: usize,
    /// Output channels.
    pub out_dim: usize,
    /// Kernel width in rows (odd).
    pub width: usize,
}

impl Conv1d {
    /// Registers a convolution's parameters in `store`.
    ///
    /// # Panics
    /// Panics if `width` is even (same-padding needs a symmetric window).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        width: usize,
    ) -> Self {
        assert!(width % 2 == 1, "Conv1d width must be odd, got {width}");
        let w = store.register(format!("{name}.w"), init::he_uniform(rng, width * in_dim, out_dim));
        let b = store.register(format!("{name}.b"), init::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim, width }
    }

    /// Describes the convolution to the static shape checker: declared
    /// dimensions plus the actual registered tensor shapes.
    pub fn shape_stage(&self, store: &ParamStore) -> analysis::shape::Stage {
        let w_name = store.name(self.w);
        let layer = w_name.strip_suffix(".w").unwrap_or(w_name).to_string();
        analysis::shape::Stage::new(
            layer,
            analysis::shape::ShapeOp::Conv1d {
                in_dim: self.in_dim,
                out_dim: self.out_dim,
                width: self.width,
            },
            vec![super::param_shape(store, self.w), super::param_shape(store, self.b)],
        )
    }

    /// Applies the convolution with ReLU to an `n x in_dim` sequence.
    pub fn forward_seq(&self, g: &mut Graph, store: &ParamStore, xs: Var) -> Var {
        let n = g.value(xs).rows();
        assert!(n > 0, "Conv1d sequence must be non-empty");
        assert_eq!(g.value(xs).cols(), self.in_dim, "Conv1d input width mismatch");
        let half = self.width / 2;
        let zero_row = g.input(Tensor::zeros(1, self.in_dim));
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);

        let mut out_rows = Vec::with_capacity(n);
        for t in 0..n {
            // Gather the window rows, zero-padded at the boundaries.
            let mut window = Vec::with_capacity(self.width);
            for offset in 0..self.width {
                let pos = t as isize + offset as isize - half as isize;
                if pos < 0 || pos >= n as isize {
                    window.push(zero_row);
                } else {
                    window.push(g.slice_rows(xs, pos as usize, 1));
                }
            }
            let flat = g.concat_cols(&window); // 1 x (width * in_dim)
            let affine = g.matmul(flat, w);
            let affine = g.add_row(affine, b);
            out_rows.push(g.relu(affine));
        }
        g.concat_rows(&out_rows)
    }

    /// Tape-free equivalent of [`Conv1d::forward_seq`] over `n` rows of
    /// `xs` (row-major, `n * in_dim` long), returning a flat
    /// `n x out_dim` buffer taken from `arena`. The zero-padded window is
    /// assembled into one reused scratch row, so each position is a
    /// single fused affine + ReLU.
    pub fn infer_seq(
        &self,
        store: &ParamStore,
        xs: &[f32],
        n: usize,
        arena: &mut InferArena,
    ) -> Vec<f32> {
        // PANIC-FREE: deliberate input guards; the model constructor
        // fixes in_dim and every serving caller encodes to that width.
        assert!(n > 0, "Conv1d sequence must be non-empty");
        assert_eq!(xs.len(), n * self.in_dim, "Conv1d input length mismatch");
        let _k = telemetry::kernel_span("nn.conv1d_seq");
        let half = self.width / 2;
        let w = store.value(self.w).data();
        let b = store.value(self.b).data();
        let mut flat = arena.take(self.width * self.in_dim);
        let mut out = arena.take(n * self.out_dim);
        for t in 0..n {
            for offset in 0..self.width {
                let pos = t as isize + offset as isize - half as isize;
                // PANIC-FREE: offset < width bounds the flat window
                // slice, and pos is range-checked against [0, n) before
                // the xs slice (whose length is asserted at entry).
                let dst = &mut flat[offset * self.in_dim..(offset + 1) * self.in_dim];
                if pos < 0 || pos >= n as isize {
                    dst.fill(0.0);
                } else {
                    let pos = pos as usize;
                    dst.copy_from_slice(&xs[pos * self.in_dim..(pos + 1) * self.in_dim]);
                }
            }
            // PANIC-FREE: t < n and out has length n * out_dim.
            let row = &mut out[t * self.out_dim..(t + 1) * self.out_dim];
            infer::matmul_into(&flat, 1, self.width * self.in_dim, w, self.out_dim, row);
            for (o, &bias) in row.iter_mut().zip(b.iter()) {
                *o = (*o + bias).max(0.0);
            }
        }
        arena.give(flat);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_padding_preserves_length() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = Conv1d::new(&mut store, &mut rng, "c", 4, 6, 3);
        let mut g = Graph::new();
        let xs = g.input(Tensor::full(5, 4, 0.2));
        let ys = conv.forward_seq(&mut g, &store, xs);
        assert_eq!(g.value(ys).shape(), (5, 6));
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn rejects_even_width() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let _ = Conv1d::new(&mut store, &mut rng, "c", 4, 6, 2);
    }

    #[test]
    fn known_kernel_computes_windowed_sum() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = Conv1d::new(&mut store, &mut rng, "c", 1, 1, 3);
        // Kernel that sums its window: w = [1, 1, 1]^T.
        *store.value_mut(conv.w) = Tensor::col(&[1.0, 1.0, 1.0]);
        *store.value_mut(conv.b) = Tensor::scalar(0.0);
        let mut g = Graph::new();
        let xs = g.input(Tensor::col(&[1.0, 2.0, 3.0]));
        let ys = conv.forward_seq(&mut g, &store, xs);
        // [0+1+2, 1+2+3, 2+3+0] = [3, 6, 5]
        assert_eq!(g.value(ys).data(), &[3.0, 6.0, 5.0]);
    }

    #[test]
    fn infer_seq_tracks_tape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let conv = Conv1d::new(&mut store, &mut rng, "c", 4, 6, 3);
        let xs = Tensor::from_vec(5, 4, (0..20).map(|i| (i as f32 * 0.23).sin()).collect());
        let mut g = Graph::new();
        let xv = g.input(xs.clone());
        let ys = conv.forward_seq(&mut g, &store, xv);
        let mut arena = InferArena::new();
        let fast = conv.infer_seq(&store, xs.data(), 5, &mut arena);
        for (&got, &want) in fast.iter().zip(g.value(ys).data()) {
            assert!((got - want).abs() <= 1e-5, "{got} vs {want}");
        }
    }

    #[test]
    fn gradients_flow_to_kernel() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = Conv1d::new(&mut store, &mut rng, "c", 3, 2, 3);
        // A positive bias guarantees some pre-ReLU activations are positive,
        // so the gradient cannot be killed by an unlucky initialisation.
        *store.value_mut(conv.b) = Tensor::row(&[1.0, 1.0]);
        let mut g = Graph::new();
        let xs = g.input(Tensor::full(4, 3, 0.5));
        let ys = conv.forward_seq(&mut g, &store, xs);
        let loss = g.mean(ys);
        let grads = g.backward(loss);
        g.accumulate_grads(&grads, &mut store, 1.0);
        assert!(store.grad(conv.w).norm() > 0.0);
    }
}
