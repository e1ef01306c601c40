//! Long Short-Term Memory cell and sequence runner.
//!
//! Implements the standard LSTM equations of the paper's Sec. IV-D (plan
//! feature layer): gates `[i, f, g, o]` computed from `x @ Wx + h @ Wh + b`,
//! with `c' = f ⊙ c + i ⊙ g` and `h' = o ⊙ tanh(c')`.

use crate::graph::{Graph, Var};
use crate::infer::{self, InferArena};
use crate::init;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of a single-layer LSTM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden-state dimension.
    pub hidden: usize,
}

/// Parameter variables of an [`LstmCell`] bound to one graph, so the
/// weights are copied onto the tape once per sample rather than per step.
pub struct BoundLstm<'a> {
    cell: &'a LstmCell,
    wx: Var,
    wh: Var,
    b: Var,
}

impl LstmCell {
    /// Registers a cell's parameters in `store`. The bias layout is
    /// `[input, forget, cell, output]` with the forget block set to 1.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let wx =
            store.register(format!("{name}.wx"), init::xavier_uniform(rng, in_dim, 4 * hidden));
        let wh =
            store.register(format!("{name}.wh"), init::xavier_uniform(rng, hidden, 4 * hidden));
        let b = store.register(format!("{name}.b"), init::lstm_bias(hidden));
        Self { wx, wh, b, in_dim, hidden }
    }

    /// Checks the cell against its own declared dims, as [`LstmCell::new`]
    /// registers it under `name`: `{name}.wx` is `in_dim x 4*hidden`,
    /// `{name}.wh` is `hidden x 4*hidden`, `{name}.b` is `1 x 4*hidden`,
    /// and neither width is zero. A deserialised cell's ids and dims come
    /// from the checkpoint, so it is checked before it runs.
    pub fn check_params(&self, store: &ParamStore, name: &str) -> Result<(), String> {
        if self.in_dim == 0 || self.hidden == 0 {
            return Err(format!("{name} maps {} -> {}: a zero width", self.in_dim, self.hidden));
        }
        // Saturating: a width that overflows matches no tensor.
        let gates = self.hidden.saturating_mul(4);
        super::check_param(store, self.wx, &format!("{name}.wx"), (self.in_dim, gates))?;
        super::check_param(store, self.wh, &format!("{name}.wh"), (self.hidden, gates))?;
        super::check_param(store, self.b, &format!("{name}.b"), (1, gates))
    }

    /// Copies the cell's parameters onto `g`'s tape for use in a sequence.
    pub fn bind<'a>(&'a self, g: &mut Graph, store: &ParamStore) -> BoundLstm<'a> {
        BoundLstm {
            cell: self,
            wx: g.param(store, self.wx),
            wh: g.param(store, self.wh),
            b: g.param(store, self.b),
        }
    }

    /// Runs the cell over a sequence packed as an `n x in_dim` matrix
    /// (row `t` is the input at step `t`), starting from zero state.
    /// Returns the `n x hidden` matrix of hidden states.
    pub fn forward_seq(&self, g: &mut Graph, store: &ParamStore, xs: Var) -> Var {
        let n = g.value(xs).rows();
        assert!(n > 0, "LSTM sequence must be non-empty");
        assert_eq!(g.value(xs).cols(), self.in_dim, "LSTM input width mismatch");
        let bound = self.bind(g, store);
        let mut h = g.input(Tensor::zeros(1, self.hidden));
        let mut c = g.input(Tensor::zeros(1, self.hidden));
        let mut hs = Vec::with_capacity(n);
        for t in 0..n {
            let x_t = g.slice_rows(xs, t, 1);
            let (nh, nc) = bound.step(g, x_t, h, c);
            h = nh;
            c = nc;
            hs.push(h);
        }
        g.concat_rows(&hs)
    }

    /// Tape-free equivalent of [`LstmCell::forward_seq`]: runs the cell
    /// over `n` rows of `xs` (row-major, `n * in_dim` long) and returns
    /// the `n x hidden` hidden states as a flat buffer taken from
    /// `arena`. The input projection `xs @ Wx` is one product for the
    /// whole sequence, ahead of the recurrence (it streams `Wx` once per
    /// plan and skips the encoder's zero columns, see [`crate::infer`]);
    /// a step then adds `h @ Wh` and the bias into its row and runs all
    /// four gates in block-wise sweeps through the SIMD kernels.
    /// Accumulation order matches the graph ops, so the result tracks
    /// the tape path to within the FMA / polynomial-`exp` drift (~1e-6
    /// absolute), and is bit-equal to projecting step by step.
    pub fn infer_seq(
        &self,
        store: &ParamStore,
        xs: &[f32],
        n: usize,
        arena: &mut InferArena,
    ) -> Vec<f32> {
        // The model constructor fixes in_dim and every serving caller
        // encodes to that width.
        assert!(n > 0, "LSTM sequence must be non-empty");
        assert_eq!(xs.len(), n * self.in_dim, "LSTM input length mismatch");
        let hidden = self.hidden;
        let gates = 4 * hidden;
        let wx = store.value(self.wx).data();
        let wh = store.value(self.wh).data();
        let b = store.value(self.b).data();

        let mut h = arena.take(hidden);
        let mut c = arena.take(hidden);
        let mut xz_all = arena.take(n * gates);
        let mut hz = arena.take(gates);
        let mut ct = arena.take(hidden);
        let mut out = arena.take(n * hidden);
        // The input projection does not depend on the recurrence: one
        // product for the whole plan streams `Wx` once, not once per node.
        infer::matmul_into(xs, n, self.in_dim, wx, gates, &mut xz_all);
        for t in 0..n {
            let xz = &mut xz_all[t * gates..(t + 1) * gates];
            infer::matmul_into(&h, 1, hidden, wh, gates, &mut hz);
            // z = (x@Wx + h@Wh) + b, associated exactly like the tape.
            for j in 0..gates {
                xz[j] = (xz[j] + hz[j]) + b[j];
            }
            // Gate layout [i, f, g, o]: sigmoid the contiguous [i, f]
            // block, tanh the candidate, sigmoid the output gate — three
            // vectorised sweeps instead of four scalar calls per lane.
            infer::sigmoid_slice(&mut xz[..2 * hidden]);
            infer::tanh_slice(&mut xz[2 * hidden..3 * hidden]);
            infer::sigmoid_slice(&mut xz[3 * hidden..]);
            for j in 0..hidden {
                c[j] = xz[hidden + j] * c[j] + xz[j] * xz[2 * hidden + j];
            }
            ct.copy_from_slice(&c);
            infer::tanh_slice(&mut ct);
            for j in 0..hidden {
                h[j] = xz[3 * hidden + j] * ct[j];
            }
            out[t * hidden..(t + 1) * hidden].copy_from_slice(&h);
        }
        arena.give(h);
        arena.give(c);
        arena.give(xz_all);
        arena.give(hz);
        arena.give(ct);
        out
    }
}

impl BoundLstm<'_> {
    /// One LSTM step: `(h, c) -> (h', c')` for a `1 x in_dim` input.
    pub fn step(&self, g: &mut Graph, x: Var, h: Var, c: Var) -> (Var, Var) {
        let hidden = self.cell.hidden;
        let xz = g.matmul(x, self.wx);
        let hz = g.matmul(h, self.wh);
        let z = g.add(xz, hz);
        let z = g.add_row(z, self.b);
        let i_gate = g.slice_cols(z, 0, hidden);
        let f_gate = g.slice_cols(z, hidden, hidden);
        let g_gate = g.slice_cols(z, 2 * hidden, hidden);
        let o_gate = g.slice_cols(z, 3 * hidden, hidden);
        let i = g.sigmoid(i_gate);
        let f = g.sigmoid(f_gate);
        let g_cand = g.tanh(g_gate);
        let o = g.sigmoid(o_gate);
        let fc = g.mul(f, c);
        let ig = g.mul(i, g_cand);
        let c_new = g.add(fc, ig);
        let c_act = g.tanh(c_new);
        let h_new = g.mul(o, c_act);
        (h_new, c_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequence_output_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 5, 8);
        let mut g = Graph::new();
        let xs = g.input(Tensor::full(4, 5, 0.1));
        let hs = cell.forward_seq(&mut g, &store, xs);
        assert_eq!(g.value(hs).shape(), (4, 8));
        assert!(g.value(hs).all_finite());
    }

    #[test]
    fn hidden_states_bounded_by_tanh() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 2, 4);
        let mut g = Graph::new();
        let xs = g.input(Tensor::full(6, 2, 100.0)); // extreme inputs
        let hs = cell.forward_seq(&mut g, &store, xs);
        assert!(g.value(hs).data().iter().all(|&x| x.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn state_carries_information_across_steps() {
        // Same input at every step must not produce identical hidden states
        // at steps 1 and 2 (the recurrent path is active).
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 3, 6);
        let mut g = Graph::new();
        let xs = g.input(Tensor::full(3, 3, 0.5));
        let hs = cell.forward_seq(&mut g, &store, xs);
        let h0 = g.value(hs).row_slice(0).to_vec();
        let h1 = g.value(hs).row_slice(1).to_vec();
        assert_ne!(h0, h1);
    }

    #[test]
    fn infer_seq_tracks_tape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 5, 8);
        let xs = Tensor::from_vec(4, 5, (0..20).map(|i| (i as f32 * 0.17).sin()).collect());
        let mut g = Graph::new();
        let xv = g.input(xs.clone());
        let hs = cell.forward_seq(&mut g, &store, xv);
        let mut arena = InferArena::new();
        let fast = cell.infer_seq(&store, xs.data(), 4, &mut arena);
        for (&got, &want) in fast.iter().zip(g.value(hs).data()) {
            assert!((got - want).abs() <= 1e-5, "fast {got} drifted from tape {want}");
        }
    }

    /// `infer_seq` as it read while the input projection ran inside the
    /// recurrence, one `m = 1` product per step.
    fn step_loop(cell: &LstmCell, store: &ParamStore, xs: &[f32], n: usize) -> Vec<f32> {
        let (hidden, gates) = (cell.hidden, 4 * cell.hidden);
        let (wx, wh) = (store.value(cell.wx).data(), store.value(cell.wh).data());
        let b = store.value(cell.b).data();
        let (mut h, mut c) = (vec![0.0; hidden], vec![0.0; hidden]);
        let (mut xz, mut hz) = (vec![0.0; gates], vec![0.0; gates]);
        let mut out = Vec::with_capacity(n * hidden);
        for x_t in xs.chunks(cell.in_dim) {
            infer::matmul_into(x_t, 1, cell.in_dim, wx, gates, &mut xz);
            infer::matmul_into(&h, 1, hidden, wh, gates, &mut hz);
            for j in 0..gates {
                xz[j] = (xz[j] + hz[j]) + b[j];
            }
            infer::sigmoid_slice(&mut xz[..2 * hidden]);
            infer::tanh_slice(&mut xz[2 * hidden..3 * hidden]);
            infer::sigmoid_slice(&mut xz[3 * hidden..]);
            for j in 0..hidden {
                c[j] = xz[hidden + j] * c[j] + xz[j] * xz[2 * hidden + j];
            }
            let mut ct = c.clone();
            infer::tanh_slice(&mut ct);
            for j in 0..hidden {
                h[j] = xz[3 * hidden + j] * ct[j];
            }
            out.extend_from_slice(&h);
        }
        out
    }

    #[test]
    fn infer_seq_hoisted_gemm_is_bit_equal_to_the_step_loop() {
        // The served shape, on rows shaped like the plan encoder's: 32
        // dense embedding entries, a 12-wide one-hot, 48 signed structure
        // entries (a parent's +1, the children's -1, else zero), 2 stats.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(23);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 94, 64);
        let mut arena = InferArena::new();
        let lengths = if cfg!(miri) {
            vec![1, 2, 7]
        } else {
            (1..=34).collect::<Vec<usize>>()
        };
        for n in lengths {
            let mut xs = vec![0.0f32; n * 94];
            for (t, row) in xs.chunks_mut(94).enumerate() {
                row[..32].fill_with(|| rng.gen_range(-1.0f32..1.0));
                row[32 + rng.gen_range(0..12usize)] = 1.0;
                if t > 0 {
                    row[44 + t - 1] = 1.0;
                }
                if t + 1 < n {
                    row[44 + t + 1] = -1.0;
                }
                row[92..].fill_with(|| rng.gen_range(0.0f32..1.0));
            }
            let fast = cell.infer_seq(&store, &xs, n, &mut arena);
            let want = step_loop(&cell, &store, &xs, n);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&want), "n = {n}");
            if !cfg!(miri) {
                let mut g = Graph::new();
                let xv = g.input(Tensor::from_vec(n, 94, xs));
                let hs = cell.forward_seq(&mut g, &store, xv);
                for (&got, &tape) in fast.iter().zip(g.value(hs).data()) {
                    assert!((got - tape).abs() <= 1e-5, "n = {n}: {got} drifted from {tape}");
                }
            }
            arena.give(fast);
        }
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 3, 4);
        let mut g = Graph::new();
        let xs = g.input(Tensor::full(3, 3, 0.3));
        let hs = cell.forward_seq(&mut g, &store, xs);
        let loss = g.mean(hs);
        let grads = g.backward(loss);
        g.accumulate_grads(&grads, &mut store, 1.0);
        for id in store.ids().collect::<Vec<_>>() {
            assert!(store.grad(id).norm() > 0.0, "no gradient reached {}", store.name(id));
        }
    }
}
