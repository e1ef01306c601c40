//! Long Short-Term Memory cell and sequence runner.
//!
//! Implements the standard LSTM equations of the paper's Sec. IV-D (plan
//! feature layer): gates `[i, f, g, o]` computed from `x @ Wx + h @ Wh + b`,
//! with `c' = f ⊙ c + i ⊙ g` and `h' = o ⊙ tanh(c')`.

use crate::graph::{Graph, Op, Var};
use crate::infer::{self, InferArena};
use crate::init;
use crate::params::{ParamId, ParamStore};
use crate::tensor::{matmul_tn, Tensor};
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
/// weights are put on the tape once per sample rather than per step.
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

    /// Puts the cell's parameters on `g`'s tape for use in a sequence.
    pub fn bind<'a, 'p>(&'a self, g: &mut Graph<'p>, store: &'p ParamStore) -> BoundLstm<'a> {
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
    pub fn forward_seq<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, xs: Var) -> Var {
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

    /// The training forward: the whole sequence as **one** tape node,
    /// computed by [`LstmCell::infer_seq`]'s kernels (one hoisted
    /// `xs @ Wx` product, then the step loop) and keeping what the
    /// hand-written BPTT ([`LstmTape`]) reads: each step's activated
    /// gates and cell state. The weights are borrowed from `store`, and
    /// `xs` must be a constant (an input leaf): no gradient flows to it.
    /// Values track [`LstmCell::forward_seq`]'s step ops to ~1e-6.
    pub fn forward_fused<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, xs: Var) -> Var {
        let (n, in_dim) = g.value(xs).shape();
        assert!(n > 0, "LSTM sequence must be non-empty");
        assert_eq!(in_dim, self.in_dim, "LSTM input width mismatch");
        assert!(g.is_constant(xs), "the fused LSTM forms no input gradient");
        let hidden = self.hidden;
        let mut gates = vec![0.0; n * 4 * hidden];
        let mut out = vec![0.0; n * hidden];
        let mut cells = vec![0.0; n * hidden];
        let mut tanh_cells = vec![0.0; n * hidden];
        let mut scratch = vec![0.0; 7 * hidden];
        let (h, rest) = scratch.split_at_mut(hidden);
        let (c, rest) = rest.split_at_mut(hidden);
        let (hz, ct) = rest.split_at_mut(4 * hidden);
        self.recur(
            store,
            g.value(xs).data(),
            n,
            [h, c, hz, ct],
            &mut gates,
            &mut out,
            |t, c, ct| {
                cells[t * hidden..(t + 1) * hidden].copy_from_slice(c);
                tanh_cells[t * hidden..(t + 1) * hidden].copy_from_slice(ct);
            },
        );
        let tape = LstmTape {
            x: xs.index(),
            wx: g.param(store, self.wx).index(),
            wh: g.param(store, self.wh).index(),
            b: g.param(store, self.b).index(),
            gates,
            cells,
            tanh_cells,
        };
        g.push(Tensor::from_vec(n, hidden, out), Op::Lstm(Box::new(tape)))
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

        let mut h = arena.take(hidden);
        let mut c = arena.take(hidden);
        let mut xz_all = arena.take(n * gates);
        let mut hz = arena.take(gates);
        let mut ct = arena.take(hidden);
        let mut out = arena.take(n * hidden);
        let scratch = [&mut h[..], &mut c[..], &mut hz[..], &mut ct[..]];
        self.recur(store, xs, n, scratch, &mut xz_all, &mut out, |_, _, _| {});
        arena.give(h);
        arena.give(c);
        arena.give(xz_all);
        arena.give(hz);
        arena.give(ct);
        out
    }

    /// The recurrence both [`LstmCell::infer_seq`] and
    /// [`LstmCell::forward_fused`] run, from zero state: `xz_all`
    /// (`n x 4*hidden`) ends holding each step's activated gates, `out`
    /// (`n x hidden`) the hidden states, and `keep(t, c_t, tanh(c_t))`
    /// sees each step's cell state. `scratch` is `[h, c, hz, ct]`, zeroed.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn recur(
        &self,
        store: &ParamStore,
        xs: &[f32],
        n: usize,
        [h, c, hz, ct]: [&mut [f32]; 4],
        xz_all: &mut [f32],
        out: &mut [f32],
        mut keep: impl FnMut(usize, &[f32], &[f32]),
    ) {
        let hidden = self.hidden;
        let gates = 4 * hidden;
        let wx = store.value(self.wx).data();
        let wh = store.value(self.wh).data();
        let b = store.value(self.b).data();
        // The input projection does not depend on the recurrence: one
        // product for the whole plan streams `Wx` once, not once per node.
        infer::matmul_into(xs, n, self.in_dim, wx, gates, xz_all);
        for t in 0..n {
            let xz = &mut xz_all[t * gates..(t + 1) * gates];
            infer::matmul_into(h, 1, hidden, wh, gates, hz);
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
            ct.copy_from_slice(c);
            infer::tanh_slice(ct);
            for j in 0..hidden {
                h[j] = xz[3 * hidden + j] * ct[j];
            }
            out[t * hidden..(t + 1) * hidden].copy_from_slice(h);
            keep(t, c, ct);
        }
    }
}

/// What the fused LSTM node ([`LstmCell::forward_fused`]) keeps for its
/// backward pass: tape indices of its operands and, per step, the
/// activated gates `[i, f, g, o]` and the cell state before and after
/// `tanh`. Public only because [`Op`] is.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct LstmTape {
    x: usize,
    wx: usize,
    wh: usize,
    b: usize,
    /// `n x 4*hidden`.
    gates: Vec<f32>,
    /// `c_t`, `n x hidden`.
    cells: Vec<f32>,
    /// `tanh(c_t)`, `n x hidden`.
    tanh_cells: Vec<f32>,
}

impl LstmTape {
    pub(crate) fn inputs(&self) -> [usize; 3] {
        [self.wx, self.wh, self.b]
    }

    /// Backpropagation through time. Walking the steps backwards, the
    /// gradient reaching `h_t` (from above, plus `dz_{t+1} @ Whᵀ` from
    /// the next step) and `c_t` gives the pre-activation gradient `dz_t`
    /// elementwise; `dz_t @ Whᵀ` is one `m = 1` product, a dot against
    /// each row of `Wh` ([`infer::dot_rows`]). The weight gradients are then one
    /// product each: `dWx += Xᵀ·dZ`, `dWh += H_prevᵀ·dZ` (`H_prev` is
    /// the hidden states shifted down a step; `h_{-1} = 0`) and
    /// `db += Σ_t dz_t`. `X` is a constant, so `dX` is never formed.
    pub(crate) fn backward(
        &self,
        tape: &Graph<'_>,
        hs: &Tensor,
        dhs: &Tensor,
        grads: &mut [Option<Tensor>],
    ) {
        let (n, hidden) = hs.shape();
        let gates = 4 * hidden;
        let wh = tape.node(self.wh).1.data();
        let mut dz = vec![0.0f32; n * gates];
        // Gradients reaching h_t and c_t from step t + 1; c_{-1} = 0.
        let mut dh_next = vec![0.0f32; hidden];
        let mut dc_next = vec![0.0f32; hidden];
        let zeros = vec![0.0f32; hidden];
        for t in (0..n).rev() {
            let a = &self.gates[t * gates..(t + 1) * gates];
            let (i, f) = (&a[..hidden], &a[hidden..2 * hidden]);
            let (g, o) = (&a[2 * hidden..3 * hidden], &a[3 * hidden..]);
            let tc = &self.tanh_cells[t * hidden..(t + 1) * hidden];
            let c_prev = match t {
                0 => &zeros[..],
                _ => &self.cells[(t - 1) * hidden..t * hidden],
            };
            let up = dhs.row_slice(t);
            let dz_t = &mut dz[t * gates..(t + 1) * gates];
            let (dz_if, dz_go) = dz_t.split_at_mut(2 * hidden);
            let (dz_i, dz_f) = dz_if.split_at_mut(hidden);
            let (dz_g, dz_o) = dz_go.split_at_mut(hidden);
            for j in 0..hidden {
                let dh = up[j] + dh_next[j];
                let dc = dc_next[j] + dh * o[j] * (1.0 - tc[j] * tc[j]);
                dz_i[j] = dc * g[j] * i[j] * (1.0 - i[j]);
                dz_f[j] = dc * c_prev[j] * f[j] * (1.0 - f[j]);
                dz_g[j] = dc * i[j] * (1.0 - g[j] * g[j]);
                dz_o[j] = dh * tc[j] * o[j] * (1.0 - o[j]);
                dc_next[j] = dc * f[j];
            }
            if t > 0 {
                infer::dot_rows(wh, dz_t, &mut dh_next);
            }
        }
        let x = tape.node(self.x).1;
        tape.put(grads, self.wx, || matmul_tn(x.data(), n, x.cols(), &dz, gates));
        let h_prev = &hs.data()[..(n - 1) * hidden];
        tape.put(grads, self.wh, || matmul_tn(h_prev, n - 1, hidden, &dz[gates..], gates));
        tape.add_to(grads, self.b, |d| {
            for dz_t in dz.chunks(gates) {
                infer::axpy(d.data_mut(), 1.0, dz_t);
            }
        });
    }
}

impl BoundLstm<'_> {
    /// One LSTM step: `(h, c) -> (h', c')` for a `1 x in_dim` input.
    pub fn step(&self, g: &mut Graph<'_>, x: Var, h: Var, c: Var) -> (Var, Var) {
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
        grads.accumulate(&mut store, 1.0);
        for id in store.ids().collect::<Vec<_>>() {
            assert!(store.grad(id).norm() > 0.0, "no gradient reached {}", store.name(id));
        }
    }

    /// Both forwards under one loss: squared error against a fixed
    /// `n x hidden` target, so every step's hidden state gets its own
    /// upstream gradient. Returns the hidden states and the parameter
    /// gradients.
    fn hidden_and_grads(
        cell: &LstmCell,
        store: &ParamStore,
        xs: &Tensor,
        fused: bool,
    ) -> (Tensor, ParamStore) {
        let (n, hidden) = (xs.rows(), cell.hidden);
        let target =
            Tensor::from_vec(n, hidden, (0..n * hidden).map(|i| (i as f32 * 0.3).cos()).collect());
        let mut g = Graph::new();
        let x = g.input(xs.clone());
        let hs = match fused {
            true => cell.forward_fused(&mut g, store, x),
            false => cell.forward_seq(&mut g, store, x),
        };
        let loss = g.mse_loss(hs, &target);
        let hs = g.value(hs).clone();
        let mut grads = store.clone();
        grads.zero_grads();
        g.backward(loss).accumulate(&mut grads, 1.0);
        (hs, grads)
    }

    #[test]
    fn forward_fused_runs_the_infer_kernels_and_passes_gradcheck() {
        // One node, and a chain long enough to carry state back.
        for n in [1, 4] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(31 + n as u64);
            let cell = LstmCell::new(&mut store, &mut rng, "lstm", 3, 4);
            let xs = Tensor::from_vec(n, 3, (0..n * 3).map(|i| (i as f32 * 0.7).sin()).collect());
            let target =
                Tensor::from_vec(n, 4, (0..n * 4).map(|i| 0.5 * (i as f32 * 0.3).cos()).collect());
            crate::gradcheck::assert_gradients_close(
                &mut store,
                |g, s| {
                    let x = g.input(xs.clone());
                    let hs = cell.forward_fused(g, s, x);
                    g.mse_loss(hs, &target)
                },
                5e-3,
                2e-2,
            );
        }
    }

    #[test]
    fn forward_fused_runs_the_infer_kernels_and_tracks_the_step_tape() {
        // The fused node's hidden states are `infer_seq`'s bits; against
        // the per-step ops they drift by the kernels' ~1e-6, and so do the
        // gradients: within 1e-4 of each parameter's largest entry.
        let (in_dim, hidden, lengths) = if cfg!(miri) {
            (5, 4, vec![1, 3])
        } else {
            (94, 64, vec![1, 2, 7, 19])
        };
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(29);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", in_dim, hidden);
        let mut arena = InferArena::new();
        for n in lengths {
            let xs = Tensor::from_vec(
                n,
                in_dim,
                (0..n * in_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            );
            let (fused, fused_grads) = hidden_and_grads(&cell, &store, &xs, true);
            let (steps, step_grads) = hidden_and_grads(&cell, &store, &xs, false);
            let served = cell.infer_seq(&store, xs.data(), n, &mut arena);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fused.data()), bits(&served), "n = {n}");
            for (&got, &want) in fused.data().iter().zip(steps.data()) {
                assert!((got - want).abs() <= 1e-5, "n = {n}: {got} drifted from {want}");
            }
            for id in store.ids() {
                let (got, want) = (fused_grads.grad(id), step_grads.grad(id));
                let scale = want.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
                // One step reads `Wh` only against the zero initial state.
                let reached = n > 1 || id != cell.wh;
                assert_eq!(scale > 0.0, reached, "n = {n}: {} gradient {scale}", store.name(id));
                for (&a, &b) in got.data().iter().zip(want.data()) {
                    assert!(
                        (a - b).abs() <= 1e-4 * scale,
                        "n = {n}, {}: {a} vs {b}",
                        store.name(id)
                    );
                }
            }
            arena.give(served);
        }
    }
}
