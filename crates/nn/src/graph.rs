//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape of operations built freshly for every training
//! sample (plan sequences have variable length, so static graphs would not
//! help). [`Graph::backward`] walks the tape in reverse and produces a
//! gradient for every node a parameter feeds; [`Graph::accumulate_grads`]
//! then adds the gradients of parameter leaves into a [`ParamStore`].
//!
//! Two rules keep the backward pass at the price of the forward one:
//! *a leaf that no parameter feeds gets no gradient* (nor does anything
//! computed from such leaves alone: [`Gradients::get`] answers `None`),
//! and *a backward rule adds into its target, it does not build and then
//! add* (no transposed weight, outer product or zeroed carrier is built).
//!
//! Every operation's backward rule is validated against central finite
//! differences in `gradcheck` tests, which is the property that makes the
//! hand-written LSTM/attention layers trustworthy.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Tape index of this variable (stable for the graph's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One recorded operation, operands as tape indices ([`Var::index`]).
/// Public only so that a test can differentiate a tape by rules of its
/// own ([`Graph::node`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Op {
    /// Constant leaf (inputs, targets); receives no gradient.
    Input,
    /// Trainable leaf; gradient flows into the parameter store.
    Param(ParamId),
    MatMul(usize, usize),
    Add(usize, usize),
    /// `matrix + row`: broadcasts a `1 x c` row over every row of a `r x c` matrix.
    AddRow(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Scale(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    SoftmaxRows(usize),
    /// Softmax over an `n x 1` column vector.
    SoftmaxCol(usize),
    Transpose(usize),
    ConcatRows(Vec<usize>),
    ConcatCols(Vec<usize>),
    SliceRows(usize, usize, usize),
    SliceCols(usize, usize, usize),
    Sum(usize),
    Mean(usize),
    /// Mean over rows: `r x c -> 1 x c`.
    MeanRows(usize),
    /// Squared-error loss against a constant target, averaged over elements.
    MseLoss(usize, Tensor),
}

struct Node {
    value: Tensor,
    op: Op,
    /// Whether any [`Op::Param`] feeds this node.
    needs_grad: bool,
}

/// A tape of tensor operations supporting reverse-mode differentiation.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

/// Per-node gradients produced by [`Graph::backward`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `v`, if any gradient reached it.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(64) }
    }

    /// Number of nodes recorded on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        // PANIC-FREE: Var indices are only minted by push() on this
        // tape, so v.0 < nodes.len() for any Var the caller can hold.
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        let fed = |i: &usize| self.nodes[*i].needs_grad;
        let needs_grad = match &op {
            Op::Input => false,
            Op::Param(_) => true,
            Op::MatMul(a, b) | Op::Add(a, b) | Op::AddRow(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
                fed(a) || fed(b)
            }
            Op::ConcatRows(parts) | Op::ConcatCols(parts) => parts.iter().any(fed),
            Op::Scale(a, _) | Op::SliceRows(a, ..) | Op::SliceCols(a, ..) | Op::MseLoss(a, _) => {
                fed(a)
            }
            Op::Sigmoid(a) | Op::Tanh(a) | Op::Relu(a) | Op::SoftmaxRows(a) | Op::SoftmaxCol(a) => {
                fed(a)
            }
            Op::Transpose(a) | Op::Sum(a) | Op::Mean(a) | Op::MeanRows(a) => fed(a),
        };
        self.nodes.push(Node { value, op, needs_grad });
        Var(self.nodes.len() - 1)
    }

    /// The operation recorded at tape index `idx`, and its value.
    #[doc(hidden)]
    pub fn node(&self, idx: usize) -> (&Op, &Tensor) {
        (&self.nodes[idx].op, &self.nodes[idx].value)
    }

    /// Registers a constant leaf.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    /// Registers a trainable parameter leaf, copying its current value from
    /// the store. After `backward`, use [`Graph::accumulate_grads`] to flow
    /// gradients back into the same store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Param(id))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// Element-wise sum of two same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Adds a `1 x c` row vector to every row of an `r x c` matrix.
    pub fn add_row(&mut self, m: Var, row: Var) -> Var {
        let mv = &self.nodes[m.0].value;
        let rv = &self.nodes[row.0].value;
        assert_eq!(rv.rows(), 1, "add_row expects a 1 x c row vector");
        assert_eq!(rv.cols(), mv.cols(), "add_row column mismatch");
        let mut out = mv.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let v = out.get(r, c) + rv.get(0, c);
                out.set(r, c, v);
            }
        }
        self.push(out, Op::AddRow(m.0, row.0))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(v, Op::Sub(a.0, b.0))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let v = self.nodes[a.0].value.scale(alpha);
        self.push(v, Op::Scale(a.0, alpha))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::tanh);
        self.push(v, Op::Tanh(a.0))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(v, Op::Relu(a.0))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.softmax_rows();
        self.push(v, Op::SoftmaxRows(a.0))
    }

    /// Softmax over an `n x 1` column vector.
    pub fn softmax_col(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.cols(), 1, "softmax_col expects an n x 1 column");
        let v = av.transpose().softmax_rows().transpose();
        self.push(v, Op::SoftmaxCol(a.0))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(v, Op::Transpose(a.0))
    }

    /// Stacks parts vertically.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|p| &self.nodes[p.0].value).collect();
        let v = Tensor::concat_rows(&tensors);
        self.push(v, Op::ConcatRows(parts.iter().map(|p| p.0).collect()))
    }

    /// Stacks parts horizontally.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|p| &self.nodes[p.0].value).collect();
        let v = Tensor::concat_cols(&tensors);
        self.push(v, Op::ConcatCols(parts.iter().map(|p| p.0).collect()))
    }

    /// Rows `[start, start + len)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let v = self.nodes[a.0].value.slice_rows(start, len);
        self.push(v, Op::SliceRows(a.0, start, len))
    }

    /// Columns `[start, start + len)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let v = self.nodes[a.0].value.slice_cols(start, len);
        self.push(v, Op::SliceCols(a.0, start, len))
    }

    /// Sum of all elements, as a `1 x 1` tensor.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.nodes[a.0].value.sum());
        self.push(v, Op::Sum(a.0))
    }

    /// Mean of all elements, as a `1 x 1` tensor.
    pub fn mean(&mut self, a: Var) -> Var {
        let t = &self.nodes[a.0].value;
        let v = Tensor::scalar(t.sum() / t.len() as f32);
        self.push(v, Op::Mean(a.0))
    }

    /// Column-wise mean over rows: `r x c -> 1 x c`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let t = &self.nodes[a.0].value;
        let (r, c) = t.shape();
        let mut out = Tensor::zeros(1, c);
        for i in 0..r {
            for j in 0..c {
                out.set(0, j, out.get(0, j) + t.get(i, j) / r as f32);
            }
        }
        self.push(out, Op::MeanRows(a.0))
    }

    /// Mean-squared-error loss against a constant target, as `1 x 1`.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let p = &self.nodes[pred.0].value;
        assert_eq!(p.shape(), target.shape(), "mse_loss shape mismatch");
        let n = p.len() as f32;
        let loss = p
            .data()
            .iter()
            .zip(target.data().iter())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            / n;
        self.push(Tensor::scalar(loss), Op::MseLoss(pred.0, target.clone()))
    }

    /// Runs the backward pass from a scalar loss node and returns the
    /// per-node gradients.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.nodes[loss.0].value.shape(), (1, 1), "backward requires a scalar loss");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        if self.nodes[loss.0].needs_grad {
            grads[loss.0] = Some(Tensor::scalar(1.0));
        }

        // Only `add_to` fills a slot, so a constant node is skipped here.
        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            self.backprop_node(idx, &g, &mut grads);
            grads[idx] = Some(g);
        }
        Gradients { grads }
    }

    /// Hands `add` the gradient slot of node `idx` — zeroed on first use —
    /// to add a delta into, unless no parameter feeds the node.
    fn add_to(&self, grads: &mut [Option<Tensor>], idx: usize, add: impl FnOnce(&mut Tensor)) {
        let node = &self.nodes[idx];
        if node.needs_grad {
            let (r, c) = node.value.shape();
            add(grads[idx].get_or_insert_with(|| Tensor::zeros(r, c)));
        }
    }

    fn backprop_node(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        debug_assert_eq!(
            self.nodes[idx].value.shape(),
            g.shape(),
            "gradient shape mismatch at node {idx}"
        );
        let y = &self.nodes[idx].value;
        let value = |i: &usize| &self.nodes[*i].value;
        match &self.nodes[idx].op {
            Op::Input | Op::Param(_) => {}
            Op::MatMul(a, b) => {
                self.add_to(grads, *a, |d| g.add_matmul_nt(value(b), d));
                self.add_to(grads, *b, |d| value(a).add_matmul_tn(g, d));
            }
            Op::Add(a, b) => {
                self.add_to(grads, *a, |d| d.axpy(1.0, g));
                self.add_to(grads, *b, |d| d.axpy(1.0, g));
            }
            Op::AddRow(m, row) => {
                self.add_to(grads, *m, |d| d.axpy(1.0, g));
                self.add_to(grads, *row, |d| {
                    for r in 0..g.rows() {
                        add_block(d, (0, 0), g, (r, 0), (1, g.cols()));
                    }
                });
            }
            Op::Sub(a, b) => {
                self.add_to(grads, *a, |d| d.axpy(1.0, g));
                self.add_to(grads, *b, |d| d.axpy(-1.0, g));
            }
            Op::Mul(a, b) => {
                self.add_to(grads, *a, |d| add_zip(d, g, value(b), |g, b| g * b));
                self.add_to(grads, *b, |d| add_zip(d, g, value(a), |g, a| g * a));
            }
            Op::Scale(a, alpha) => self.add_to(grads, *a, |d| d.axpy(*alpha, g)),
            Op::Sigmoid(a) => {
                self.add_to(grads, *a, |d| add_zip(d, y, g, |y, g| g * y * (1.0 - y)))
            }
            Op::Tanh(a) => self.add_to(grads, *a, |d| add_zip(d, y, g, |y, g| g * (1.0 - y * y))),
            Op::Relu(a) => self.add_to(grads, *a, |d| {
                add_zip(d, value(a), g, |x, g| if x > 0.0 { g } else { 0.0 })
            }),
            Op::SoftmaxRows(a) => {
                self.add_to(grads, *a, |d| add_softmax_backward(d, y, g, y.cols()))
            }
            // An `n x 1` column is laid out like the `1 x n` row.
            Op::SoftmaxCol(a) => self.add_to(grads, *a, |d| add_softmax_backward(d, y, g, y.len())),
            Op::Transpose(a) => self.add_to(grads, *a, |d| {
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        d.set(c, r, d.get(c, r) + g.get(r, c));
                    }
                }
            }),
            Op::ConcatRows(parts) => {
                let mut start = 0;
                for p in parts {
                    let rows = value(p).rows();
                    self.add_to(grads, *p, |d| {
                        add_block(d, (0, 0), g, (start, 0), (rows, g.cols()))
                    });
                    start += rows;
                }
            }
            Op::ConcatCols(parts) => {
                let mut start = 0;
                for p in parts {
                    let cols = value(p).cols();
                    self.add_to(grads, *p, |d| {
                        add_block(d, (0, 0), g, (0, start), (g.rows(), cols))
                    });
                    start += cols;
                }
            }
            Op::SliceRows(a, start, _) => {
                self.add_to(grads, *a, |d| add_block(d, (*start, 0), g, (0, 0), g.shape()))
            }
            Op::SliceCols(a, start, _) => {
                self.add_to(grads, *a, |d| add_block(d, (0, *start), g, (0, 0), g.shape()))
            }
            Op::Sum(a) => {
                self.add_to(grads, *a, |d| d.data_mut().iter_mut().for_each(|d| *d += g.item()))
            }
            Op::Mean(a) => self.add_to(grads, *a, |d| {
                let each = g.item() / d.len() as f32;
                d.data_mut().iter_mut().for_each(|d| *d += each);
            }),
            Op::MeanRows(a) => self.add_to(grads, *a, |d| {
                let rows = d.rows() as f32;
                for row in d.data_mut().chunks_mut(g.cols().max(1)) {
                    for (d, &g) in row.iter_mut().zip(g.data()) {
                        *d += g / rows;
                    }
                }
            }),
            Op::MseLoss(a, target) => self.add_to(grads, *a, |d| {
                let scale = 2.0 * g.item() / d.len() as f32;
                add_zip(d, value(a), target, |p, t| scale * (p - t))
            }),
        }
    }

    /// Adds the gradients of all parameter leaves on this tape into the
    /// store's gradient accumulators (scaled by `weight`, typically
    /// `1 / batch_size`).
    pub fn accumulate_grads(&self, grads: &Gradients, store: &mut ParamStore, weight: f32) {
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Op::Param(id) = node.op {
                if let Some(g) = &grads.grads[idx] {
                    store.grad_mut(id).axpy(weight, g);
                }
            }
        }
    }
}

/// `into[i] += f(x[i], y[i])`.
fn add_zip(into: &mut Tensor, x: &Tensor, y: &Tensor, f: impl Fn(f32, f32) -> f32) {
    assert!(into.shape() == x.shape() && x.shape() == y.shape(), "add_zip shape mismatch");
    for ((d, &x), &y) in into.data_mut().iter_mut().zip(x.data()).zip(y.data()) {
        *d += f(x, y);
    }
}

/// `dst[dr.., dc..] += src[sr.., sc..]` over a `rows x cols` block.
fn add_block(
    dst: &mut Tensor,
    (dr, dc): (usize, usize),
    src: &Tensor,
    (sr, sc): (usize, usize),
    (rows, cols): (usize, usize),
) {
    let (dw, sw) = (dst.cols(), src.cols());
    for r in 0..rows {
        let d = &mut dst.data_mut()[(dr + r) * dw + dc..][..cols];
        for (d, &s) in d.iter_mut().zip(&src.data()[(sr + r) * sw + sc..][..cols]) {
            *d += s;
        }
    }
}

/// Softmax Jacobian-vector product over each `width`-long run of `y`:
/// `dx += y ⊙ (dy − <dy, y>)`.
fn add_softmax_backward(into: &mut Tensor, y: &Tensor, g: &Tensor, width: usize) {
    let runs = y.data().chunks(width.max(1)).zip(g.data().chunks(width.max(1)));
    for (d, (y, g)) in into.data_mut().chunks_mut(width.max(1)).zip(runs) {
        let dot: f32 = y.iter().zip(g).map(|(&a, &b)| a * b).sum();
        for ((d, &y), &g) in d.iter_mut().zip(y).zip(g) {
            *d += y * (g - dot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    /// Registers `t` as a parameter and puts it on the tape: a leaf whose
    /// gradient `backward` reports.
    fn leaf(g: &mut Graph, store: &mut ParamStore, t: Tensor) -> Var {
        let id = store.register(format!("p{}", store.len()), t);
        g.param(store, id)
    }

    #[test]
    fn forward_values_are_recorded() {
        let mut g = Graph::new();
        let a = g.input(Tensor::row(&[1.0, 2.0]));
        let b = g.input(Tensor::col(&[3.0, 4.0]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).item(), 11.0);
    }

    #[test]
    fn backward_through_matmul_chain() {
        // loss = sum(a @ b) with a = [1 2], b = [[3],[4]] => dloss/da = b^T, dloss/db = a^T
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let pa = store.register("a", Tensor::row(&[1.0, 2.0]));
        let pb = store.register("b", Tensor::col(&[3.0, 4.0]));
        let a = g.param(&store, pa);
        let b = g.param(&store, pb);
        let c = g.matmul(a, b);
        let loss = g.sum(c);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[3.0, 4.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[1.0, 2.0]);
        g.accumulate_grads(&grads, &mut store, 1.0);
        assert_eq!(store.grad(pa).data(), &[3.0, 4.0]);
    }

    #[test]
    fn gradient_accumulates_when_var_reused() {
        // loss = sum(x + x) => dloss/dx = 2 everywhere
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let px = store.register("x", Tensor::row(&[1.0, -1.0]));
        let x = g.param(&store, px);
        let y = g.add(x, x);
        let loss = g.sum(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0]);
        g.accumulate_grads(&grads, &mut store, 0.5);
        assert_eq!(store.grad(px).data(), &[1.0, 1.0]);
    }

    #[test]
    fn a_constant_gets_no_gradient() {
        // loss = sum((x @ w) ⊙ c): only `w` is trainable. The inputs, and
        // what is computed from inputs alone, are skipped.
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let x = g.input(Tensor::row(&[1.0, 2.0]));
        let c = g.input(Tensor::row(&[3.0]));
        let c2 = g.scale(c, 2.0);
        let w = leaf(&mut g, &mut store, Tensor::col(&[0.5, -0.5]));
        let xw = g.matmul(x, w);
        let y = g.mul(xw, c2);
        let loss = g.sum(y);
        let grads = g.backward(loss);
        assert!(grads.get(x).is_none() && grads.get(c).is_none() && grads.get(c2).is_none());
        assert_eq!(grads.get(w).unwrap().data(), &[6.0, 12.0]);
        // A loss no parameter feeds has nothing to differentiate.
        let lone = g.sum(c2);
        assert!(g.backward(lone).get(lone).is_none());
    }

    #[test]
    fn two_slices_of_one_node_accumulate_in_place() {
        // loss = sum(x[.., 0..2]) + 3 * sum(x[.., 1..3]) + sum(x[1..2, ..])
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let x = leaf(&mut g, &mut store, Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let left = g.slice_cols(x, 0, 2);
        let right = g.slice_cols(x, 1, 2);
        let right3 = g.scale(right, 3.0);
        let bottom = g.slice_rows(x, 1, 1);
        let parts = [g.sum(left), g.sum(right3), g.sum(bottom)];
        let all = g.concat_cols(&parts);
        let loss = g.sum(all);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[1., 4., 3., 2., 5., 4.]);
    }

    #[test]
    fn matmul_of_a_var_with_itself_accumulates_both_operands() {
        // loss = sum(x @ x) => d/dx = 1·x^T + x^T·1 (row sums + column sums).
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let x = leaf(&mut g, &mut store, Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let xx = g.matmul(x, x);
        let loss = g.sum(xx);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[3. + 4., 7. + 4., 3. + 6., 7. + 6.]);
    }

    #[test]
    fn relu_gates_gradient() {
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let x = leaf(&mut g, &mut store, Tensor::row(&[-1.0, 2.0]));
        let y = g.relu(x);
        let loss = g.sum(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn mse_loss_value_and_gradient() {
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let x = leaf(&mut g, &mut store, Tensor::row(&[1.0, 3.0]));
        let target = Tensor::row(&[0.0, 1.0]);
        let loss = g.mse_loss(x, &target);
        // ((1-0)^2 + (3-1)^2)/2 = 2.5
        assert!((g.value(loss).item() - 2.5).abs() < 1e-6);
        let grads = g.backward(loss);
        // d/dx = 2*(x-t)/n = [1, 2]
        assert_eq!(grads.get(x).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.input(Tensor::row(&[1.0, 2.0]));
        let _ = g.backward(x);
    }

    #[test]
    fn concat_slice_round_trip_gradient() {
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let a = leaf(&mut g, &mut store, Tensor::row(&[1.0, 2.0]));
        let b = leaf(&mut g, &mut store, Tensor::row(&[3.0, 4.0]));
        let cat = g.concat_rows(&[a, b]);
        let top = g.slice_rows(cat, 0, 1);
        let loss = g.sum(top);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[1.0, 1.0]);
        // The bottom slice contributes nothing to the loss: its gradient,
        // scattered back through the concat, is identically zero.
        assert_eq!(grads.get(b).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn sub_and_scale_gradients() {
        // loss = sum(2*(a - b)) => da = 2, db = -2
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let a = leaf(&mut g, &mut store, Tensor::row(&[1.0, 2.0]));
        let b = leaf(&mut g, &mut store, Tensor::row(&[3.0, 5.0]));
        let d = g.sub(a, b);
        let d2 = g.scale(d, 2.0);
        let loss = g.sum(d2);
        assert_eq!(g.value(loss).item(), -10.0);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[-2.0, -2.0]);
    }

    #[test]
    fn softmax_rows_gradient_sums_to_zero_per_row() {
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let x =
            leaf(&mut g, &mut store, Tensor::from_vec(2, 3, vec![0.1, 0.2, 0.3, 1.0, -1.0, 0.0]));
        let s = g.softmax_rows(x);
        let first_col = g.slice_cols(s, 0, 1);
        let loss = g.sum(first_col);
        let grads = g.backward(loss);
        let gx = grads.get(x).unwrap();
        for r in 0..2 {
            let row_sum: f32 = gx.row_slice(r).iter().sum();
            assert!(row_sum.abs() < 1e-6, "row {r} grad sum {row_sum}");
        }
    }

    #[test]
    fn transpose_gradient_round_trips() {
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let x = leaf(&mut g, &mut store, Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let t = g.transpose(x);
        assert_eq!(g.value(t).shape(), (3, 2));
        let loss = g.sum(t);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap(), &Tensor::full(2, 3, 1.0));
    }

    #[test]
    fn softmax_col_is_distribution_and_differentiable() {
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let x = leaf(&mut g, &mut store, Tensor::col(&[0.0, 1.0, 2.0]));
        let s = g.softmax_col(x);
        let sum: f32 = g.value(s).data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        let first = g.slice_rows(s, 0, 1);
        let loss = g.sum(first);
        let grads = g.backward(loss);
        // Gradient of one softmax output w.r.t. logits sums to ~0.
        let gsum: f32 = grads.get(x).unwrap().data().iter().sum();
        assert!(gsum.abs() < 1e-5);
    }
}
