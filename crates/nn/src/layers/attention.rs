//! Dot-product attention primitives used by RAAL's node-aware and
//! resource-aware attention layers (paper Eq. 8–11).

use crate::graph::{Graph, Op, Var};
use crate::infer;
use crate::tensor::Tensor;

/// Scaled dot-product attention of a single query over a set of keys and
/// values.
///
/// * `query` — `1 x k`
/// * `keys` — `m x k`
/// * `values` — `m x h`
///
/// Returns the `1 x h` context `softmax(keys @ queryᵀ / sqrt(k))ᵀ @ values`.
pub fn dot_attention(g: &mut Graph<'_>, query: Var, keys: Var, values: Var) -> Var {
    let k = g.value(query).cols();
    assert_eq!(g.value(keys).cols(), k, "attention key width mismatch");
    assert_eq!(
        g.value(keys).rows(),
        g.value(values).rows(),
        "attention keys/values row mismatch"
    );
    let q_t = g.transpose(query); // k x 1
    let scores = g.matmul(keys, q_t); // m x 1
    let scores = g.scale(scores, 1.0 / (k as f32).sqrt());
    let weights = g.softmax_col(scores); // m x 1
    let w_t = g.transpose(weights); // 1 x m
    g.matmul(w_t, values) // 1 x h
}

/// Tape-free equivalent of [`dot_attention`].
///
/// * `query` — length `k_dim`
/// * `keys` — row-major matrix with `k_dim` columns
/// * `values` — row-major matrix with `v_dim` columns
/// * `sel` — which rows of `keys`/`values` participate; `None` means the
///   first `m` rows in order (`m` is ignored when `sel` is `Some`)
/// * `scores` — caller-provided scratch (resized internally)
/// * `out` — the `v_dim`-long context, overwritten
///
/// The score, softmax and value-mixing loops accumulate in the same
/// order as the graph ops, so the result is bit-identical to the tape.
#[allow(clippy::too_many_arguments)]
pub fn dot_attention_into(
    query: &[f32],
    keys: &[f32],
    values: &[f32],
    k_dim: usize,
    v_dim: usize,
    sel: Option<&[usize]>,
    m: usize,
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    let m = sel.map_or(m, <[usize]>::len);
    debug_assert!(m > 0, "attention over zero rows");
    debug_assert_eq!(query.len(), k_dim, "attention key width mismatch");
    debug_assert_eq!(out.len(), v_dim, "attention context width mismatch");
    let scale = 1.0 / (k_dim as f32).sqrt();
    scores.clear();
    for i in 0..m {
        // Callers pass row indices drawn from the keys/values matrices.
        // `scores` is a caller-owned scratch vector that reaches its
        // high-water capacity during warmup; clear() keeps the
        // allocation, so steady-state pushes never reallocate.
        let r = sel.map_or(i, |s| s[i]);
        scores.push(infer::dot(&keys[r * k_dim..(r + 1) * k_dim], query) * scale);
    }
    infer::softmax_inplace(scores);
    out.fill(0.0);
    for (i, &w) in scores.iter().enumerate() {
        let r = sel.map_or(i, |s| s[i]);
        infer::axpy(out, w, &values[r * v_dim..(r + 1) * v_dim]);
    }
}

/// Node-aware attention (paper Eqs. 8–9) as **one** tape node: row `i`
/// of the `n x hidden` result is `h_i + softmax(K_c q_iᵀ / sqrt(k))ᵀ H_c`
/// over the children `c = children(i)` of node `i` — each node's query
/// over its children's keys, the softmax, the weighted sum and the
/// residual add — or `h_i` alone for a leaf. `q` and `k` are `n x k`,
/// `h` is `n x hidden`. A row is [`dot_attention_into`]'s arithmetic, so
/// it equals the served path's to the bit; the backward pass is written
/// by hand ([`ChildAttentionTape`]).
pub fn child_attention<'c>(
    g: &mut Graph<'_>,
    q: Var,
    k: Var,
    h: Var,
    children: impl Fn(usize) -> &'c [usize],
) -> Var {
    let (n, k_dim) = g.value(q).shape();
    let hidden = g.value(h).cols();
    assert_eq!(g.value(k).shape(), (n, k_dim), "attention key shape mismatch");
    assert_eq!(g.value(h).rows(), n, "attention values row mismatch");
    let (qs, ks, hs) = (g.value(q).data(), g.value(k).data(), g.value(h).data());
    let mut out = hs.to_vec();
    let mut tape = ChildAttentionTape {
        q: q.index(),
        k: k.index(),
        h: h.index(),
        offsets: Vec::with_capacity(n + 1),
        kids: Vec::new(),
        weights: Vec::new(),
    };
    let (mut scores, mut ctx) = (Vec::new(), vec![0.0; hidden]);
    tape.offsets.push(0);
    for i in 0..n {
        let kids = children(i);
        if !kids.is_empty() {
            assert!(kids.iter().all(|&c| c < n), "node {i} has a child outside the plan");
            let q_i = &qs[i * k_dim..(i + 1) * k_dim];
            dot_attention_into(q_i, ks, hs, k_dim, hidden, Some(kids), 0, &mut scores, &mut ctx);
            for (o, &c) in out[i * hidden..(i + 1) * hidden].iter_mut().zip(&ctx) {
                *o += c;
            }
            tape.kids.extend_from_slice(kids);
            tape.weights.extend_from_slice(&scores);
        }
        tape.offsets.push(tape.kids.len());
    }
    g.push(Tensor::from_vec(n, hidden, out), Op::ChildAttention(Box::new(tape)))
}

/// What the fused node-attention node ([`child_attention`]) keeps for its
/// backward pass: tape indices of `q`, `k` and `h`, every node's children
/// (`kids[offsets[i]..offsets[i + 1]]`) and their softmax weights, in the
/// same order. Public only because [`Op`] is.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct ChildAttentionTape {
    q: usize,
    k: usize,
    h: usize,
    offsets: Vec<usize>,
    kids: Vec<usize>,
    weights: Vec<f32>,
}

impl ChildAttentionTape {
    pub(crate) fn inputs(&self) -> [usize; 3] {
        [self.q, self.k, self.h]
    }

    /// With `de_i` the gradient reaching row `i`: `h_i` gains `de_i`
    /// (the residual) and each child `h_c` gains `w_c de_i`; the scores
    /// gain the softmax's Jacobian-vector product
    /// `ds_c = w_c (de_i·h_c − Σ_c' w_c' de_i·h_c') / sqrt(k)`, which
    /// reaches `q_i` as `Σ_c ds_c k_c` and each `k_c` as `ds_c q_i`.
    pub(crate) fn backward(&self, tape: &Graph<'_>, de: &Tensor, grads: &mut [Option<Tensor>]) {
        let (q, k, h) = (tape.node(self.q).1, tape.node(self.k).1, tape.node(self.h).1);
        let scale = 1.0 / (q.cols() as f32).sqrt();
        let nodes = || (0..de.rows()).map(|i| (i, self.offsets[i]..self.offsets[i + 1]));
        let mut ds = vec![0.0f32; self.kids.len()];
        for (i, span) in nodes() {
            let de_i = de.row_slice(i);
            for (d, &c) in ds[span.clone()].iter_mut().zip(&self.kids[span.clone()]) {
                *d = infer::dot(de_i, h.row_slice(c));
            }
            let mean = infer::dot(&ds[span.clone()], &self.weights[span.clone()]);
            for (d, &w) in ds[span.clone()].iter_mut().zip(&self.weights[span]) {
                *d = w * (*d - mean) * scale;
            }
        }
        tape.add_to(grads, self.h, |d| {
            d.axpy(1.0, de);
            for (i, span) in nodes() {
                for (&c, &w) in self.kids[span.clone()].iter().zip(&self.weights[span]) {
                    infer::axpy(row_mut(d, c), w, de.row_slice(i));
                }
            }
        });
        tape.add_to(grads, self.q, |d| {
            for (i, span) in nodes() {
                for (&c, &s) in self.kids[span.clone()].iter().zip(&ds[span]) {
                    infer::axpy(row_mut(d, i), s, k.row_slice(c));
                }
            }
        });
        tape.add_to(grads, self.k, |d| {
            for (i, span) in nodes() {
                for (&c, &s) in self.kids[span.clone()].iter().zip(&ds[span]) {
                    infer::axpy(row_mut(d, c), s, q.row_slice(i));
                }
            }
        });
    }
}

/// Row `r` of `t`, mutably.
fn row_mut(t: &mut Tensor, r: usize) -> &mut [f32] {
    let cols = t.cols();
    &mut t.data_mut()[r * cols..(r + 1) * cols]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    #[test]
    fn attention_focuses_on_matching_key() {
        let mut g = Graph::new();
        // Query matches the second key almost exactly.
        let q = g.input(Tensor::row(&[0.0, 10.0]));
        let keys = g.input(Tensor::from_vec(2, 2, vec![10.0, 0.0, 0.0, 10.0]));
        let values = g.input(Tensor::from_vec(2, 3, vec![1., 1., 1., 9., 9., 9.]));
        let ctx = dot_attention(&mut g, q, keys, values);
        let out = g.value(ctx);
        assert_eq!(out.shape(), (1, 3));
        // Should be dominated by the second value row.
        assert!(out.get(0, 0) > 8.5, "context = {:?}", out);
    }

    #[test]
    fn uniform_keys_give_the_mean_of_the_values() {
        let mut g = Graph::new();
        let q = g.input(Tensor::row(&[1.0, 1.0]));
        let keys = g.input(Tensor::from_vec(3, 2, vec![0.5; 6]));
        let values = g.input(Tensor::from_vec(3, 2, vec![1., -3., 2., 6., 6., 0.]));
        let ctx = dot_attention(&mut g, q, keys, values);
        for (got, want) in g.value(ctx).data().iter().zip([3.0, 1.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn a_constant_value_column_passes_through() {
        // The weights sum to one, whatever the query and keys.
        let mut g = Graph::new();
        let q = g.input(Tensor::row(&[0.3, -0.7, 0.1]));
        let keys = g.input(Tensor::from_vec(
            4,
            3,
            vec![0.1, 0.2, 0.3, -0.4, 0.5, -0.6, 0.7, 0.8, 0.9, 0.0, -0.1, 0.2],
        ));
        let values = g.input(Tensor::from_vec(4, 2, vec![2.5, 1., 2.5, -1., 2.5, 4., 2.5, 0.]));
        let ctx = dot_attention(&mut g, q, keys, values);
        assert!((g.value(ctx).get(0, 0) - 2.5).abs() < 1e-5);
    }

    #[test]
    fn dot_attention_into_matches_tape_bitwise() {
        let q = Tensor::row(&[0.3, -0.7, 0.1]);
        let keys = Tensor::from_vec(
            4,
            3,
            vec![0.1, 0.2, 0.3, -0.4, 0.5, -0.6, 0.7, 0.8, 0.9, 0.0, -0.1, 0.2],
        );
        let values = Tensor::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);

        // All rows.
        let mut g = Graph::new();
        let (qv, kv, vv) = (g.input(q.clone()), g.input(keys.clone()), g.input(values.clone()));
        let ctx = dot_attention(&mut g, qv, kv, vv);
        let mut scores = Vec::new();
        let mut out = [0.0f32; 2];
        dot_attention_into(
            q.data(),
            keys.data(),
            values.data(),
            3,
            2,
            None,
            4,
            &mut scores,
            &mut out,
        );
        assert_eq!(&out, g.value(ctx).data());

        // A selected subset of rows, as node-aware attention gathers children.
        let sel = [2usize, 0];
        let mut g = Graph::new();
        let qv = g.input(q.clone());
        let kv = g.input(Tensor::concat_rows(&[&keys.slice_rows(2, 1), &keys.slice_rows(0, 1)]));
        let vv =
            g.input(Tensor::concat_rows(&[&values.slice_rows(2, 1), &values.slice_rows(0, 1)]));
        let ctx = dot_attention(&mut g, qv, kv, vv);
        dot_attention_into(
            q.data(),
            keys.data(),
            values.data(),
            3,
            2,
            Some(&sel),
            0,
            &mut scores,
            &mut out,
        );
        assert_eq!(&out, g.value(ctx).data());
    }

    #[test]
    fn gradient_flows_through_attention() {
        use crate::params::ParamStore;
        let mut store = ParamStore::new();
        let qid = store.register("q", Tensor::row(&[0.5, -0.5]));
        let mut g = Graph::new();
        let q = g.param(&store, qid);
        let keys = g.input(Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let values = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let ctx = dot_attention(&mut g, q, keys, values);
        let loss = g.sum(ctx);
        let grads = g.backward(loss);
        grads.accumulate(&mut store, 1.0);
        assert!(store.grad(qid).norm() > 0.0);
    }

    /// Children lists of the plan shapes the fused node must handle: one
    /// node; a chain; a node with three children; all leaves.
    fn plan_shapes() -> Vec<Vec<Vec<usize>>> {
        vec![
            vec![vec![]],
            vec![vec![], vec![0], vec![1], vec![2]],
            vec![vec![], vec![], vec![], vec![0, 1, 2], vec![3]],
            vec![vec![], vec![], vec![]],
        ]
    }

    /// `q`, `k` (`n x 3`) and `h` (`n x 4`) as parameters, so the check
    /// reaches every input of the node.
    fn qkh(n: usize, seed: u64) -> (ParamStore, [crate::ParamId; 3], Tensor) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let ids = [("q", 3), ("k", 3), ("h", 4)].map(|(name, cols)| {
            store.register(name, crate::init::xavier_uniform(&mut rng, n, cols))
        });
        let target = Tensor::from_vec(n, 4, (0..n * 4).map(|i| (i as f32 * 0.4).sin()).collect());
        (store, ids, target)
    }

    #[test]
    fn child_attention_runs_the_infer_kernels_and_passes_gradcheck() {
        for kids in plan_shapes() {
            let (mut store, [q, k, h], target) = qkh(kids.len(), kids.len() as u64);
            crate::gradcheck::assert_gradients_close(
                &mut store,
                |g, s| {
                    let (q, k, h) = (g.param(s, q), g.param(s, k), g.param(s, h));
                    let out = child_attention(g, q, k, h, |i| kids[i].as_slice());
                    g.mse_loss(out, &target)
                },
                5e-3,
                2e-2,
            );
        }
    }

    #[test]
    fn child_attention_runs_the_infer_kernels_and_matches_the_step_ops() {
        // Per node, the ops the per-step model graph records: slices of
        // the children's keys and values, `dot_attention`, the residual.
        // The forward is bit-equal; gradients agree to 1e-5 of each
        // input's largest entry.
        for kids in plan_shapes() {
            let n = kids.len();
            let (store, [q, k, h], target) = qkh(n, 7 + n as u64);
            let run = |fused: bool| {
                let mut g = Graph::new();
                let (qv, kv, hv) = (g.param(&store, q), g.param(&store, k), g.param(&store, h));
                let out = if fused {
                    child_attention(&mut g, qv, kv, hv, |i| kids[i].as_slice())
                } else {
                    let reps: Vec<Var> = (0..n)
                        .map(|i| {
                            let hi = g.slice_rows(hv, i, 1);
                            if kids[i].is_empty() {
                                return hi;
                            }
                            let qi = g.slice_rows(qv, i, 1);
                            let rows = |g: &mut Graph<'_>, m| {
                                let parts: Vec<Var> =
                                    kids[i].iter().map(|&c| g.slice_rows(m, c, 1)).collect();
                                g.concat_rows(&parts)
                            };
                            let (keys, values) = (rows(&mut g, kv), rows(&mut g, hv));
                            let ctx = dot_attention(&mut g, qi, keys, values);
                            g.add(hi, ctx)
                        })
                        .collect();
                    g.concat_rows(&reps)
                };
                let loss = g.mse_loss(out, &target);
                let mut grads = store.clone();
                grads.zero_grads();
                g.backward(loss).accumulate(&mut grads, 1.0);
                (g.value(out).clone(), grads)
            };
            let ((fused, fused_grads), (steps, step_grads)) = (run(true), run(false));
            assert_eq!(fused, steps, "{kids:?}");
            for id in store.ids() {
                let (got, want) = (fused_grads.grad(id), step_grads.grad(id));
                let scale = want.data().iter().fold(1e-6f32, |m, x| m.max(x.abs()));
                for (&a, &b) in got.data().iter().zip(want.data()) {
                    assert!(
                        (a - b).abs() <= 1e-5 * scale,
                        "{kids:?}, {}: {a} vs {b}",
                        store.name(id)
                    );
                }
            }
        }
    }
}
