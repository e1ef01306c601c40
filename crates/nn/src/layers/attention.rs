//! Dot-product attention primitives used by RAAL's node-aware and
//! resource-aware attention layers (paper Eq. 8–11).

use crate::graph::{Graph, Var};
use crate::infer;

/// Scaled dot-product attention of a single query over a set of keys and
/// values.
///
/// * `query` — `1 x k`
/// * `keys` — `m x k`
/// * `values` — `m x h`
///
/// Returns the `1 x h` context `softmax(keys @ queryᵀ / sqrt(k))ᵀ @ values`.
pub fn dot_attention(g: &mut Graph, query: Var, keys: Var, values: Var) -> Var {
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

/// Attention weights (without applying them), for models that need the
/// raw distribution — e.g. to expose which plan nodes a resource vector
/// attends to.
pub fn attention_weights(g: &mut Graph, query: Var, keys: Var) -> Var {
    let k = g.value(query).cols();
    assert_eq!(g.value(keys).cols(), k, "attention key width mismatch");
    let q_t = g.transpose(query);
    let scores = g.matmul(keys, q_t);
    let scores = g.scale(scores, 1.0 / (k as f32).sqrt());
    g.softmax_col(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

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
    fn uniform_keys_give_uniform_weights() {
        let mut g = Graph::new();
        let q = g.input(Tensor::row(&[1.0, 1.0]));
        let keys = g.input(Tensor::from_vec(3, 2, vec![0.5; 6]));
        let w = attention_weights(&mut g, q, keys);
        for i in 0..3 {
            assert!((g.value(w).get(i, 0) - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let mut g = Graph::new();
        let q = g.input(Tensor::row(&[0.3, -0.7, 0.1]));
        let keys = g.input(Tensor::from_vec(
            4,
            3,
            vec![0.1, 0.2, 0.3, -0.4, 0.5, -0.6, 0.7, 0.8, 0.9, 0.0, -0.1, 0.2],
        ));
        let w = attention_weights(&mut g, q, keys);
        let sum: f32 = g.value(w).data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
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
        g.accumulate_grads(&grads, &mut store, 1.0);
        assert!(store.grad(qid).norm() > 0.0);
    }
}
