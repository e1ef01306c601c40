//! Finite-difference gradient checking.
//!
//! The only way to trust hand-written backward rules is to compare them to
//! central differences. Every op and layer in this crate is validated this
//! way; the checker is exported so downstream model code (RAAL, TLSTM) can
//! verify its composite architectures too.

use crate::graph::{Graph, Var};
use crate::params::{ParamId, ParamStore};

/// Result of a gradient check: the worst relative error observed and where.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest relative error across all checked weights.
    pub max_rel_error: f32,
    /// Parameter name holding the worst weight.
    pub worst_param: String,
    /// Flat index of the worst weight within that parameter.
    pub worst_index: usize,
    /// Number of scalar weights checked.
    pub checked: usize,
}

/// Compares analytic gradients against central finite differences for every
/// weight of every parameter in `store`.
///
/// `build` must construct the loss graph from scratch (define-by-run) on
/// each call; it is invoked `2 * num_weights + 1` times. Returns a report;
/// use [`assert_gradients_close`] in tests.
pub fn check_gradients<F>(store: &mut ParamStore, build: F, eps: f32) -> GradCheckReport
where
    F: for<'p> Fn(&mut Graph<'p>, &'p ParamStore) -> Var,
{
    // Analytic pass.
    store.zero_grads();
    let mut g = Graph::new();
    let loss = build(&mut g, store);
    let grads = g.backward(loss);
    grads.accumulate(store, 1.0);

    let ids: Vec<ParamId> = store.ids().collect();
    let mut report = GradCheckReport {
        max_rel_error: 0.0,
        worst_param: String::new(),
        worst_index: 0,
        checked: 0,
    };

    for id in ids {
        let n = store.value(id).len();
        for i in 0..n {
            let orig = store.value(id).data()[i];
            store.value_mut(id).data_mut()[i] = orig + eps;
            let plus = eval_loss(store, &build);
            store.value_mut(id).data_mut()[i] = orig - eps;
            let minus = eval_loss(store, &build);
            store.value_mut(id).data_mut()[i] = orig;

            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = store.grad(id).data()[i];
            let denom = numeric.abs().max(analytic.abs()).max(1e-2);
            let rel = (numeric - analytic).abs() / denom;
            report.checked += 1;
            if rel > report.max_rel_error {
                report.max_rel_error = rel;
                report.worst_param = store.name(id).to_string();
                report.worst_index = i;
            }
        }
    }
    report
}

fn eval_loss<F>(store: &ParamStore, build: &F) -> f32
where
    F: for<'p> Fn(&mut Graph<'p>, &'p ParamStore) -> Var,
{
    let mut g = Graph::new();
    let loss = build(&mut g, store);
    g.value(loss).item()
}

/// Panics with a descriptive message when any analytic gradient deviates
/// from its finite-difference estimate by more than `tol` (relative).
pub fn assert_gradients_close<F>(store: &mut ParamStore, build: F, eps: f32, tol: f32)
where
    F: for<'p> Fn(&mut Graph<'p>, &'p ParamStore) -> Var,
{
    let report = check_gradients(store, build, eps);
    assert!(
        report.max_rel_error <= tol,
        "gradient check failed: rel error {} at {}[{}] ({} weights checked)",
        report.max_rel_error,
        report.worst_param,
        report.worst_index,
        report.checked
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{child_attention, Activation, Conv1d, Dense, LstmCell};
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f32 = 5e-3;
    const TOL: f32 = 2e-2;

    #[test]
    fn gradcheck_matmul_sigmoid_chain() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let w1 = store.register("w1", crate::init::xavier_uniform(&mut rng, 3, 4));
        let w2 = store.register("w2", crate::init::xavier_uniform(&mut rng, 4, 1));
        assert_gradients_close(
            &mut store,
            move |g, s| {
                let x = g.input(Tensor::row(&[0.3, -0.6, 0.9]));
                let a = g.param(s, w1);
                let b = g.param(s, w2);
                let h = g.matmul(x, a);
                let h = g.sigmoid(h);
                let y = g.matmul(h, b);
                g.mse_loss(y, &Tensor::scalar(0.7))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn gradcheck_softmax_attention() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let q = store.register("q", crate::init::xavier_uniform(&mut rng, 1, 4));
        let k = store.register("k", crate::init::xavier_uniform(&mut rng, 3, 4));
        let v = store.register("v", crate::init::xavier_uniform(&mut rng, 3, 2));
        assert_gradients_close(
            &mut store,
            move |g, s| {
                let qv = g.param(s, q);
                let kv = g.param(s, k);
                let vv = g.param(s, v);
                let ctx = crate::layers::dot_attention(g, qv, kv, vv);
                g.mse_loss(ctx, &Tensor::row(&[0.1, -0.2]))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn gradcheck_dense_relu_stack() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(17);
        let d1 = Dense::new(&mut store, &mut rng, "d1", 4, 6, Activation::Relu);
        let d2 = Dense::new(&mut store, &mut rng, "d2", 6, 1, Activation::Identity);
        assert_gradients_close(
            &mut store,
            move |g, s| {
                let x = g.input(Tensor::row(&[0.25, -0.5, 0.75, 0.1]));
                let h = d1.forward(g, s, x);
                let y = d2.forward(g, s, h);
                g.mse_loss(y, &Tensor::scalar(0.3))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn gradcheck_lstm_sequence() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(19);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 3, 4);
        assert_gradients_close(
            &mut store,
            move |g, s| {
                let xs = g.input(Tensor::from_vec(
                    3,
                    3,
                    vec![0.2, -0.1, 0.4, 0.0, 0.3, -0.5, 0.6, 0.1, -0.2],
                ));
                let hs = cell.forward_seq(g, s, xs);
                let pooled = g.mean_rows(hs);
                g.mse_loss(pooled, &Tensor::row(&[0.1, 0.0, -0.1, 0.2]))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn gradcheck_conv1d_sequence() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(23);
        let conv = Conv1d::new(&mut store, &mut rng, "conv", 3, 2, 3);
        assert_gradients_close(
            &mut store,
            move |g, s| {
                let xs = g.input(Tensor::from_vec(
                    4,
                    3,
                    vec![0.2, -0.1, 0.4, 0.0, 0.3, -0.5, 0.6, 0.1, -0.2, 0.3, 0.3, 0.1],
                ));
                let ys = conv.forward_seq(g, s, xs);
                let pooled = g.mean_rows(ys);
                g.mse_loss(pooled, &Tensor::row(&[0.1, -0.1]))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn gradcheck_mean_rows_and_concat() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(29);
        let a = store.register("a", crate::init::xavier_uniform(&mut rng, 2, 3));
        let b = store.register("b", crate::init::xavier_uniform(&mut rng, 1, 3));
        assert_gradients_close(
            &mut store,
            move |g, s| {
                let av = g.param(s, a);
                let bv = g.param(s, b);
                let cat = g.concat_rows(&[av, bv]);
                let t = g.tanh(cat);
                let pooled = g.mean_rows(t);
                g.mse_loss(pooled, &Tensor::row(&[0.0, 0.1, -0.1]))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn gradcheck_fused_plan_layer_on_the_infer_kernels() {
        // The training loss's plan layer: the fused LSTM's states,
        // projected to queries and keys, through fused node attention and
        // pooled — over one node, a chain, a node with three children,
        // and all leaves.
        let shapes: [&[&[usize]]; 4] = [
            &[&[]],
            &[&[], &[0], &[1], &[2]],
            &[&[], &[], &[], &[0, 1, 2], &[3]],
            &[&[], &[], &[]],
        ];
        for kids in shapes {
            let n = kids.len();
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(37 + n as u64);
            let cell = LstmCell::new(&mut store, &mut rng, "lstm", 3, 4);
            let wq = store.register("wq", crate::init::xavier_uniform(&mut rng, 4, 2));
            let wk = store.register("wk", crate::init::xavier_uniform(&mut rng, 4, 2));
            let xs = Tensor::from_vec(n, 3, (0..n * 3).map(|i| (i as f32 * 0.9).sin()).collect());
            assert_gradients_close(
                &mut store,
                |g, s| {
                    let x = g.input(xs.clone());
                    let h = cell.forward_fused(g, s, x);
                    let (wq, wk) = (g.param(s, wq), g.param(s, wk));
                    let (q, k) = (g.matmul(h, wq), g.matmul(h, wk));
                    let enriched = child_attention(g, q, k, h, |i| kids[i]);
                    let pooled = g.mean_rows(enriched);
                    g.mse_loss(pooled, &Tensor::row(&[0.1, 0.0, -0.1, 0.2]))
                },
                EPS,
                TOL,
            );
        }
    }
}
