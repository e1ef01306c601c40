//! Property-based gradient checks: random shapes and random values for
//! every composite structure the cost models rely on.

use nn::gradcheck::check_gradients;
use nn::layers::{Activation, Conv1d, Dense, LstmCell};
use nn::{Graph, ParamStore, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 5e-3;
const TOL: f32 = 3e-2;

/// `n` rows shaped like the plan encoder's: 32 dense embedding entries,
/// a 12-wide one-hot, 48 signed structure entries (a parent's +1, the
/// children's -1, else zero) and 2 statistics — 94 columns.
fn encoder_rows(rng: &mut StdRng, n: usize) -> Tensor {
    use rand::Rng;
    let mut xs = vec![0.0f32; n * 94];
    for (t, row) in xs.chunks_mut(94).enumerate() {
        row[..32].fill_with(|| rng.gen_range(-1.0f32..1.0));
        row[32 + rng.gen_range(0..12usize)] = 1.0;
        if t > 0 {
            row[44 + (t - 1) % 48] = 1.0;
        }
        if t + 1 < n {
            row[44 + (t + 1) % 48] = -1.0;
        }
        row[92..].fill_with(|| rng.gen_range(0.0f32..1.0));
    }
    Tensor::from_vec(n, 94, xs)
}

/// The served LSTM (94 -> 64) over `xs` under a squared error against a
/// fixed target: the hidden states and every parameter's gradient.
fn lstm_hidden_and_grads(
    cell: &LstmCell,
    store: &ParamStore,
    xs: &Tensor,
    fused: bool,
) -> (Tensor, ParamStore) {
    let n = xs.rows();
    let target = Tensor::from_vec(n, 64, (0..n * 64).map(|i| (i as f32 * 0.21).sin()).collect());
    let mut g = Graph::new();
    let x = g.input(xs.clone());
    let hs = match fused {
        true => cell.forward_fused(&mut g, store, x),
        false => cell.forward_seq(&mut g, store, x),
    };
    let loss = g.mse_loss(hs, &target);
    let mut grads = store.clone();
    grads.zero_grads();
    g.backward(loss).accumulate(&mut grads, 1.0);
    (g.value(hs).clone(), grads)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fused_lstm_tracks_the_step_ops_on_encoder_rows(seed in 0u64..1000, n in 1usize..24) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 94, 64);
        let xs = encoder_rows(&mut rng, n);
        let (fused, fused_grads) = lstm_hidden_and_grads(&cell, &store, &xs, true);
        let (steps, step_grads) = lstm_hidden_and_grads(&cell, &store, &xs, false);
        for (&a, &b) in fused.data().iter().zip(steps.data()) {
            prop_assert!((a - b).abs() <= 1e-5, "n = {}: hidden {} vs {}", n, a, b);
        }
        for id in store.ids() {
            let (got, want) = (fused_grads.grad(id), step_grads.grad(id));
            let scale = want.data().iter().fold(1e-6f32, |m, x| m.max(x.abs()));
            for (i, (&a, &b)) in got.data().iter().zip(want.data()).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-4 * scale,
                    "n = {}: {}[{}] {} vs {} (scale {})", n, store.name(id), i, a, b, scale
                );
            }
        }
    }

    #[test]
    fn dense_stack_gradients(seed in 0u64..1000, in_dim in 1usize..6, hidden in 1usize..6) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let d1 = Dense::new(&mut store, &mut rng, "d1", in_dim, hidden, Activation::Tanh);
        let d2 = Dense::new(&mut store, &mut rng, "d2", hidden, 1, Activation::Identity);
        let x: Vec<f32> = (0..in_dim).map(|i| ((seed as usize + i) % 7) as f32 / 7.0 - 0.4).collect();
        let report = check_gradients(
            &mut store,
            move |g, s| {
                let xv = g.input(Tensor::row(&x));
                let h = d1.forward(g, s, xv);
                let y = d2.forward(g, s, h);
                g.mse_loss(y, &Tensor::scalar(0.25))
            },
            EPS,
        );
        prop_assert!(
            report.max_rel_error <= TOL,
            "rel error {} at {}[{}]",
            report.max_rel_error, report.worst_param, report.worst_index
        );
    }

    #[test]
    fn lstm_gradients(seed in 0u64..1000, steps in 1usize..4, in_dim in 1usize..4) {
        let hidden = 3;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", in_dim, hidden);
        let data: Vec<f32> = (0..steps * in_dim)
            .map(|i| ((seed as usize * 3 + i) % 11) as f32 / 11.0 - 0.5)
            .collect();
        let target = Tensor::row(&vec![0.1; hidden]);
        let report = check_gradients(
            &mut store,
            move |g, s| {
                let xs = g.input(Tensor::from_vec(steps, in_dim, data.clone()));
                let hs = cell.forward_seq(g, s, xs);
                let pooled = g.mean_rows(hs);
                g.mse_loss(pooled, &target)
            },
            EPS,
        );
        prop_assert!(
            report.max_rel_error <= TOL,
            "rel error {} at {}[{}]",
            report.max_rel_error, report.worst_param, report.worst_index
        );
    }

    #[test]
    fn conv_gradients(seed in 0u64..1000, len in 1usize..5) {
        let (in_dim, out_dim) = (2, 2);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv1d::new(&mut store, &mut rng, "c", in_dim, out_dim, 3);
        // Push pre-activations well away from the ReLU kink: central
        // differences are invalid within eps of the kink, and that is a
        // property of finite differencing, not of the backward rule.
        {
            let (_, b) = {
                // bias is the second registered parameter of the conv
                let ids: Vec<_> = store.ids().collect();
                (ids[0], ids[1])
            };
            *store.value_mut(b) = Tensor::row(&vec![1.0; out_dim]);
        }
        let data: Vec<f32> = (0..len * in_dim)
            .map(|i| ((seed as usize + 2 * i) % 9) as f32 / 9.0 - 0.3)
            .collect();
        let target = Tensor::row(&[0.05, -0.05]);
        let report = check_gradients(
            &mut store,
            move |g, s| {
                let xs = g.input(Tensor::from_vec(len, in_dim, data.clone()));
                let ys = conv.forward_seq(g, s, xs);
                let pooled = g.mean_rows(ys);
                g.mse_loss(pooled, &target)
            },
            EPS,
        );
        prop_assert!(
            report.max_rel_error <= TOL,
            "rel error {} at {}[{}]",
            report.max_rel_error, report.worst_param, report.worst_index
        );
    }

    #[test]
    fn attention_gradients(seed in 0u64..1000, m in 2usize..6, k in 1usize..5) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = store.register("q", nn::init::xavier_uniform(&mut rng, 1, k));
        let keys = store.register("keys", nn::init::xavier_uniform(&mut rng, m, k));
        let values = store.register("vals", nn::init::xavier_uniform(&mut rng, m, 2));
        let target = Tensor::row(&[0.0, 0.1]);
        let report = check_gradients(
            &mut store,
            move |g, s| {
                let qv = g.param(s, q);
                let kv = g.param(s, keys);
                let vv = g.param(s, values);
                let ctx = nn::layers::dot_attention(g, qv, kv, vv);
                g.mse_loss(ctx, &target)
            },
            EPS,
        );
        prop_assert!(
            report.max_rel_error <= TOL,
            "rel error {} at {}[{}]",
            report.max_rel_error, report.worst_param, report.worst_index
        );
    }
}
