//! The tape's backward rules against the ones they replaced.
//!
//! `nn::Graph::backward` adds every delta into its target's slot and
//! gives constants no gradient (PR 21). [`reference_backward`] below is
//! the rule set it had before — a transposed copy and a fresh product
//! per `MatMul`, a zeroed full-size carrier per slice, a gradient for
//! every node — kept here, and only here, as the reference: on the full
//! RAAL, RAAC and TLSTM per-step losses both must produce the same
//! parameter gradients to 1e-5. The training loss's two fused nodes (the
//! LSTM and node-aware attention) must give the per-step tape's parameter
//! gradients to 1e-4.

use baselines::{TlstmConfig, TlstmModel};
use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
use nn::graph::Op;
use nn::{Graph, ParamStore, Tensor, Var};
use raal::{CostModel, ModelConfig, Trainable};

/// The pre-PR-21 backward pass, rule for rule.
fn reference_backward(tape: &Graph, loss: Var) -> Vec<Option<Tensor>> {
    let value = |i: usize| tape.node(i).1;
    let mut grads: Vec<Option<Tensor>> = vec![None; tape.len()];
    grads[loss.index()] = Some(Tensor::scalar(1.0));
    let accum = |grads: &mut Vec<Option<Tensor>>, idx: usize, delta: Tensor| {
        assert_eq!(value(idx).shape(), delta.shape(), "gradient shape mismatch at node {idx}");
        match &mut grads[idx] {
            Some(g) => g.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    };
    for idx in (0..=loss.index()).rev() {
        let Some(g) = grads[idx].take() else { continue };
        let grads_mut = &mut grads;
        match tape.node(idx).0 {
            Op::Input | Op::Param(_) => {}
            Op::MatMul(a, b) => {
                accum(grads_mut, *a, g.matmul(&value(*b).transpose()));
                accum(grads_mut, *b, value(*a).transpose().matmul(&g));
            }
            Op::Add(a, b) => {
                accum(grads_mut, *a, g.clone());
                accum(grads_mut, *b, g.clone());
            }
            Op::AddRow(m, row) => {
                accum(grads_mut, *m, g.clone());
                let mut rg = Tensor::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        rg.set(0, c, rg.get(0, c) + g.get(r, c));
                    }
                }
                accum(grads_mut, *row, rg);
            }
            Op::Mul(a, b) => {
                accum(grads_mut, *a, g.hadamard(value(*b)));
                accum(grads_mut, *b, g.hadamard(value(*a)));
            }
            Op::Scale(a, alpha) => accum(grads_mut, *a, g.scale(*alpha)),
            Op::Sigmoid(a) => {
                accum(grads_mut, *a, value(idx).zip(&g, |y, g| g * y * (1.0 - y)));
            }
            Op::Tanh(a) => accum(grads_mut, *a, value(idx).zip(&g, |y, g| g * (1.0 - y * y))),
            Op::Relu(a) => {
                accum(grads_mut, *a, value(*a).zip(&g, |x, g| if x > 0.0 { g } else { 0.0 }));
            }
            Op::SoftmaxCol(a) => {
                let (y, gt) = (value(idx).transpose(), g.transpose());
                accum(grads_mut, *a, softmax_backward_rows(&y, &gt).transpose());
            }
            Op::Transpose(a) => accum(grads_mut, *a, g.transpose()),
            Op::ConcatRows(parts) => {
                let mut start = 0;
                for &p in parts {
                    let rows = value(p).rows();
                    accum(grads_mut, p, g.slice_rows(start, rows));
                    start += rows;
                }
            }
            Op::ConcatCols(parts) => {
                let mut start = 0;
                for &p in parts {
                    let cols = value(p).cols();
                    accum(grads_mut, p, g.slice_cols(start, cols));
                    start += cols;
                }
            }
            Op::SliceRows(a, start, len) => {
                let mut d = Tensor::zeros(value(*a).rows(), value(*a).cols());
                for r in 0..*len {
                    for c in 0..d.cols() {
                        d.set(start + r, c, g.get(r, c));
                    }
                }
                accum(grads_mut, *a, d);
            }
            Op::SliceCols(a, start, len) => {
                let mut d = Tensor::zeros(value(*a).rows(), value(*a).cols());
                for r in 0..d.rows() {
                    for c in 0..*len {
                        d.set(r, start + c, g.get(r, c));
                    }
                }
                accum(grads_mut, *a, d);
            }
            Op::Sum(a) => {
                let (r, c) = value(*a).shape();
                accum(grads_mut, *a, Tensor::full(r, c, g.item()));
            }
            Op::Mean(a) => {
                let (r, c) = value(*a).shape();
                accum(grads_mut, *a, Tensor::full(r, c, g.item() / (r * c) as f32));
            }
            Op::MeanRows(a) => {
                let (r, c) = value(*a).shape();
                let mut d = Tensor::zeros(r, c);
                for i in 0..r {
                    for j in 0..c {
                        d.set(i, j, g.get(0, j) / r as f32);
                    }
                }
                accum(grads_mut, *a, d);
            }
            Op::MseLoss(a, target) => {
                let scale = 2.0 * g.item() / value(*a).len() as f32;
                accum(grads_mut, *a, value(*a).zip(target, |p, t| scale * (p - t)));
            }
            Op::Lstm(_) | Op::ChildAttention(_) => {
                panic!("the reference rules cover the per-step tape only")
            }
        }
        grads[idx] = Some(g);
    }
    grads
}

fn softmax_backward_rows(y: &Tensor, g: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(y.rows(), y.cols());
    for r in 0..y.rows() {
        let dot: f32 = y.row_slice(r).iter().zip(g.row_slice(r)).map(|(&a, &b)| a * b).sum();
        for c in 0..y.cols() {
            out.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
        }
    }
    out
}

/// Differentiates one tape both ways and compares every parameter's
/// gradient, relative to that parameter's largest reference entry.
fn assert_rules_agree(name: &str, store: &ParamStore, tape: &Graph<'_>, loss: Var) {
    let mut new = store.clone();
    new.zero_grads();
    tape.backward(loss).accumulate(&mut new, 1.0);

    let mut old = store.clone();
    old.zero_grads();
    let reference = reference_backward(tape, loss);
    let mut inputs_with_reference_gradient = 0;
    for (idx, g) in reference.iter().enumerate() {
        match (tape.node(idx).0, g) {
            (Op::Param(id), Some(g)) => old.grad_mut(*id).axpy(1.0, g),
            (Op::Input, Some(_)) => inputs_with_reference_gradient += 1,
            _ => {}
        }
    }
    // The work the new rules skip was really there to skip.
    assert!(
        inputs_with_reference_gradient > 0,
        "{name}: the reference differentiates constants"
    );

    assert_grads_close(name, &old, &new, 1e-5);
}

/// Every parameter gradient of `got` within `tol` of `want`'s, relative
/// to that parameter's largest `want` entry.
fn assert_grads_close(name: &str, want: &ParamStore, got: &ParamStore, tol: f32) {
    for id in want.ids() {
        let (w, g) = (want.grad(id), got.grad(id));
        let scale = w.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
        assert!(scale > 0.0, "{name}: {} has no reference gradient", want.name(id));
        for (i, (w, g)) in w.data().iter().zip(g.data()).enumerate() {
            assert!(
                (w - g).abs() <= tol * scale,
                "{name}: {}[{i}] reference {w} vs {g} (scale {scale})",
                want.name(id)
            );
        }
    }
}

/// The per-step loss graph: [`CostModel::forward`] under the MSE the
/// training loss applies.
fn step_loss<'p>(model: &'p CostModel, tape: &mut Graph<'p>, plan: &EncodedPlan) -> Var {
    let pred = model.forward(tape, plan, &RESOURCES);
    tape.mse_loss(pred, &Tensor::scalar(model.target(42.0)))
}

/// A nine-node plan with two branch points, rows shaped like the
/// encoder's: a dense block, a one-hot, signed structure entries and a
/// majority of exact zeros (one of them negative).
fn fixed_plan(dim: usize) -> EncodedPlan {
    let n = 9;
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let mut row = vec![0.0f32; dim];
            for (j, x) in row.iter_mut().enumerate().take(dim / 3) {
                *x = ((i * 31 + j * 17) % 23) as f32 / 23.0 - 0.5;
            }
            row[dim / 3 + i % (dim / 3)] = 1.0;
            row[2 * dim / 3 + (i + 1) % (dim / 3)] = -1.0;
            row[dim - 1] = -0.0;
            row
        })
        .collect();
    let children: Vec<Vec<usize>> = vec![
        vec![],
        vec![],
        vec![0, 1],
        vec![],
        vec![3],
        vec![2, 4],
        vec![],
        vec![5, 6],
        vec![7],
    ];
    EncodedPlan::from_rows(&rows, &children, [0.3; PLAN_STAT_FEATURES])
}

const RESOURCES: [f32; 7] = [1.0, 0.5, 0.25, 0.5, 0.25, 0.9, 0.8];

#[test]
fn raal_and_raac_losses_differentiate_as_before() {
    let dim = 30;
    let plan = fixed_plan(dim);
    for (name, cfg) in [("raal", ModelConfig::raal(dim)), ("raac", ModelConfig::raac(dim))] {
        let model = CostModel::new(cfg);
        let mut tape = Graph::new();
        let loss = step_loss(&model, &mut tape, &plan);
        assert_rules_agree(name, model.store(), &tape, loss);
    }
}

#[test]
fn the_fused_training_loss_differentiates_like_the_step_tape() {
    let dim = 30;
    let plan = fixed_plan(dim);
    for (name, cfg) in [
        ("raal", ModelConfig::raal(dim)),
        ("na-lstm", ModelConfig::na_lstm(dim)),
        ("raac", ModelConfig::raac(dim)),
        ("raal without resources", ModelConfig::raal(dim).without_resources()),
    ] {
        let model = CostModel::new(cfg);
        let grads_of = |fused: bool| {
            let mut store = model.store().clone();
            store.zero_grads();
            let mut tape = Graph::new();
            let loss = match fused {
                true => model.loss(&mut tape, &plan, &RESOURCES, 42.0),
                false => step_loss(&model, &mut tape, &plan),
            };
            let value = tape.value(loss).item();
            tape.backward(loss).accumulate(&mut store, 1.0);
            (value, store, tape.len())
        };
        let (step_value, steps, step_nodes) = grads_of(false);
        let (fused_value, fused, fused_nodes) = grads_of(true);
        assert!(
            (step_value - fused_value).abs() <= 1e-5 * step_value.abs().max(1.0),
            "{name}: loss {fused_value} vs the step tape's {step_value}"
        );
        assert!(
            fused_nodes < step_nodes,
            "{name}: {fused_nodes} tape nodes, {step_nodes} by steps"
        );
        assert_grads_close(name, &steps, &fused, 1e-4);
    }
}

#[test]
fn tlstm_loss_differentiates_as_before() {
    let dim = 30;
    let model = TlstmModel::new(TlstmConfig::new(dim));
    let mut tape = Graph::new();
    let loss = model.loss(&mut tape, &fixed_plan(dim), 42.0);
    assert_rules_agree("tlstm", model.store(), &tape, loss);
}
