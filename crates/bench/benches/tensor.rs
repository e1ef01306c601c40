//! Microbenchmarks for the `nn` tensor and inference kernels at the
//! shapes the RAAL model actually uses (hidden 64, latent K 32, LSTM
//! gate blocks 4x64): dense matmul (branch-free i-k-j), blocked
//! transpose, and the fused tape-free LSTM step vs the tape.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nn::infer::{self, InferArena};
use nn::layers::LstmCell;
use nn::{Graph, ParamStore, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn filled(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

fn bench_tensor_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);

    let mut group = c.benchmark_group("tensor_matmul");
    // The LSTM step's dominant product: 1 x 64 state times 64 x 256 gates.
    let h = filled(&mut rng, 1, 64);
    let wh = filled(&mut rng, 64, 256);
    group.bench_function("matmul_1x64_64x256", |b| b.iter(|| black_box(h.matmul(&wh))));
    // Node-projection shape: a 24-node plan against a 64 x 32 projection.
    let hs = filled(&mut rng, 24, 64);
    let wk = filled(&mut rng, 64, 32);
    group.bench_function("matmul_24x64_64x32", |b| b.iter(|| black_box(hs.matmul(&wk))));
    // Same products through the allocation-free kernel.
    let mut out = vec![0.0f32; 256];
    group.bench_function("matmul_into_1x64_64x256", |b| {
        b.iter(|| {
            infer::matmul_into(h.data(), 1, 64, wh.data(), 256, &mut out);
            black_box(out[0])
        })
    });
    // The plan layer's `m = n` products for a median 19-node plan: the
    // hoisted input projection over rows shaped like the encoder's (32
    // dense entries, a one-hot, two signed structure entries, 2 stats,
    // else exact zeros) and one attention projection.
    let mut xs = Tensor::zeros(19, 94);
    for t in 0..19 {
        for j in (0..32).chain(92..94) {
            xs.set(t, j, rng.gen_range(-1.0f32..1.0));
        }
        for (j, v) in [(32 + t % 12, 1.0), (44 + (t + 1) % 19, -1.0), (44 + (t + 18) % 19, 1.0)] {
            xs.set(t, j, v);
        }
    }
    let (wx, hs19) = (filled(&mut rng, 94, 256), filled(&mut rng, 19, 64));
    for (name, a, k, w, n) in [
        ("matmul_into_19x94_94x256", &xs, 94, &wx, 256),
        ("matmul_into_19x64_64x32", &hs19, 64, &wk, 32),
    ] {
        let mut out = vec![0.0f32; 19 * n];
        group.bench_function(name, |b| {
            b.iter(|| {
                infer::matmul_into(a.data(), 19, k, w.data(), n, &mut out);
                black_box(out[0])
            })
        });
    }
    // Backward of the LSTM step's two products, beside the
    // transpose-then-`matmul` each replaces: `dh += g @ Wh^T`, and
    // `dWx += x_t^T @ g` for one encoded node (row 0 of `xs`).
    let (gz, x_t) = (filled(&mut rng, 1, 256), xs.slice_rows(0, 1));
    let (mut dh, mut dwx) = (Tensor::zeros(1, 64), Tensor::zeros(94, 256));
    group.bench_function("add_matmul_nt_1x256_64x256", |b| {
        b.iter(|| gz.add_matmul_nt(&wh, black_box(&mut dh)))
    });
    group.bench_function("transpose_matmul_1x256_64x256", |b| {
        b.iter(|| black_box(gz.matmul(&wh.transpose())))
    });
    group.bench_function("add_matmul_tn_1x94_1x256", |b| {
        b.iter(|| x_t.add_matmul_tn(&gz, black_box(&mut dwx)))
    });
    group.bench_function("transpose_matmul_axpy_1x94_1x256", |b| {
        b.iter(|| black_box(&mut dwx).axpy(1.0, &x_t.transpose().matmul(&gz)))
    });
    group.finish();

    let mut group = c.benchmark_group("tensor_transpose");
    let small = filled(&mut rng, 24, 64);
    group.bench_function("transpose_24x64", |b| b.iter(|| black_box(small.transpose())));
    let big = filled(&mut rng, 256, 256);
    group.bench_function("transpose_256x256", |b| b.iter(|| black_box(big.transpose())));
    group.finish();

    let mut group = c.benchmark_group("lstm_seq_24_nodes");
    let mut store = ParamStore::new();
    let cell = LstmCell::new(&mut store, &mut rng, "lstm", 40, 64);
    let xs = filled(&mut rng, 24, 40);
    group.bench_function("tape_forward_seq", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let xv = g.input(xs.clone());
            let hs = cell.forward_seq(&mut g, &store, xv);
            black_box(g.value(hs).get(23, 0))
        })
    });
    group.bench_function("fused_infer_seq", |b| {
        let mut arena = InferArena::new();
        b.iter(|| {
            let out = cell.infer_seq(&store, xs.data(), 24, &mut arena);
            let head = out[23 * 64];
            arena.give(out);
            black_box(head)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tensor_ops);
criterion_main!(benches);
