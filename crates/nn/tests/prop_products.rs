//! The two transposed-operand products backward uses, against the
//! transpose-then-`matmul` they replace: `into += a @ b^T` and
//! `into += a^T @ g`, on random shapes (single rows, inner dimensions
//! off the eight-lane grid and beyond 128) with exact-zero rows, and
//! into a slot that already holds something.

use nn::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random `rows x cols` entries in `[-1, 1)`; every third row is all
/// zeros, alternately `0.0` and `-0.0`, when `zero_rows` is set.
fn random(rng: &mut StdRng, rows: usize, cols: usize, zero_rows: bool) -> Tensor {
    let mut t = Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    for r in (0..rows).step_by(3).filter(|_| zero_rows) {
        for c in 0..cols {
            t.set(r, c, if r % 2 == 0 { 0.0 } else { -0.0 });
        }
    }
    t
}

/// `got == slot + product` to 1e-5 of the largest entry involved.
fn close(got: &Tensor, slot: &Tensor, product: &Tensor) -> Result<(), String> {
    let want = slot.add(product);
    let scale = want.data().iter().fold(1e-3f32, |m, x| m.max(x.abs()));
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        if (g - w).abs() > 1e-5 * scale {
            return Err(format!("element {i}: {g} vs {w} (scale {scale})"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn add_matmul_nt_is_matmul_by_the_transpose(
        seed in 0u64..10_000, m in 1usize..5, k in 1usize..200, n in 1usize..20, zeros in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(&mut rng, m, k, zeros == 1);
        let b = random(&mut rng, n, k, zeros == 1);
        // A slot that is not empty: the product is added, not stored.
        let slot = random(&mut rng, m, n, false);
        let mut into = slot.clone();
        a.add_matmul_nt(&b, &mut into);
        let checked = close(&into, &slot, &a.matmul(&b.transpose()));
        prop_assert!(checked.is_ok(), "{m}x{k} @ ({n}x{k})^T: {}", checked.unwrap_err());
    }

    #[test]
    fn add_matmul_tn_is_the_transpose_by_matmul(
        seed in 0u64..10_000, m in 1usize..5, k in 1usize..200, n in 1usize..20, zeros in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(&mut rng, m, k, zeros == 1);
        let g = random(&mut rng, m, n, false);
        let slot = random(&mut rng, k, n, false);
        let mut into = slot.clone();
        a.add_matmul_tn(&g, &mut into);
        let checked = close(&into, &slot, &a.transpose().matmul(&g));
        prop_assert!(checked.is_ok(), "({m}x{k})^T @ {m}x{n}: {}", checked.unwrap_err());
    }
}

/// The LSTM step's own shapes, which the random ranges above only
/// brush: `1 x 256 · (64 x 256)^T` and `(1 x 94)^T · 1 x 256`.
#[test]
fn products_at_the_lstm_shapes() {
    let mut rng = StdRng::seed_from_u64(21);
    let (gz, wh) = (random(&mut rng, 1, 256, false), random(&mut rng, 64, 256, false));
    let mut dh = Tensor::zeros(1, 64);
    gz.add_matmul_nt(&wh, &mut dh);
    close(&dh, &Tensor::zeros(1, 64), &gz.matmul(&wh.transpose())).unwrap();

    let mut x = random(&mut rng, 1, 94, false);
    for c in (0..94).filter(|c| c % 5 != 0) {
        x.set(0, c, if c % 2 == 0 { 0.0 } else { -0.0 });
    }
    let mut dwx = Tensor::zeros(94, 256);
    x.add_matmul_tn(&gz, &mut dwx);
    close(&dwx, &Tensor::zeros(94, 256), &x.transpose().matmul(&gz)).unwrap();
    // A skipped zero leaves its row of the slot untouched, sign and all.
    assert!(dwx.row_slice(1).iter().all(|v| v.to_bits() == 0));
}
