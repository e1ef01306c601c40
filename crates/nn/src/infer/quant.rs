//! Int8 weight quantization and the f32-accumulating i8 matmul kernel.
//!
//! **Benchmark-pinned.** No model weight goes through this module any
//! more: the int8 serving tier it was built for measured slower than
//! f32 and was deleted (DESIGN.md §13). The module stays, unchanged,
//! only because the repo benchmark times `matmul_q8_into` against
//! `matmul_into`; it goes with the next change to that benchmark. Until
//! then the unsafe kernel compiles, so its unit tests, the unsafe-code
//! lints and the Miri / AddressSanitizer CI steps stay too.
//!
//! A weight matrix is snapshot into a [`QuantizedMatrix`] — symmetric
//! int8 codes with one f32 scale per *row* of the `k x n` right-hand
//! side, so a row's largest-magnitude entry maps to ±127 and an
//! all-zero row gets scale 0. The matmul kernel [`matmul_q8_into`]
//! folds the row scale into the broadcast left-hand scalar
//! (`a[i][kk] * scale[kk]`) and accumulates in f32, so its structure —
//! and its AVX2 / scalar dispatch, including the `force-scalar` feature
//! and Miri — mirrors [`crate::infer::matmul_into`] exactly; the only
//! new instruction is the i8→f32 lane conversion. Per entry the code
//! round-trips to within half a quantization step
//! (`scale/2 = max_abs(row)/254`).

/// A weight matrix frozen to symmetric int8 codes with per-row scales.
///
/// Layout matches the f32 original: `rows x cols`, row-major. Row `r`
/// dequantizes as `q[r][c] as f32 * scales[r]`.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    q: Vec<i8>,
    scales: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `rows x cols` f32 matrix.
    ///
    /// Symmetric scheme: `scale_r = max_abs(row_r) / 127`, codes are
    /// `round(x / scale_r)` clamped to `[-127, 127]` (−128 is never
    /// produced, keeping the code range symmetric). An all-zero row gets
    /// `scale_r = 0` and all-zero codes, so it round-trips exactly.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn quantize(data: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "quantize input length mismatch");
        telemetry::count("infer.quant.build", 1);
        let mut q = Vec::with_capacity(data.len());
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let amax = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            if amax == 0.0 {
                scales.push(0.0);
                q.extend(std::iter::repeat_n(0i8, cols));
                continue;
            }
            scales.push(amax / 127.0);
            let inv = 127.0 / amax;
            for &x in row {
                q.push((x * inv).round().clamp(-127.0, 127.0) as i8);
            }
        }
        Self { q, scales, rows, cols }
    }

    /// Number of rows (the contraction dimension in [`matmul_q8_into`]).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row dequantization scales (length [`QuantizedMatrix::rows`]).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Raw int8 codes, row-major (length `rows * cols`).
    pub fn codes(&self) -> &[i8] {
        &self.q
    }

    /// Expands the matrix back to f32 (`code * row_scale`). Test and
    /// inspection helper; the inference kernels never materialise this.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.q.len());
        for r in 0..self.rows {
            let s = self.scales[r];
            for &code in &self.q[r * self.cols..(r + 1) * self.cols] {
                out.push(code as f32 * s);
            }
        }
        out
    }
}

/// `out = a @ dequantize(b)` for row-major `a` (`m x k`) and a quantized
/// `b` (`k x n`), accumulating in f32.
///
/// The per-row scale is folded into the broadcast left-hand scalar, so
/// each output element accumulates `(a[i][kk] * scale[kk]) * q[kk][j]`
/// over `kk` in the same order as [`crate::infer::matmul_into`]; on CPUs
/// with AVX2+FMA the contraction is fused exactly like the f32 kernel.
/// `out` must have length `m * n`; it is overwritten.
///
/// # Panics
/// Panics if `b.rows() != k` or `out.len() != m * b.cols()`.
pub fn matmul_q8_into(a: &[f32], m: usize, k: usize, b: &QuantizedMatrix, out: &mut [f32]) {
    // Documented under # Panics; every caller passes arena buffers sized
    // from the same QuantizedMatrix, so they cannot fire on the serving
    // path.
    assert_eq!(b.rows(), k, "matmul_q8_into contraction mismatch");
    assert_eq!(a.len(), m * k, "matmul_q8_into lhs length");
    assert_eq!(out.len(), m * b.cols(), "matmul_q8_into out length");
    let _k = telemetry::kernel_span("infer.quant.matmul");
    #[cfg(target_arch = "x86_64")]
    if super::x86::avx2_fma_available() {
        // SAFETY: AVX2+FMA support was verified by the runtime probe on
        // the line above. The shape preconditions (`a.len() == m*k`,
        // `b.codes().len() == k*n`, `out.len() == m*n`) are asserted at
        // entry; the kernel's raw offsets stay in bounds exactly when
        // they hold. No alignment precondition exists: the kernel uses
        // unaligned 8-byte i8 loads and unaligned f32 stores throughout.
        unsafe { x86::matmul_q8_into(a, m, k, b.codes(), b.scales(), b.cols(), out) };
        return;
    }
    matmul_q8_scalar(a, m, k, b.codes(), b.scales(), b.cols(), out);
}

/// Portable i-k-j kernel, accumulating exactly like the scalar f32 path
/// with the row scale folded into the broadcast scalar.
fn matmul_q8_scalar(
    a: &[f32],
    m: usize,
    k: usize,
    bq: &[i8],
    scales: &[f32],
    n: usize,
    out: &mut [f32],
) {
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let avs = av * scales[kk];
            let b_row = &bq[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                *o += avs * bv as f32;
            }
        }
    }
}

/// AVX2+FMA variant of the i8 kernel, dispatched at runtime like the
/// f32 kernels in [`crate::infer`].
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, __m256, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32, _mm256_fmadd_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm_loadl_epi64,
    };

    /// Loads 8 consecutive i8 codes and widens them to f32 lanes.
    ///
    /// # Safety
    /// The CPU must support AVX2 and `p..p+8` must be in bounds — the
    /// 64-bit `_mm_loadl_epi64` reads exactly 8 bytes at an arbitrary
    /// (unaligned) address. `_mm256_cvtepi8_epi32` sign-extends the low
    /// 8 bytes, so codes round-trip exactly (|code| ≤ 127 ≪ 2^24).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load8_i8_as_f32(p: *const i8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(p as *const __m128i)))
    }

    /// Register-tiled i8 matmul microkernel: the tiling (64-wide, then
    /// 8-wide, then scalar columns) and accumulation order mirror the
    /// f32 `x86::matmul_into`; the weight stream is i8 and each 8-lane
    /// block is widened with [`load8_i8_as_f32`] at use.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (callers check the runtime
    /// probe first), and the lengths must satisfy `a.len() == m*k`,
    /// `bq.len() == k*n`, `scales.len() == k` and `out.len() == m*n` —
    /// every raw offset below (`bp.add(kk*n + j)`, `o.add(j)`) stays in
    /// bounds exactly when those hold, which this function re-asserts in
    /// debug builds. There is **no alignment precondition**: i8 loads go
    /// through the unaligned 64-bit `_mm_loadl_epi64` and stores through
    /// `_mm256_storeu_ps`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_q8_into(
        a: &[f32],
        m: usize,
        k: usize,
        bq: &[i8],
        scales: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        debug_assert_eq!(a.len(), m * k, "matmul_q8_into lhs length");
        debug_assert_eq!(bq.len(), k * n, "matmul_q8_into rhs length");
        debug_assert_eq!(scales.len(), k, "matmul_q8_into scales length");
        debug_assert_eq!(out.len(), m * n, "matmul_q8_into out length");
        let bp = bq.as_ptr();
        for i in 0..m {
            // A violated length contract panics here instead of feeding
            // the raw-pointer loops below.
            let a_row = &a[i * k..(i + 1) * k];
            let o = out[i * n..(i + 1) * n].as_mut_ptr();
            let mut j = 0;
            while j + 64 <= n {
                let mut acc: [__m256; 8] = [_mm256_setzero_ps(); 8];
                for (kk, &av) in a_row.iter().enumerate() {
                    let avv = _mm256_set1_ps(av * scales[kk]);
                    let brow = bp.add(kk * n + j);
                    for (l, slot) in acc.iter_mut().enumerate() {
                        *slot = _mm256_fmadd_ps(avv, load8_i8_as_f32(brow.add(8 * l)), *slot);
                    }
                }
                for (l, &slot) in acc.iter().enumerate() {
                    _mm256_storeu_ps(o.add(j + 8 * l), slot);
                }
                j += 64;
            }
            while j + 8 <= n {
                let mut acc = _mm256_setzero_ps();
                for (kk, &av) in a_row.iter().enumerate() {
                    let avv = _mm256_set1_ps(av * scales[kk]);
                    acc = _mm256_fmadd_ps(avv, load8_i8_as_f32(bp.add(kk * n + j)), acc);
                }
                _mm256_storeu_ps(o.add(j), acc);
                j += 8;
            }
            while j < n {
                let mut acc = 0.0f32;
                for (kk, &av) in a_row.iter().enumerate() {
                    acc = (av * scales[kk]).mul_add(*bp.add(kk * n + j) as f32, acc);
                }
                *o.add(j) = acc;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip_err_budget(original: &[f32], qm: &QuantizedMatrix) {
        let deq = qm.dequantize();
        for r in 0..qm.rows() {
            let row = &original[r * qm.cols()..(r + 1) * qm.cols()];
            let half_step = qm.scales()[r] * 0.5 + f32::EPSILON;
            for (c, (&x, &y)) in row.iter().zip(&deq[r * qm.cols()..]).enumerate() {
                assert!(
                    (x - y).abs() <= half_step,
                    "row {r} col {c}: {x} round-tripped to {y} (step {half_step})"
                );
            }
        }
    }

    #[test]
    fn round_trip_random_matrix_within_half_step() {
        let mut rng = StdRng::seed_from_u64(17);
        let (rows, cols) = (13, 29);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let qm = QuantizedMatrix::quantize(&data, rows, cols);
        round_trip_err_budget(&data, &qm);
    }

    #[test]
    fn max_magnitude_entries_round_trip_exactly() {
        // The largest-magnitude entry of each row maps to ±127 exactly,
        // so amax must survive the round trip bit-for-bit up to the
        // scale multiplication.
        let data = vec![1.0, -4.0, 2.0, 0.5, 0.25, -0.125];
        let qm = QuantizedMatrix::quantize(&data, 2, 3);
        let deq = qm.dequantize();
        assert_eq!(deq[1], -4.0, "row-0 amax");
        assert_eq!(deq[3], 0.5, "row-1 amax");
        // And codes saturate at the symmetric bound.
        assert!(qm.codes().iter().all(|&c| (-127..=127).contains(&c)));
    }

    #[test]
    fn all_zero_rows_get_zero_scale_and_exact_round_trip() {
        let data = vec![0.0; 12];
        let qm = QuantizedMatrix::quantize(&data, 3, 4);
        assert_eq!(qm.scales(), &[0.0, 0.0, 0.0]);
        assert!(qm.dequantize().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_element_tensor_round_trips_exactly() {
        for v in [0.0f32, 1.0, -1.0, 1e-20, -3.5e4] {
            let qm = QuantizedMatrix::quantize(&[v], 1, 1);
            assert_eq!(qm.dequantize()[0], v, "single element {v}");
        }
    }

    #[test]
    fn mixed_zero_and_nonzero_rows() {
        let data = vec![0.0, 0.0, 0.0, 2.0, -1.0, 0.5];
        let qm = QuantizedMatrix::quantize(&data, 2, 3);
        assert_eq!(qm.scales()[0], 0.0);
        assert!(qm.scales()[1] > 0.0);
        round_trip_err_budget(&data, &qm);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_input_length() {
        let _ = QuantizedMatrix::quantize(&[1.0, 2.0], 2, 2);
    }

    #[test]
    fn matmul_q8_tracks_dequantized_f32_matmul() {
        // The quantized kernel must agree with an f32 matmul over the
        // *dequantized* weights to FMA-level precision — quantization
        // error lives entirely in the codes, not the kernel.
        let mut rng = StdRng::seed_from_u64(23);
        let (m, k, n) = (5, 67, 139);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let qm = QuantizedMatrix::quantize(&b, k, n);
        let deq = qm.dequantize();
        let mut want = vec![f32::NAN; m * n];
        crate::infer::matmul_into(&a, m, k, &deq, n, &mut want);
        let mut got = vec![f32::NAN; m * n];
        matmul_q8_into(&a, m, k, &qm, &mut got);
        for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
            assert!((g - w).abs() <= 2e-4 * w.abs().max(1.0), "elem {i}: got {g}, want {w}");
        }
    }

    #[test]
    fn simd_and_scalar_kernels_agree() {
        let mut rng = StdRng::seed_from_u64(29);
        let (m, k, n) = (3, 41, 77);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
        let qm = QuantizedMatrix::quantize(&b, k, n);
        let mut dispatched = vec![f32::NAN; m * n];
        matmul_q8_into(&a, m, k, &qm, &mut dispatched);
        let mut scalar = vec![f32::NAN; m * n];
        matmul_q8_scalar(&a, m, k, qm.codes(), qm.scales(), n, &mut scalar);
        for (i, (&g, &w)) in dispatched.iter().zip(scalar.iter()).enumerate() {
            assert!((g - w).abs() <= 1e-5 * w.abs().max(1.0), "elem {i}: simd {g}, scalar {w}");
        }
    }

    #[test]
    fn matmul_q8_single_column_exercises_scalar_tail() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![4.0f32, 5.0, 6.0];
        let qm = QuantizedMatrix::quantize(&b, 3, 1);
        let mut out = vec![f32::NAN; 1];
        matmul_q8_into(&a, 1, 3, &qm, &mut out);
        // 1*4 + 2*5 + 3*6 = 32; exact because 4, 5, 6 quantize exactly
        // only when they are each a row's amax — they are (1 col each).
        assert!((out[0] - 32.0).abs() <= 1e-5);
    }
}
