//! Tape-free inference kernels.
//!
//! The autograd tape in [`crate::graph`] records an `Op` node (and
//! allocates a tensor) for every primitive, which is what training needs and
//! exactly what inference does not: a forward-only pass through the RAAL
//! model allocates dozens of small tensors per plan just to throw them
//! away. The kernels here compute the same math without recording
//! anything, and use arithmetic the tape deliberately avoids so a single
//! prediction runs several times faster than the reference forward pass:
//!
//! * [`matmul_into`] dispatches at runtime to register-tiled FMA
//!   microkernels on x86-64, one body per tile shape stamped out for two
//!   tiers — AVX2 (YMM, 8 lanes) and AVX-512F (ZMM, 16 lanes) — with
//!   scalar branch-free loops elsewhere ([`kernel_tier`] names the
//!   widest in use); tier and tile are chosen from the shape the call
//!   states. One row (`m = 1`: the recurrent and head products) holds 64
//!   output columns in eight YMM accumulators — or, where `n` is whole
//!   multiples of 256, all 256 in sixteen ZMM. Two or more rows against
//!   whole pairs of vectors (the plan layer's `m = n` products,
//!   `k <= 128`) go four rows × two vectors at a time, ZMM where `n`
//!   allows — tails of three and two rows likewise, a last single row as
//!   above — so a weight vector is loaded once per tile, not per row;
//!   and a tile lists, once, the `k` at which any of its rows is
//!   non-zero and runs its FMAs over that list only (the plan
//!   encoder's rows are 61% exact zeros). Skipping `fma(±0, w, acc)`
//!   changes no bit **provided `w` is finite**, which `ModelBundle::load`
//!   enforces. Every other shape takes the per-row tiles;
//! * the LSTM gate activations go through [`fast_exp`], a branch-free
//!   Cephes-style polynomial `exp` whose element loops auto-vectorise
//!   under either tier's target feature —
//!   its exponent is read from the bits of the rounded sum because the
//!   float-to-int `as` cast saturates, and LLVM scalarises that.
//!
//! Per-element accumulation *order* still matches the corresponding
//! graph ops whichever tile runs, so a product returns the same bits
//! however its rows are tiled and at either width, and the only
//! divergence from the tape is FMA contraction and the polynomial `exp`
//! (each ~1e-7 relative). End-to-end agreement within 1e-5 relative
//! error is the property-tested contract
//! (`crates/core/tests/prop_infer.rs`); the per-step tape path remains the
//! exact IEEE-ordered reference. Training runs these kernels too: its
//! fused LSTM and node-attention tape nodes
//! ([`crate::layers::LstmCell::forward_fused`],
//! [`crate::layers::child_attention`]) compute their forward with them.
//!
//! Scratch space comes from an [`InferArena`], a free-list of `Vec<f32>`
//! buffers that callers `take` and `give` back; a steady-state prediction
//! loop performs no heap allocation at all.

use crate::layers::Activation;

pub mod quant;

/// A recycling pool of `f32` scratch buffers for tape-free inference.
///
/// `take(len)` hands out a zeroed buffer of the requested length, reusing
/// a previously returned allocation when one is available (capacity is
/// kept across uses, so a steady-state inference loop stops allocating
/// after the first pass). Buffers are returned with [`InferArena::give`];
/// forgetting to return one is not an error, it just costs a future
/// allocation.
///
/// The arena keeps allocation statistics ([`InferArena::stats`]) so
/// callers — the serving layer in particular — can assert that a warmed
/// loop has genuinely stopped touching the heap.
#[derive(Debug, Default)]
pub struct InferArena {
    free: Vec<Vec<f32>>,
    takes: u64,
    fresh_allocs: u64,
    high_water_len: usize,
}

/// Allocation statistics of an [`InferArena`], read via
/// [`InferArena::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total number of `take` calls.
    pub takes: u64,
    /// `take` calls that had to touch the heap (empty free list, or a
    /// pooled buffer whose capacity was below the requested length).
    pub fresh_allocs: u64,
    /// Largest buffer length ever requested — the scratch high-water mark.
    pub high_water_len: usize,
    /// Buffers currently sitting in the free list.
    pub pooled: usize,
}

/// Upper bound on pooled buffers, so a pathological caller cannot grow
/// the free list without bound.
const MAX_POOLED: usize = 64;

impl InferArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zero-filled buffer of length `len`.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.takes += 1;
        self.high_water_len = self.high_water_len.max(len);
        match self.free.pop() {
            Some(mut buf) => {
                if buf.capacity() < len {
                    self.note_fresh_alloc();
                }
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.note_fresh_alloc();
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if self.free.len() < MAX_POOLED {
            // The free-list grows to at most MAX_POOLED slots during
            // warmup and then reuses them; steady state reclaims buffers
            // without touching the allocator.
            self.free.push(buf);
        }
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            takes: self.takes,
            fresh_allocs: self.fresh_allocs,
            high_water_len: self.high_water_len,
            pooled: self.free.len(),
        }
    }

    fn note_fresh_alloc(&mut self) {
        self.fresh_allocs += 1;
        telemetry::count("infer.arena.alloc", 1);
    }
}

/// `out = a @ b` for row-major `a` (`m x k`) and `b` (`k x n`).
///
/// Each output element accumulates over `k` in the same order as
/// [`crate::tensor::Tensor::matmul`]; on CPUs with AVX2+FMA or AVX-512F
/// (detected at runtime) the products are contracted with fused
/// multiply-adds — the same ones at either width — so the result can
/// differ from the tape in the last bits (~1e-7 relative). `out` is
/// overwritten. `b` must be finite: the multi-row tiles skip products
/// whose inputs are exact zeros (see the module docs).
///
/// # Panics
/// If a slice's length is not the one its shape states.
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    // Once per call and ahead of any dispatch — the SIMD tiers index `b`
    // through raw pointers, so this is the check their `# Safety`
    // contracts rest on, in release builds too. Every caller sizes its
    // operands from the same layer widths.
    assert_eq!(a.len(), m * k, "matmul_into lhs length");
    assert_eq!(b.len(), k * n, "matmul_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_into out length");
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_fma_available() {
        // SAFETY: the runtime probes verified AVX2+FMA on the line
        // above, and AVX-512F before `select_lanes` may answer 16; the
        // three lengths were asserted at entry. No alignment
        // precondition exists: the kernels use unaligned loads/stores
        // throughout.
        unsafe {
            match x86::select_lanes(x86::avx512f_available(), m, k, n) {
                16 => x86::zmm::matmul_into(a, m, k, b, n, out),
                _ => x86::ymm::matmul_into(a, m, k, b, n, out),
            }
        }
        return;
    }
    matmul_into_scalar(a, m, k, b, n, out);
}

/// The widest kernel tier [`matmul_into`] may dispatch to on this CPU
/// and build: `"avx512"`, `"avx2"` or `"scalar"` (always the last under
/// Miri and the `force-scalar` feature). Benchmarks record it beside
/// their numbers, which depend on it. So do trained weights, and every
/// accuracy result read off them: training's fused LSTM and
/// node-attention nodes run these kernels, whose `avx2` and `avx512`
/// tiers agree to the bit (`zmm_kernels_are_bit_equal_to_ymm_kernels`)
/// while `scalar` rounds without FMA.
pub fn kernel_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    match (x86::avx2_fma_available(), x86::avx512f_available()) {
        (true, true) => return "avx512",
        (true, false) => return "avx2",
        (false, _) => {}
    }
    "scalar"
}

/// Portable branch-free i-k-j matmul, accumulating exactly like
/// [`crate::tensor::Tensor::matmul`].
fn matmul_into_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Plain in-order dot product (matches a `m x 1` matmul's accumulation).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// Dot product in eight interleaved partial sums, which vectorise where
/// one running sum — a serial chain the compiler may not reorder — cannot
/// (sixteen are no faster at `k = 256` and 1.6x slower at `k = 32`).
/// Each lane's sum is the same IEEE operations under any target feature,
/// so the result is the same bits on every tier.
#[inline(always)]
pub(crate) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail: f32 = ca.remainder().iter().zip(cb.remainder()).map(|(&x, &y)| x * y).sum();
    let mut acc = [0.0f32; LANES];
    for (x, y) in ca.zip(cb) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s += x * y;
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// `out[j] = a_j · x` for each of the `out.len()` rows `a_j` of
/// row-major `a`: the one-row product `x @ aᵀ` without transposing `a`,
/// each dot in [`dot_lanes`]' partial sums.
///
/// # Panics
/// If `a` is not `out.len()` rows of `x.len()`.
pub(crate) fn dot_rows(a: &[f32], x: &[f32], out: &mut [f32]) {
    let k = x.len();
    assert_eq!(a.len(), out.len() * k, "dot_rows lengths");
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot_lanes(&a[j * k..(j + 1) * k], x);
    }
}

/// In-place `out += alpha * x`.
#[inline]
pub fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy length mismatch");
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o += alpha * v;
    }
}

/// Numerically stable in-place softmax over a slice, with the same
/// max-shift / exp / running-sum / divide order as
/// [`crate::tensor::Tensor::softmax_rows`]. Uses libm `exp` (attention
/// score vectors are short, so exactness is cheap here).
pub fn softmax_inplace(xs: &mut [f32]) {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        // sum >= 1 whenever xs is non-empty since exp(0) = 1 for the max
        // element.
        *x /= sum;
    }
}

/// Logistic sigmoid, identical to the graph op's formula (libm `exp`).
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Branch-free polynomial `exp` (the Cephes `expf` scheme): reduce to
/// `exp(x) = 2^n * exp(f)` with `|f| <= ln(2)/2`, evaluate a degree-5
/// minimax polynomial for `exp(f)`, and rebuild `2^n` with exponent bit
/// arithmetic. Rounding to the nearest integer uses the `+1.5*2^23`
/// trick instead of `round()` (a libm call below SSE4.1), and the
/// integer itself is read off the rounded sum's bits, so the whole
/// function is straight-line float and integer ops and element loops
/// over it auto-vectorise. Relative error is ~2e-7; the input is clamped
/// to ±87.34, so the result saturates instead of overflowing.
#[inline(always)]
#[allow(clippy::excessive_precision)] // Cephes constants kept verbatim
pub fn fast_exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // ln(2) split hi/lo so `x - n*ln2` stays accurate (Cephes constants).
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 * 2^23: adding then subtracting rounds to the nearest integer.
    const RND: f32 = 12_582_912.0;
    let x = x.clamp(-87.336_54, 87.336_54);
    // After the clamp `t` is in [2^23, 2^24), where one ulp is 1: its bits
    // minus `RND`'s *are* the integer `n`. `n as i32` is a saturating
    // cast, which LLVM scalarises inside the otherwise 8-wide loop.
    let t = x * LOG2E + RND;
    let n = t - RND;
    let f = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_15e-4_f32;
    p = p * f + 1.398_199_9e-3;
    p = p * f + 8.333_452e-3;
    p = p * f + 4.166_579_6e-2;
    p = p * f + 1.666_666_5e-1;
    p = p * f + 5.000_000_2e-1;
    let r = (p * f * f + f) + 1.0;
    let scale = f32::from_bits(t.to_bits().wrapping_sub(RND.to_bits()).wrapping_add(127) << 23);
    r * scale
}

/// Sigmoid via [`fast_exp`] (~1e-7 absolute error).
#[inline(always)]
pub fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// Tanh via [`fast_exp`] (~1e-7 absolute error).
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    let e = fast_exp(2.0 * x);
    // e >= 0, so the denominator is at least 1.
    (e - 1.0) / (e + 1.0)
}

/// In-place sigmoid over a slice using [`fast_sigmoid`], 16-wide under
/// AVX-512F, 8-wide under AVX2, where available: the same bits.
pub fn sigmoid_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_fma_available() {
        match x86::avx512f_available() {
            // SAFETY: the probes verified the tier's target feature, the
            // only precondition: the body is safe slice iteration.
            true => unsafe { x86::zmm::sigmoid_slice(xs) },
            // SAFETY: as above, for the AVX2 + FMA tier.
            false => unsafe { x86::ymm::sigmoid_slice(xs) },
        }
        return;
    }
    for x in xs.iter_mut() {
        *x = fast_sigmoid(*x);
    }
}

/// In-place tanh over a slice using [`fast_tanh`], by tier like
/// [`sigmoid_slice`].
pub fn tanh_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_fma_available() {
        match x86::avx512f_available() {
            // SAFETY: as in `sigmoid_slice`, the probed target feature.
            true => unsafe { x86::zmm::tanh_slice(xs) },
            // SAFETY: as above, for the AVX2 + FMA tier.
            false => unsafe { x86::ymm::tanh_slice(xs) },
        }
        return;
    }
    for x in xs.iter_mut() {
        *x = fast_tanh(*x);
    }
}

/// Applies an activation in place. Relu and Identity are exact; Sigmoid
/// and Tanh go through the fast polynomial kernels (~1e-7 absolute).
pub fn activate(xs: &mut [f32], act: Activation) {
    match act {
        Activation::Identity => {}
        Activation::Relu => {
            for x in xs.iter_mut() {
                *x = x.max(0.0);
            }
        }
        Activation::Sigmoid => sigmoid_slice(xs),
        Activation::Tanh => tanh_slice(xs),
    }
}

/// x86-64 SIMD variants of the hot kernels, dispatched at runtime: the
/// matmul tiles are written once and stamped out for `__m256`
/// (AVX2+FMA, `x86::ymm`) and `__m512` (AVX-512F, `x86::zmm`).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256, __m512, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };

    /// The one gate every probe goes through: no vendor intrinsic under
    /// Miri (which cannot execute them) or `force-scalar`, which pins the
    /// portable kernels for sanitizer and differential-testing runs.
    #[inline]
    fn simd_allowed() -> bool {
        !(cfg!(miri) || cfg!(feature = "force-scalar"))
    }

    /// Whether this CPU has AVX2 and FMA (`std` caches the CPUID probe).
    #[inline]
    pub fn avx2_fma_available() -> bool {
        simd_allowed()
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
    }

    /// Whether this CPU has AVX-512F (which implies AVX2 and FMA).
    #[inline]
    pub fn avx512f_available() -> bool {
        simd_allowed() && std::arch::is_x86_feature_detected!("avx512f")
    }

    /// Largest `k` a row tile's stack list of live indices covers; a
    /// longer product keeps the per-row tiles.
    const LIVE_MAX: usize = 128;

    /// Whether a product's rows go through a tier's `row_tile` at
    /// `lanes` lanes to a vector: two or more of them, `n` whole pairs of
    /// vectors, and a live-`k` list that fits. Anything else goes a row
    /// at a time.
    fn row_tiled(lanes: usize, m: usize, k: usize, n: usize) -> bool {
        m >= 2 && k <= LIVE_MAX && n.is_multiple_of(2 * lanes)
    }

    /// Lanes per vector for a product's shape — with [`row_tiled`], the
    /// whole shape → tile choice. 512-bit only where a ZMM tile fills
    /// evenly (a row tile, or the one-row tile's 256 columns), so the
    /// head's narrow one-row products stay on YMM: a cache hit that
    /// touched ZMM for 0.3 us ran 5% slower overall (DESIGN.md §19).
    pub fn select_lanes(avx512: bool, m: usize, k: usize, n: usize) -> usize {
        match avx512 && (row_tiled(16, m, k, n) || n.is_multiple_of(256)) {
            true => 16,
            false => 8,
        }
    }

    /// One body per tile shape and per gate activation, stamped out once
    /// per vector width: `$v` is the register type, `$lanes` its `f32`
    /// lanes, and the last five names its zero / broadcast / unaligned-load
    /// / fused-multiply-add / unaligned-store intrinsics. Per lane each is
    /// the same IEEE operation at either width: the tiers agree bit for bit.
    macro_rules! simd_tier {
        ($tier:ident, $feature:literal, $v:ty, $lanes:literal,
         $zero:ident, $splat:ident, $loadu:ident, $fma:ident, $storeu:ident) => {
            pub mod $tier {
                use super::*;

                /// Vectors a one-row tile holds: half the register file,
                /// which is the lane count at both widths (8 of 16 YMM,
                /// 64 columns; 16 of 32 ZMM, 256: one pass over `Wh`).
                const ROW_VECS: usize = $lanes;

                /// Register-tiled matmul: per row, `ROW_VECS` vectors of
                /// output columns live in accumulators across the whole
                /// `k` loop, so the only streaming traffic is the weight
                /// matrix itself; where [`row_tiled`], rows share each
                /// weight load through [`row_tile`]. Per-element
                /// accumulation order equals the scalar kernel's; only
                /// FMA contraction differs.
                ///
                /// # Safety
                /// The CPU must support this tier's target feature
                /// (callers check the probe first), and the lengths must
                /// satisfy `a.len() == m*k`, `b.len() == k*n` and
                /// `out.len() == m*n` — every raw offset below
                /// (`bp.add(kk*n + j)`, `o.add(j)`) stays in bounds
                /// exactly when those hold, which the safe
                /// [`crate::infer::matmul_into`], the only caller outside
                /// tests, asserts. There is **no alignment
                /// precondition**: all vector memory traffic is
                /// unaligned loads and stores.
                #[target_feature(enable = $feature)]
                pub unsafe fn matmul_into(
                    a: &[f32],
                    m: usize,
                    k: usize,
                    b: &[f32],
                    n: usize,
                    out: &mut [f32],
                ) {
                    // Rows go four (then three or two) at a time through
                    // `row_tile` when the shape allows; a last single
                    // row, and every row of any other shape, takes the
                    // per-row tiles below.
                    let mut i = 0;
                    while row_tiled($lanes, m, k, n) && m - i >= 2 {
                        let rows = (m - i).min(4);
                        let (a_tile, o_tile) =
                            (&a[i * k..(i + rows) * k], &mut out[i * n..(i + rows) * n]);
                        // SAFETY: the target feature is this function's
                        // own precondition; `row_tile` checks every
                        // length it relies on itself.
                        match rows {
                            4 => row_tile::<4>(a_tile, k, b, n, o_tile),
                            3 => row_tile::<3>(a_tile, k, b, n, o_tile),
                            _ => row_tile::<2>(a_tile, k, b, n, o_tile),
                        }
                        i += rows;
                    }
                    let bp = b.as_ptr();
                    for i in i..m {
                        // A violated a = m*k / out = m*n length contract
                        // panics here instead of feeding the raw-pointer
                        // loops below.
                        let a_row = &a[i * k..(i + 1) * k];
                        let o = out[i * n..(i + 1) * n].as_mut_ptr();
                        let mut j = 0;
                        while j + ROW_VECS * $lanes <= n {
                            let mut acc: [$v; ROW_VECS] = [$zero(); ROW_VECS];
                            for (kk, &av) in a_row.iter().enumerate() {
                                let avv = $splat(av);
                                let brow = bp.add(kk * n + j);
                                for (l, slot) in acc.iter_mut().enumerate() {
                                    *slot = $fma(avv, $loadu(brow.add($lanes * l)), *slot);
                                }
                            }
                            for (l, &slot) in acc.iter().enumerate() {
                                $storeu(o.add(j + $lanes * l), slot);
                            }
                            j += ROW_VECS * $lanes;
                        }
                        while j + $lanes <= n {
                            let mut acc = $zero();
                            for (kk, &av) in a_row.iter().enumerate() {
                                acc = $fma($splat(av), $loadu(bp.add(kk * n + j)), acc);
                            }
                            $storeu(o.add(j), acc);
                            j += $lanes;
                        }
                        while j < n {
                            let mut acc = 0.0f32;
                            for (kk, &av) in a_row.iter().enumerate() {
                                acc = av.mul_add(*bp.add(kk * n + j), acc);
                            }
                            *o.add(j) = acc;
                            j += 1;
                        }
                    }
                }

                /// `MR` rows of `a` against all of `b`, two vectors of
                /// output columns at a time in `2 * MR` accumulators. The
                /// `k` whose `MR` inputs are all `== 0.0` are left off a
                /// list built once and walked by every column tile: for a
                /// finite weight `fma(±0, w, acc) == acc`, so each output
                /// element still sees the per-row kernel's FMAs over
                /// ascending `k`, minus the ones that changed nothing.
                ///
                /// # Safety
                /// The CPU must support this tier's target feature. The
                /// lengths the raw offsets rely on — `k <= LIVE_MAX`,
                /// `a.len() == MR * k`, `b.len() == k * n`,
                /// `out.len() == MR * n`, `n` whole pairs of vectors —
                /// are asserted, not assumed. No alignment precondition.
                #[target_feature(enable = $feature)]
                unsafe fn row_tile<const MR: usize>(
                    a: &[f32],
                    k: usize,
                    b: &[f32],
                    n: usize,
                    out: &mut [f32],
                ) {
                    // Never hit under `matmul_into`'s length contract:
                    // the dispatcher slices `a` and `out` to whole tiles
                    // and comes here only where `row_tiled`.
                    assert!(k <= LIVE_MAX && a.len() == MR * k);
                    assert!(
                        b.len() == k * n && out.len() == MR * n && n.is_multiple_of(2 * $lanes)
                    );
                    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
                    let mut live = [0usize; LIVE_MAX];
                    let mut len = 0;
                    for kk in 0..k {
                        live[len] = kk;
                        len += usize::from((0..MR).any(|r| a[r * k + kk] != 0.0));
                    }
                    for j in (0..n).step_by(2 * $lanes) {
                        let mut acc: [[$v; 2]; MR] = [[$zero(); 2]; MR];
                        for &kk in &live[..len] {
                            // SAFETY: list entries are < k, columns
                            // j + 2 * lanes <= n and tile rows r < MR: the
                            // b loads end inside its k * n elements, the a
                            // reads inside MR * k.
                            let b0 = $loadu(bp.add(kk * n + j));
                            let b1 = $loadu(bp.add(kk * n + j + $lanes));
                            for (r, [lo, hi]) in acc.iter_mut().enumerate() {
                                let av = $splat(*ap.add(r * k + kk));
                                *lo = $fma(av, b0, *lo);
                                *hi = $fma(av, b1, *hi);
                            }
                        }
                        for (r, &[lo, hi]) in acc.iter().enumerate() {
                            // SAFETY: tile rows r < MR and columns
                            // j + 2 * lanes <= n, so both stores end
                            // inside out's MR * n elements.
                            $storeu(op.add(r * n + j), lo);
                            $storeu(op.add(r * n + j + $lanes), hi);
                        }
                    }
                }

                /// # Safety
                /// The CPU must support this tier's target feature — the
                /// only precondition. The body is the scalar loop over a
                /// safe slice (no raw pointers, so no length or alignment
                /// obligations); compiling it with the feature lets LLVM
                /// vectorise `fast_sigmoid` `$lanes`-wide.
                #[target_feature(enable = $feature)]
                pub unsafe fn sigmoid_slice(xs: &mut [f32]) {
                    for x in xs.iter_mut() {
                        *x = crate::infer::fast_sigmoid(*x);
                    }
                }

                /// # Safety
                /// As [`sigmoid_slice`]: the target feature only.
                #[target_feature(enable = $feature)]
                pub unsafe fn tanh_slice(xs: &mut [f32]) {
                    for x in xs.iter_mut() {
                        *x = crate::infer::fast_tanh(*x);
                    }
                }
            }
        };
    }
    simd_tier! { ymm, "avx2,fma", __m256, 8,
    _mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps, _mm256_fmadd_ps, _mm256_storeu_ps }
    simd_tier! { zmm, "avx512f", __m512, 16,
    _mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps, _mm512_fmadd_ps, _mm512_storeu_ps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn arena_recycles_capacity() {
        let mut arena = InferArena::new();
        let mut buf = arena.take(8);
        buf[0] = 5.0;
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        arena.give(buf);
        let again = arena.take(4);
        assert_eq!(again.as_ptr(), ptr, "allocation was reused");
        assert!(again.capacity() >= cap.min(8));
        assert!(again.iter().all(|&x| x == 0.0), "buffer comes back zeroed");
    }

    #[test]
    fn matmul_into_matches_tensor_matmul_exactly_on_small_ints() {
        // Integer-valued inputs: FMA contraction is exact, so even the
        // SIMD kernel must agree bit-for-bit with the tape matmul.
        let a = Tensor::from_vec(2, 3, vec![1., -2., 3., 0., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let want = a.matmul(&b);
        let mut out = vec![f32::NAN; 4];
        matmul_into(a.data(), 2, 3, b.data(), 2, &mut out);
        assert_eq!(out, want.data());
    }

    #[test]
    fn matmul_into_tracks_reference_on_awkward_shapes() {
        // 5 x 67 @ 67 x 139 exercises the 64-wide tile, the 8-wide tile
        // and the scalar remainder columns of the SIMD kernel.
        let mut rng = StdRng::seed_from_u64(41);
        let (m, k, n) = (5, 67, 139);
        let a = Tensor::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect());
        let b = Tensor::from_vec(k, n, (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect());
        let want = a.matmul(&b);
        let mut out = vec![f32::NAN; m * n];
        matmul_into(a.data(), m, k, b.data(), n, &mut out);
        for (&got, &w) in out.iter().zip(want.data()) {
            assert!((got - w).abs() <= 1e-5 * w.abs().max(1.0), "got {got}, want {w}");
        }
    }

    #[test]
    fn matmul_into_row_tiles_are_bit_equal_to_single_rows() {
        // Every row-tile tail (m % 4), k past the live-index bound, every
        // 16-column count that is served plus 139 (no tile path), over
        // inputs from dense to all-zero with `-0.0` and whole zero
        // columns among them: the tiles and their zero-skip must not
        // change one bit of what `m` separate one-row products return.
        let mut rng = StdRng::seed_from_u64(19);
        let (ms, ks, ns): (&[usize], &[usize], &[usize]) = if cfg!(miri) {
            (&[1, 2, 7, 9], &[7, 130], &[16, 48, 139])
        } else {
            (&[1, 2, 3, 4, 5, 6, 7, 8, 9], &[1, 7, 64, 94, 300], &[16, 32, 48, 64, 256, 139])
        };
        for &k in ks {
            for &n in ns {
                let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                for &m in ms {
                    for zero_pct in [0.0, 0.3, 0.61, 0.9, 1.0] {
                        let dead: Vec<bool> =
                            (0..k).map(|_| rng.gen_bool(zero_pct / 2.0)).collect();
                        let a: Vec<f32> = (0..m * k)
                            .map(|at| match (dead[at % k] || rng.gen_bool(zero_pct), at % 3) {
                                (true, 0) => -0.0,
                                (true, _) => 0.0,
                                (false, _) => rng.gen_range(-2.0f32..2.0),
                            })
                            .collect();
                        let mut got = vec![f32::NAN; m * n];
                        matmul_into(&a, m, k, &b, n, &mut got);
                        let mut want = vec![f32::NAN; m * n];
                        for (row, out) in a.chunks(k).zip(want.chunks_mut(n)) {
                            matmul_into(row, 1, k, &b, n, out);
                        }
                        assert_eq!(bits(&got), bits(&want), "m {m} k {k} n {n} zeros {zero_pct}");
                    }
                }
            }
        }
    }

    /// One element missing from each operand in turn. A short `b` is the
    /// case only the wrapper's own check catches: the SIMD tiers read it
    /// through raw pointers (a release build of the parent returned
    /// `out[0] = 1` for `1 x 64 . 64 x 64` against a 64-element `b`).
    mod matmul_into_panics_on_a_short_operand {
        use super::super::matmul_into;

        #[test]
        #[should_panic(expected = "matmul_into lhs length")]
        fn lhs() {
            matmul_into(&[1.0; 63], 1, 64, &[1.0; 64 * 64], 64, &mut [0.0; 64]);
        }

        #[test]
        #[should_panic(expected = "matmul_into rhs length")]
        fn rhs() {
            matmul_into(&[1.0; 64], 1, 64, &[1.0; 64 * 64 - 1], 64, &mut [0.0; 64]);
        }

        #[test]
        #[should_panic(expected = "matmul_into out length")]
        fn out() {
            matmul_into(&[1.0; 64], 1, 64, &[1.0; 64 * 64], 64, &mut [0.0; 63]);
        }
    }

    #[test]
    fn kernel_tier_names_what_the_probes_allow() {
        let tier = kernel_tier();
        println!("kernel_tier: {tier}");
        if cfg!(miri) || cfg!(feature = "force-scalar") {
            assert_eq!(tier, "scalar");
        }
        assert!(["avx512", "avx2", "scalar"].contains(&tier));
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn select_lanes_keeps_narrow_one_row_products_off_zmm() {
        // What `predict_with_context` issues on a cache hit, and Conv1d's
        // window product: never 512-bit, whatever the CPU has.
        for (m, k, n) in [(1, 7, 32), (1, 143, 64), (1, 64, 32), (1, 32, 1), (1, 282, 64)] {
            assert_eq!(x86::select_lanes(true, m, k, n), 8, "{m} x {k} . {k} x {n}");
        }
        // The plan layer's three products, and shapes no ZMM tile fills.
        for (m, k, n, lanes) in [
            (19, 94, 256, 16),
            (1, 64, 256, 16),
            (2, 64, 32, 16),
            (34, 64, 32, 16),
            (5, 300, 256, 16),
            (5, 300, 32, 8),
            (5, 64, 48, 8),
            (1, 64, 128, 8),
            (9, 64, 139, 8),
        ] {
            assert_eq!(x86::select_lanes(true, m, k, n), lanes, "{m} x {k} . {k} x {n}");
            assert_eq!(x86::select_lanes(false, m, k, n), 8, "{m} x {k} . {k} x {n}, no avx512f");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn zmm_kernels_are_bit_equal_to_ymm_kernels() {
        // Both entry points called directly on every shape, so the ZMM
        // kernel also crosses the ones `select_lanes` keeps on YMM.
        if !x86::avx512f_available() {
            println!("skipped: no avx512f");
            return;
        }
        let mut rng = StdRng::seed_from_u64(23);
        let mut check = |m: usize, k: usize, n: usize, zero_pct: f64| {
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let a: Vec<f32> = (0..m * k)
                .map(|at| match (rng.gen_bool(zero_pct), at % 3) {
                    (true, 0) => -0.0,
                    (true, _) => 0.0,
                    (false, _) => rng.gen_range(-2.0f32..2.0),
                })
                .collect();
            let (mut ymm, mut zmm) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
            // SAFETY: AVX-512F (hence AVX2 and FMA) was probed above, and
            // the three operands are built to the lengths the shape states.
            unsafe {
                x86::ymm::matmul_into(&a, m, k, &b, n, &mut ymm);
                x86::zmm::matmul_into(&a, m, k, &b, n, &mut zmm);
            }
            assert_eq!(bits(&ymm), bits(&zmm), "m {m} k {k} n {n} zeros {zero_pct}");
        };
        // The served shapes.
        for zero_pct in [0.0, 0.61, 1.0] {
            check(19, 94, 256, zero_pct);
        }
        check(1, 64, 256, 0.0);
        for m in 1..=34 {
            check(m, 64, 32, 0.0);
        }
        // Every row-tile tail, `k` past the live-index bound, column
        // counts with one-vector and scalar tails at either width.
        for m in 1..=9 {
            for k in [1, 7, 64, 94, 300] {
                for n in [16, 32, 48, 64, 96, 256, 139] {
                    check(m, k, n, 0.5);
                }
            }
        }
        // The gate activations, vector tails and saturating inputs included.
        let xs: Vec<f32> = (0..103).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let (mut ys, mut yt, mut zs, mut zt) = (xs.clone(), xs.clone(), xs.clone(), xs);
        // SAFETY: AVX-512F (hence AVX2 and FMA) was probed above.
        unsafe {
            x86::ymm::sigmoid_slice(&mut ys);
            x86::ymm::tanh_slice(&mut yt);
            x86::zmm::sigmoid_slice(&mut zs);
            x86::zmm::tanh_slice(&mut zt);
        }
        assert_eq!((bits(&ys), bits(&yt)), (bits(&zs), bits(&zt)));
    }

    #[test]
    fn softmax_inplace_matches_softmax_rows() {
        let t = Tensor::row(&[0.3, -1.7, 2.5, 0.0]);
        let want = t.softmax_rows();
        let mut xs = t.data().to_vec();
        softmax_inplace(&mut xs);
        assert_eq!(xs, want.data());
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
        let mut out = vec![1.0, 1.0];
        axpy(&mut out, 2.0, &[3.0, 4.0]);
        assert_eq!(out, vec![7.0, 9.0]);
    }

    #[test]
    fn fast_exp_tracks_libm() {
        let mut x = -86.0f32;
        while x < 86.0 {
            let got = fast_exp(x);
            let want = x.exp();
            assert!((got - want).abs() <= 1e-6 * want, "exp({x}): got {got}, want {want}");
            x += 0.1373;
        }
        assert_eq!(fast_exp(-1000.0), (-87.336_54f32).exp());
        assert!(fast_exp(1000.0).is_finite(), "saturates instead of inf");
    }

    #[test]
    #[allow(clippy::excessive_precision)]
    fn fast_exp_bit_exponent_is_bit_equal_to_the_cast() {
        // `fast_exp` as it read while the exponent came from `n as i32`.
        fn cast_exp(x: f32) -> f32 {
            const RND: f32 = 12_582_912.0;
            let x = x.clamp(-87.336_54, 87.336_54);
            let n = (x * std::f32::consts::LOG2_E + RND) - RND;
            let f = (x - n * 0.693_359_375) - n * -2.121_944_4e-4;
            let mut p = 1.987_569_15e-4_f32;
            p = p * f + 1.398_199_9e-3;
            p = p * f + 8.333_452e-3;
            p = p * f + 4.166_579_6e-2;
            p = p * f + 1.666_666_5e-1;
            p = p * f + 5.000_000_2e-1;
            let r = (p * f * f + f) + 1.0;
            r * f32::from_bits(((n as i32 + 127) as u32) << 23)
        }
        let step = if cfg!(miri) { 0.37 } else { 0.000_37 };
        let mut x = -90.0f32;
        while x <= 90.0 {
            assert_eq!(fast_exp(x).to_bits(), cast_exp(x).to_bits(), "exp({x})");
            x += step;
        }
        let ends = [-87.336_54f32, 87.336_54, -1000.0, 1000.0, f32::NEG_INFINITY, f32::INFINITY];
        for x in [0.0, -0.0].into_iter().chain(ends) {
            assert_eq!(fast_exp(x).to_bits(), cast_exp(x).to_bits(), "exp({x})");
        }
        assert!(fast_exp(f32::NAN).is_nan());
    }

    #[test]
    fn fast_sigmoid_and_tanh_track_libm() {
        let mut x = -30.0f32;
        while x < 30.0 {
            assert!((fast_sigmoid(x) - sigmoid(x)).abs() <= 1e-6, "sigmoid({x})");
            assert!((fast_tanh(x) - x.tanh()).abs() <= 1e-6, "tanh({x})");
            x += 0.0917;
        }
    }

    #[test]
    fn slice_activations_match_scalar_kernels() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f32> = (0..103).map(|_| rng.gen_range(-12.0f32..12.0)).collect();
        let mut s = xs.clone();
        sigmoid_slice(&mut s);
        let mut t = xs.clone();
        tanh_slice(&mut t);
        for (i, &x) in xs.iter().enumerate() {
            assert!((s[i] - fast_sigmoid(x)).abs() <= 1e-6);
            assert!((t[i] - fast_tanh(x)).abs() <= 1e-6);
        }
        let mut a = xs.clone();
        activate(&mut a, Activation::Sigmoid);
        assert_eq!(a, s);
    }
}
