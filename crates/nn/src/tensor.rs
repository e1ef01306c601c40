//! Dense row-major 2-D tensors of `f32`.
//!
//! Everything in the RAAL model is small (latent dimension K = 32, plan
//! sequences of at most a few dozen nodes), so a simple contiguous `Vec<f32>`
//! with explicit shapes outperforms anything fancier and keeps the autograd
//! engine easy to verify against finite differences.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Boundary, in bytes, [`Tensor::align`] puts the first element on: one
/// cache line, so no 32-byte vector load at a multiple of eight elements
/// straddles two.
const LINE_BYTES: usize = 64;

/// A dense row-major matrix of `f32`. Vectors are represented as `1 x n`
/// (row) or `n x 1` (column) matrices.
#[derive(Clone)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    /// `lead` unused elements, then the row-major ones.
    buf: Vec<f32>,
    /// Front padding of `buf`; non-zero only after [`Tensor::align`].
    lead: usize,
}

/// Shape and elements; where the elements sit in memory is not part of a
/// tensor's value.
impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.data() == other.data()
    }
}

/// The derive's format (`rows`, `cols`, `data`), without the padding.
impl Serialize for Tensor {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rows".to_string(), self.rows.to_value()),
            ("cols".to_string(), self.cols.to_value()),
            ("data".to_string(), self.data().to_value()),
        ])
    }
}

impl Deserialize for Tensor {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| match v {
            Value::Object(_) => v
                .get(name)
                .ok_or_else(|| DeError::new(format!("missing field `{name}` in Tensor"))),
            other => Err(DeError::new(format!("expected object for Tensor, found {other:?}"))),
        };
        Ok(Tensor {
            rows: usize::from_value(field("rows")?)?,
            cols: usize::from_value(field("cols")?)?,
            buf: Vec::from_value(field("data")?)?,
            lead: 0,
        })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data())?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "shape {}x{} does not match data length {}",
            rows,
            cols,
            data.len()
        );
        Self { rows, cols, buf: data, lead: 0 }
    }

    /// Creates a `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self::from_vec(rows, cols, vec![value; rows * cols])
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn col(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates a `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data().len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        // PANIC-FREE: `lead` is 0 or the padding `align` itself put in
        // front of the elements, so it never exceeds `buf.len()`.
        &self.buf[self.lead..]
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.lead..]
    }

    /// Moves the elements so that the first one sits on a cache-line
    /// boundary, unless it already does. Nothing a caller can observe
    /// through this type changes; what changes is that the inference
    /// kernels' 32-byte loads of this tensor no longer straddle cache
    /// lines on some runs and not on others — where the allocator puts a
    /// plain `Vec<f32>` differs from run to run, and on the LSTM weights
    /// that was worth 10% of a served prediction. [`crate::ParamStore`]
    /// aligns every parameter value; nothing else needs to.
    pub fn align(&mut self) {
        let slack = LINE_BYTES / std::mem::size_of::<f32>() - 1;
        if self.is_empty() || self.data().as_ptr().align_offset(LINE_BYTES) == 0 {
            return;
        }
        let mut buf: Vec<f32> = Vec::with_capacity(self.len() + slack);
        let lead = buf.as_ptr().align_offset(LINE_BYTES);
        if lead > slack {
            // `align_offset` may decline to answer (Miri does).
            return;
        }
        buf.resize(lead, 0.0);
        buf.extend_from_slice(self.data());
        self.buf = buf;
        self.lead = lead;
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data()[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let i = r * self.cols + c;
        self.data_mut()[i] = v;
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data()[r * self.cols..(r + 1) * self.cols]
    }

    /// Extracts the single element of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data()[0]
    }

    /// Matrix product `self @ rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; m * n];
        let (a, b) = (self.data(), rhs.data());
        // i-k-j loop order: streams through `rhs` rows, cache friendly.
        // Deliberately branch-free: a zero-skip test on `a` costs an
        // unpredictable branch per inner row and blocks vectorisation,
        // which is a net loss on the mostly-dense activations seen here
        // (adding `0.0 * b` leaves the f32 accumulation unchanged).
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(m, n, out)
    }

    /// `into += self @ rhs^T` without building the transpose: element
    /// `(i, j)` is the dot product of row `i` of `self` and row `j` of
    /// `rhs`. Backward's `dA += g @ B^T`. Panics on shape mismatch.
    pub fn add_matmul_nt(&self, rhs: &Tensor, into: &mut Tensor) {
        assert_eq!(self.cols, rhs.cols, "add_matmul_nt inner-dimension mismatch");
        assert_eq!(into.shape(), (self.rows, rhs.rows), "add_matmul_nt output shape mismatch");
        let (k, n) = (self.cols, rhs.rows);
        let (a, b) = (self.data(), rhs.data());
        for (i, o_row) in into.data_mut().chunks_mut(n.max(1)).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for (j, o) in o_row.iter_mut().enumerate() {
                *o += dot(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// `into += self^T @ g` without building the transpose or the
    /// product: row `kk` of `into` gains `self[i][kk] * g[i]` for every
    /// row `i`. Backward's `dB += A^T @ g`. Exact zeros of `self` are
    /// skipped — here, unlike in [`Tensor::matmul`], a whole row of work
    /// hangs on one test, and an encoded plan node is 61% zeros. Panics
    /// on shape mismatch.
    pub fn add_matmul_tn(&self, g: &Tensor, into: &mut Tensor) {
        assert_eq!(self.rows, g.rows, "add_matmul_tn inner-dimension mismatch");
        assert_eq!(into.shape(), (self.cols, g.cols), "add_matmul_tn output shape mismatch");
        let (k, n) = (self.cols, g.cols);
        let out = into.data_mut();
        for (a_row, g_row) in self.data().chunks(k.max(1)).zip(g.data().chunks(n.max(1))) {
            for (kk, &a) in a_row.iter().enumerate() {
                if a != 0.0 {
                    for (o, &g) in out[kk * n..(kk + 1) * n].iter_mut().zip(g_row) {
                        *o += a * g;
                    }
                }
            }
        }
    }

    /// Transposed copy. Processes square blocks so both the source reads
    /// and destination writes stay within a few cache lines, instead of
    /// striding the full output column-by-column.
    pub fn transpose(&self) -> Tensor {
        const BLOCK: usize = 32;
        let src = self.data();
        let mut out = vec![0.0f32; src.len()];
        for rb in (0..self.rows).step_by(BLOCK) {
            let r_end = (rb + BLOCK).min(self.rows);
            for cb in (0..self.cols).step_by(BLOCK) {
                let c_end = (cb + BLOCK).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out[c * self.rows + r] = src[r * self.cols + c];
                    }
                }
            }
        }
        Tensor::from_vec(self.cols, self.rows, out)
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.rows, self.cols, self.data().iter().map(|&x| f(x)).collect())
    }

    /// Element-wise binary combination into a new tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "zip shape mismatch");
        Tensor::from_vec(
            self.rows,
            self.cols,
            self.data().iter().zip(rhs.data()).map(|(&a, &b)| f(a, b)).collect(),
        )
    }

    /// In-place `self += alpha * rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += alpha * b;
        }
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| alpha * x)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Fills the tensor with zeros, keeping its allocation.
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(0.0);
    }

    /// Vertical concatenation (stacking rows).
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of zero tensors");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows column mismatch");
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Horizontal concatenation (side by side).
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols row mismatch");
                data.extend_from_slice(p.row_slice(r));
            }
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Copy of rows `[start, start + len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.rows, "slice_rows out of range");
        Tensor::from_vec(
            len,
            self.cols,
            self.data()[start * self.cols..(start + len) * self.cols].to_vec(),
        )
    }

    /// Copy of columns `[start, start + len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.cols, "slice_cols out of range");
        let mut data = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            let row = self.row_slice(r);
            data.extend_from_slice(&row[start..start + len]);
        }
        Tensor::from_vec(self.rows, len, data)
    }

    /// Numerically stable softmax applied independently to each row.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        let cols = out.cols;
        for row in out.data_mut().chunks_mut(cols.max(1)) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        out
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|x| x.is_finite())
    }
}

/// Dot product in eight interleaved partial sums, which vectorise where
/// one running sum — a serial chain the compiler may not reorder — cannot
/// (sixteen are no faster at `k = 256` and 1.6x slower at `k = 32`).
fn dot(a: &[f32], b: &[f32]) -> f32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.row_slice(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![3., -1., 0.5, 2.]);
        let i = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn transpose_beyond_one_block() {
        // Shape chosen to exercise partial edge blocks in both axes.
        let (r, c) = (70, 33);
        let t = Tensor::from_vec(r, c, (0..r * c).map(|i| i as f32).collect());
        let tt = t.transpose();
        assert_eq!(tt.shape(), (c, r));
        for i in 0..r {
            for j in 0..c {
                assert_eq!(tt.get(j, i), t.get(i, j));
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::row(&[1., 2., 3.]);
        let b = Tensor::row(&[4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.hadamard(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.sum(), 6.0);
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(2, 3, vec![4., 5., 6., 7., 8., 9.]);
        let cat = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(cat.shape(), (3, 3));
        assert_eq!(cat.slice_rows(0, 1), a);
        assert_eq!(cat.slice_rows(1, 2), b);

        let c = Tensor::from_vec(2, 1, vec![10., 20.]);
        let d = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let side = Tensor::concat_cols(&[&c, &d]);
        assert_eq!(side.data(), &[10., 1., 2., 20., 3., 4.]);
        assert_eq!(side.slice_cols(0, 1), c);
        assert_eq!(side.slice_cols(1, 2), d);
    }

    #[test]
    fn softmax_rows_is_a_distribution() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 1000., 1000., 1000.]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large inputs must not overflow (stability shift).
        assert!(s.all_finite());
        // Row of equal logits -> uniform.
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    /// Not under Miri: its `align_offset` declines to answer, and
    /// `align` then leaves the tensor where it is.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn align_moves_the_elements_to_a_cache_line_and_changes_nothing_else() {
        // Several sizes, so that whatever the allocator's habits some of
        // the plain vectors start off a line boundary.
        for n in [2usize, 3, 8, 17, 64, 256, 1000] {
            let plain = Tensor::from_vec(1, n, (0..n).map(|i| i as f32).collect());
            let mut t = plain.clone();
            t.align();
            assert_eq!(t.data().as_ptr() as usize % LINE_BYTES, 0, "n = {n}");
            assert_eq!(t, plain);
            assert_eq!((t.len(), t.shape()), (n, (1, n)));
            assert_eq!(t.get(0, n - 1), (n - 1) as f32);
            assert_eq!(serde_json::to_string(&t).unwrap(), serde_json::to_string(&plain).unwrap());
            t.data_mut()[0] = -1.0;
            t.set(0, n - 1, -2.0);
            assert_eq!((t.data()[0], t.row_slice(0)[n - 1]), (-1.0, -2.0));
            let kept = t.data().as_ptr();
            t.align();
            assert_eq!(t.data().as_ptr(), kept, "an aligned tensor is left where it is");
        }
        let mut empty = Tensor::zeros(0, 0);
        empty.align();
        assert!(empty.is_empty());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(1, 3);
        a.axpy(2.0, &Tensor::row(&[1., 2., 3.]));
        assert_eq!(a.data(), &[2., 4., 6.]);
    }
}
