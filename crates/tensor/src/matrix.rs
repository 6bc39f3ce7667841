//! Dense, row-major `f64` matrix.
//!
//! [`Matrix`] is deliberately simple: a shape plus a flat `Vec<f64>`. It is
//! the only tensor type the workspace needs — the paper's model is a plain
//! multi-layer perceptron, so rank-2 is sufficient (vectors are `1 x n` or
//! `n x 1` matrices, or plain slices for the kernels in [`crate::ops`]).

use crate::error::TensorError;
use crate::kernels;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Multiply-add count (`m·k·n`) below which matmuls stay on the calling
/// thread: scoped-thread spawns cost more than they save on the small
/// per-group products that dominate training, while the batch-embed and
/// backward products sit far above this line.
const PAR_MIN_WORK: usize = 1 << 18;

/// Effective worker count for an `m·k·n` product: 1 below a size threshold,
/// [`rll_par::configured_threads`] above it. The work estimate uses
/// [`rll_par::saturating_work`] so adversarial shapes saturate instead of
/// wrapping (a wrapped product would land under the threshold and serialize
/// a huge matmul). Purely a scheduling decision — results are bitwise
/// identical either way. The size-picking entry points ([`Matrix::matmul`]
/// and friends) use it; callers of the `*_with_threads` variants can too.
pub fn matmul_threads(m: usize, k: usize, n: usize) -> usize {
    rll_par::threads_for_work(
        rll_par::saturating_work(&[m, k, n]),
        PAR_MIN_WORK,
        rll_par::configured_threads(),
    )
}

/// Checks segment ends for the segmented reductions: at least one, never
/// decreasing, and the last one covering all `rows`.
fn check_segment_ends(ends: &[usize], rows: usize) -> Result<()> {
    let ascending = ends.windows(2).all(|w| w[0] <= w[1]);
    if ends.last() != Some(&rows) || !ascending {
        return Err(TensorError::InvalidParameter {
            name: "segment ends",
            reason: format!("need ascending ends finishing at {rows} rows, got {ends:?}"),
        });
    }
    Ok(())
}

/// A dense row-major matrix of `f64` values.
///
/// Rows are contiguous in memory: element `(r, c)` lives at `data[r * cols + c]`.
/// All arithmetic entry points validate shapes and return
/// [`TensorError::ShapeMismatch`] on misuse rather than panicking.
///
/// ```
/// use rll_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// assert!(a.matmul(&b)?.approx_eq(&a, 1e-12));
/// assert_eq!(a.transpose().at(0, 1), 3.0);
/// # Ok::<(), rll_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Wraps an existing row-major buffer.
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// Returns [`TensorError::LengthMismatch`] if row lengths differ and
    /// [`TensorError::Empty`] for an empty row list.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(TensorError::Empty { op: "from_rows" });
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(TensorError::LengthMismatch {
                    expected: ncols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    // ------------------------------------------------------------------
    // Shape and element access
    // ------------------------------------------------------------------

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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Checked element read.
    pub fn get(&self, r: usize, c: usize) -> Result<f64> {
        if r >= self.rows || c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (r, c),
                shape: self.shape(),
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Checked element write.
    pub fn set(&mut self, r: usize, c: usize, value: f64) -> Result<()> {
        if r >= self.rows || c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (r, c),
                shape: self.shape(),
            });
        }
        self.data[r * self.cols + c] = value;
        Ok(())
    }

    /// Unchecked element read (debug-asserted). Prefer [`Matrix::get`] outside
    /// hot loops.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Unchecked element write (debug-asserted).
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> Result<&[f64]> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: (r, 0),
                shape: self.shape(),
            });
        }
        Ok(&self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Borrow row `r` mutably.
    pub fn row_mut(&mut self, r: usize) -> Result<&mut [f64]> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: (r, 0),
                shape: self.shape(),
            });
        }
        let cols = self.cols;
        Ok(&mut self.data[r * cols..(r + 1) * cols])
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Result<Vec<f64>> {
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (0, c),
                shape: self.shape(),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect())
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Builds a new matrix from the given row indices (rows may repeat).
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            if r >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: (r, 0),
                    shape: self.shape(),
                });
            }
            data.extend_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Stacks two matrices vertically (`self` on top of `other`).
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Stacks two matrices horizontally (`self` to the left of `other`).
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
            data.extend_from_slice(&other.data[r * other.cols..(r + 1) * other.cols]);
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two equally-shaped matrices elementwise with `f`.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        self.check_same_shape("zip_map", other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<()> {
        self.check_same_shape("add_assign", other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += scale * other` (the axpy kernel used by optimizers).
    pub fn add_scaled(&mut self, other: &Matrix, scale: f64) -> Result<()> {
        self.check_same_shape("add_scaled", other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f64) -> Matrix {
        self.map(|x| x * scalar)
    }

    /// In-place multiplication by a scalar.
    pub fn scale_inplace(&mut self, scalar: f64) {
        for x in &mut self.data {
            *x *= scalar;
        }
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    // ------------------------------------------------------------------
    // Broadcasting helpers
    // ------------------------------------------------------------------

    /// Adds a `1 x cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Result<Matrix> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] += row.data[c];
            }
        }
        Ok(out)
    }

    /// Multiplies every row elementwise by a `1 x cols` row vector.
    pub fn mul_row_broadcast(&self, row: &Matrix) -> Result<Matrix> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "mul_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] *= row.data[c];
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self * other`.
    ///
    /// Large products are row-blocked across
    /// [`rll_par::configured_threads`] workers. See
    /// [`Self::matmul_with_threads`] for the determinism contract.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_with_threads(other, matmul_threads(self.rows, self.cols, other.cols))
    }

    /// [`Self::matmul`] with an explicit worker-thread count (no size
    /// heuristic — the caller decides).
    ///
    /// Bitwise-deterministic: output rows are partitioned into contiguous
    /// blocks and every element is produced by exactly one worker running
    /// the single-accumulator, ascending-`p` reduction chain of the serial
    /// dense loop (DESIGN.md §17), so the result is identical for
    /// every `threads` value (including 1).
    pub fn matmul_with_threads(&self, other: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0; m * n];
        kernels::matmul_nn(
            &self.data,
            &other.data,
            None,
            &mut out,
            k,
            n,
            threads.max(1),
        );
        Ok(Matrix {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Fused `self * other + bias` (bias broadcast over rows): bitwise
    /// identical to `self.matmul(other)?.add_row_broadcast(bias)?` — the
    /// bias joins each element after its accumulation chain completes — but
    /// without materializing the intermediate product. This is the affine
    /// layer's hot path.
    pub fn matmul_bias(&self, other: &Matrix, bias: &Matrix) -> Result<Matrix> {
        self.matmul_bias_with_threads(
            other,
            bias,
            matmul_threads(self.rows, self.cols, other.cols),
        )
    }

    /// [`Self::matmul_bias`] with an explicit worker-thread count.
    pub fn matmul_bias_with_threads(
        &self,
        other: &Matrix,
        bias: &Matrix,
        threads: usize,
    ) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if bias.rows != 1 || bias.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: (1, other.cols),
                rhs: bias.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0; m * n];
        kernels::matmul_nn(
            &self.data,
            &other.data,
            Some(&bias.data),
            &mut out,
            k,
            n,
            threads.max(1),
        );
        Ok(Matrix {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Computes `self^T * other` without materializing the transpose. Large
    /// products are row-blocked like [`Self::matmul`].
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_tn_with_threads(other, matmul_threads(self.rows, self.cols, other.cols))
    }

    /// [`Self::matmul_tn`] with an explicit worker-thread count; bitwise
    /// identical for every count (each output element accumulates over `p`
    /// in the same ascending order as the serial dense loop). The
    /// one-segment case of [`Self::matmul_tn_segments`].
    pub fn matmul_tn_with_threads(&self, other: &Matrix, threads: usize) -> Result<Matrix> {
        self.matmul_tn_segments(other, &[self.rows], threads)
    }

    /// `self^T * other` summed segment by segment over the shared rows:
    /// `ends` are the ascending, exclusive ends of consecutive row segments,
    /// the last one equal to `self.rows()`. Bitwise equal to computing
    /// `self[seg]^T * other[seg]` for each segment and adding the results
    /// in segment order (the first one assigned, not added to zeros), for
    /// every `threads` value.
    pub fn matmul_tn_segments(
        &self,
        other: &Matrix,
        ends: &[usize],
        threads: usize,
    ) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        check_segment_ends(ends, self.rows)?;
        let (m, n) = (self.cols, other.cols);
        let mut out = vec![0.0; m * n];
        kernels::matmul_tn(
            &self.data,
            &other.data,
            &mut out,
            ends,
            m,
            n,
            threads.max(1),
        );
        Ok(Matrix {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Computes `self * other^T`. Large products are row-blocked like
    /// [`Self::matmul`].
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_nt_with_threads(other, matmul_threads(self.rows, self.cols, other.rows))
    }

    /// [`Self::matmul_nt`] with an explicit worker-thread count. It is
    /// [`Self::matmul_with_threads`] on `other`'s transpose: the products
    /// and their ascending-`p` chains are the same, so are the bits.
    pub fn matmul_nt_with_threads(&self, other: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        self.matmul_with_threads(&other.transpose(), threads)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Per-column sums as a `1 x cols` matrix. The one-segment case of
    /// [`Self::col_sums_segments`].
    pub fn col_sums(&self) -> Matrix {
        self.col_sums_in(&[self.rows])
    }

    /// Per-column sums taken segment by segment over the rows (`ends` as in
    /// [`Self::matmul_tn_segments`]): each segment's sum starts at `+0.0`
    /// and folds its rows in order; the first segment's sum is the result
    /// and later ones are added to it in segment order.
    pub fn col_sums_segments(&self, ends: &[usize]) -> Result<Matrix> {
        check_segment_ends(ends, self.rows)?;
        Ok(self.col_sums_in(ends))
    }

    fn col_sums_in(&self, ends: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.cols == 0 {
            return out;
        }
        let mut chain = vec![0.0; self.cols];
        let mut start = 0;
        for (s, &end) in ends.iter().enumerate() {
            // The first segment folds straight into the zeroed output.
            let acc = if s == 0 { &mut out.data } else { &mut chain };
            acc.fill(0.0);
            for row in self.data[start * self.cols..end * self.cols].chunks_exact(self.cols) {
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }
            if s > 0 {
                for (o, &c) in out.data.iter_mut().zip(&chain) {
                    *o += c;
                }
            }
            start = end;
        }
        out
    }

    /// Per-column means as a `1 x cols` matrix.
    pub fn col_means(&self) -> Matrix {
        let mut out = self.col_sums();
        if self.rows > 0 {
            out.scale_inplace(1.0 / self.rows as f64);
        }
        out
    }

    /// Per-row sums as a `rows x 1` matrix.
    pub fn row_sums(&self) -> Matrix {
        let data = self
            .rows_iter()
            .map(|row| row.iter().sum())
            .collect::<Vec<f64>>();
        Matrix {
            rows: self.rows,
            cols: 1,
            data,
        }
    }

    // ------------------------------------------------------------------
    // Comparisons
    // ------------------------------------------------------------------

    /// True if both matrices have the same shape and all elements differ by at
    /// most `tol` in absolute value.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    fn check_same_shape(&self, op: &'static str, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }
}

impl AsRef<[f64]> for Matrix {
    /// Row-major buffer view; lets a `Matrix` flow into slice-generic helpers
    /// like [`crate::debug_assert_finite!`].
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.rows_iter() {
            write!(f, "  [")?;
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn constructors_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::ones(3, 1).sum(), 3.0);
        assert_eq!(Matrix::full(2, 2, 7.0).sum(), 28.0);
        let id = Matrix::identity(3);
        assert_eq!(id.at(0, 0), 1.0);
        assert_eq!(id.at(0, 1), 0.0);
        assert_eq!(id.sum(), 3.0);
    }

    #[test]
    fn from_vec_length_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_validates() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.at(1, 0), 3.0);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_bounds() {
        let mut m = m23();
        assert_eq!(m.get(1, 2).unwrap(), 6.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 3, 1.0).is_err());
        m.set(0, 0, 9.0).unwrap();
        assert_eq!(m.at(0, 0), 9.0);
    }

    #[test]
    fn row_col_access() {
        let m = m23();
        assert_eq!(m.row(1).unwrap(), &[4.0, 5.0, 6.0]);
        assert!(m.row(2).is_err());
        assert_eq!(m.col(2).unwrap(), vec![3.0, 6.0]);
        assert!(m.col(3).is_err());
    }

    #[test]
    fn select_rows_works_and_checks() {
        let m = m23();
        let s = m.select_rows(&[1, 0, 1]).unwrap();
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(0).unwrap(), &[4.0, 5.0, 6.0]);
        assert!(m.select_rows(&[5]).is_err());
    }

    #[test]
    fn stack_operations() {
        let m = m23();
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        let h = m.hstack(&m).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.row(0).unwrap(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(m.vstack(&Matrix::zeros(1, 2)).is_err());
        assert!(m.hstack(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let m = m23();
        let sum = m.add(&m).unwrap();
        assert_eq!(sum.at(1, 2), 12.0);
        let diff = m.sub(&m).unwrap();
        assert_eq!(diff.sum(), 0.0);
        let prod = m.hadamard(&m).unwrap();
        assert_eq!(prod.at(0, 1), 4.0);
        assert!(m.add(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn add_scaled_axpy() {
        let mut m = Matrix::zeros(2, 2);
        let g = Matrix::ones(2, 2);
        m.add_scaled(&g, -0.5).unwrap();
        assert_eq!(m.at(0, 0), -0.5);
        assert!(m.add_scaled(&Matrix::zeros(1, 1), 1.0).is_err());
    }

    #[test]
    fn broadcast_row() {
        let m = m23();
        let b = Matrix::row_vector(&[10.0, 20.0, 30.0]);
        let out = m.add_row_broadcast(&b).unwrap();
        assert_eq!(out.row(0).unwrap(), &[11.0, 22.0, 33.0]);
        let scaled = m.mul_row_broadcast(&b).unwrap();
        assert_eq!(scaled.row(1).unwrap(), &[40.0, 100.0, 180.0]);
        assert!(m.add_row_broadcast(&Matrix::row_vector(&[1.0])).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = m23(); // 2x3
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m23();
        let out = a.matmul(&Matrix::identity(3)).unwrap();
        assert!(out.approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m23();
        let b = Matrix::from_vec(2, 4, (0..8).map(|x| x as f64).collect()).unwrap();
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        assert!(a.matmul_tn(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m23();
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f64).collect()).unwrap();
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        assert!(a.matmul_nt(&Matrix::zeros(3, 4)).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = m23();
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn reductions() {
        let m = m23();
        assert_eq!(m.sum(), 21.0);
        assert!((m.mean() - 3.5).abs() < 1e-12);
        assert!((m.frobenius_norm() - 91.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs(), 6.0);
        assert_eq!(m.col_sums().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.row_sums().as_slice(), &[6.0, 15.0]);
        let means = m.col_means();
        assert_eq!(means.as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn empty_matrix_behaviour() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    fn display_formats() {
        let s = m23().to_string();
        assert!(s.contains("Matrix 2x3"));
        assert!(s.contains("1.0000"));
    }

    #[test]
    fn serde_round_trip() {
        let m = m23();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }
}
