//! Dense, row-major real matrices.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::parallel::ThreadPool;
use crate::Result;

/// Work (in multiply-adds) below which a parallel kernel call is not worth the
/// scoped-thread spawn and falls back to the serial path.  Shared by gemm, the
/// blocked LU trailing updates and the right-solve row fan-outs.
pub(crate) const MIN_PAR_WORK: usize = 32 * 1024;

/// Rows per parallel band when partitioning `m` output rows of an `m×k · k×n`
/// product (or a row-independent solve of equivalent cost) across `threads`
/// workers.  Returns `m` — a single band, i.e. the serial path — when the pool is
/// serial or the total work is too small to amortise thread spawning.  Four bands
/// per worker keep the load balanced when row costs vary (zero-skipping makes them
/// vary); the partition never affects results, only wall time, because each output
/// element's accumulation stays entirely within one band.
pub(crate) fn par_band_rows(m: usize, k: usize, n: usize, threads: usize) -> usize {
    if threads <= 1 || m < 2 || m.saturating_mul(k.max(1)).saturating_mul(n.max(1)) < MIN_PAR_WORK {
        return m.max(1);
    }
    m.div_ceil(4 * threads).max(1)
}

/// A dense, row-major matrix of `f64` values.
///
/// The type is intentionally simple: it owns a `Vec<f64>` of length `rows * cols` and
/// provides the constructors, element access, and arithmetic that the queueing solvers
/// need.  All operations that can fail (shape mismatches, singular systems) return a
/// [`LinalgError`](crate::LinalgError) instead of panicking, with the exception of the
/// indexing operators which follow the standard library convention of panicking on
/// out-of-bounds access.
///
/// # Example
///
/// ```
/// use urs_linalg::Matrix;
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// assert!((a.determinant()? - (-2.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        // urs-analyze: allow(no_panic, reason = "usize overflow of rows*cols is documented under # Panics; a Result here would infect every kernel signature")
        Matrix { rows, cols, data: vec![0.0; rows.checked_mul(cols).expect("matrix too large")] }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix from a slice of diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if the rows are empty or have differing
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidInput("matrix must have at least one element".into()));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::InvalidInput(format!(
                    "ragged rows: expected {} columns, found {}",
                    cols,
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput(format!(
                "expected {} elements for a {rows}x{cols} matrix, found {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data buffer.
    ///
    /// Together with [`from_vec`](Self::from_vec) this lets a
    /// [`Workspace`](crate::Workspace) recycle matrix storage across hot-loop
    /// iterations without reallocating.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element access returning `None` when out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Borrow a row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index {row} out of bounds ({} rows)", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copy a column into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "column index {col} out of bounds ({} columns)", self.cols);
        (0..self.rows).map(|i| self[(i, col)]).collect()
    }

    /// Returns the main diagonal as a vector (length `min(rows, cols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols)).map(|i| self[(i, i)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        transpose_tiles(&self.data, self.cols, &mut out.data);
        out
    }

    /// Writes the transpose of `self` into `out`, in place (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless `out` is
    /// `self.cols() × self.rows()`.
    pub fn transpose_into(&self, out: &mut Matrix) -> Result<()> {
        if out.shape() != (self.cols, self.rows) {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix transpose",
                left: self.shape(),
                right: out.shape(),
            });
        }
        transpose_tiles(&self.data, self.cols, &mut out.data);
        Ok(())
    }

    /// Applies a function to every element, returning a new matrix.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f64) -> Matrix {
        self.map(|x| x * factor)
    }

    /// Matrix product `self * rhs`.
    ///
    /// Thin allocating wrapper over the in-place [`gemm`](Self::gemm) kernel.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        out.gemm(1.0, self, rhs, 0.0)?;
        Ok(out)
    }

    /// General multiply-accumulate `self ← alpha·a·b + beta·self`, in place.
    ///
    /// This is the workhorse kernel of the workspace: it allocates nothing, skips
    /// zero elements of `a` (the QBD generator blocks are sparse bands), and tiles
    /// the `k` and `j` loops so a slab of `b` stays cache-resident while every row
    /// of `a` streams past it.  `beta == 0.0` overwrites `self` outright (no
    /// `0 · NaN` propagation); accumulation order over `k` is ascending regardless
    /// of the tiling, so results do not depend on the block sizes.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless
    /// `self.shape() == (a.rows(), b.cols())` and `a.cols() == b.rows()`.
    pub fn gemm(&mut self, alpha: f64, a: &Matrix, b: &Matrix, beta: f64) -> Result<()> {
        self.gemm_with(alpha, a, b, beta, &ThreadPool::serial())
    }

    /// [`gemm`](Self::gemm) with the output rows partitioned across the workers of
    /// `pool`, bit-identical to the serial kernel at any thread count.
    ///
    /// Each worker owns a disjoint band of output rows and runs the same `k`/`j`
    /// tiling over it, so every output element accumulates its `k` terms in the same
    /// ascending order as the serial kernel — the partition changes wall time, never
    /// bits.  Small products (or a serial pool) take the serial path outright.
    ///
    /// # Errors
    ///
    /// Same as [`gemm`](Self::gemm), plus [`LinalgError::WorkerPanic`] if a worker
    /// panicked.
    pub fn gemm_with(
        &mut self,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        pool: &ThreadPool,
    ) -> Result<()> {
        if a.cols != b.rows || self.rows != a.rows || self.cols != b.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix multiply-accumulate (gemm)",
                left: a.shape(),
                right: b.shape(),
            });
        }
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let band_rows = par_band_rows(m, k, n, pool.threads());
        if band_rows >= m {
            gemm_band(&mut self.data, &a.data, &b.data, alpha, beta, k, n, None);
            return Ok(());
        }
        pool.par_chunks_mut(&mut self.data, band_rows * n, |band, c_rows| {
            let row0 = band * band_rows;
            let rows = c_rows.len() / n;
            let a_rows = a.data.get(row0 * k..(row0 + rows) * k).unwrap_or_default();
            gemm_band(c_rows, a_rows, &b.data, alpha, beta, k, n, None);
        })?;
        Ok(())
    }

    /// The Gram matrix `self ← zᵀ·z`, computing one triangle and mirroring it.
    ///
    /// Serial form of [`gram_with`](Self::gram_with).
    ///
    /// # Errors
    ///
    /// As [`gram_with`](Self::gram_with).
    pub fn gram(&mut self, zt: &Matrix, z: &Matrix) -> Result<()> {
        self.gram_with(zt, z, &ThreadPool::serial())
    }

    /// The Gram matrix `self ← zᵀ·z` from `z` and its transpose `zt`, with the
    /// output rows partitioned across the workers of `pool`.  The caller supplies
    /// `zt`, which it typically needs for other products too; if `zt` is not
    /// `zᵀ` the result is the lower triangle of `zt·z` mirrored.
    ///
    /// Only the lower triangle is accumulated — the [`gemm`](Self::gemm) tiling
    /// clipped at the diagonal — and then mirrored, so the product costs half a
    /// `gemm`.  Each element still receives its `k` terms in ascending order from
    /// zero, and `z_ki·z_kj` equals `z_kj·z_ki` bit for bit, so the result is
    /// bitwise equal to `gemm(1, zᵀ, z, 0)`, exactly symmetric, and the same at
    /// every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless `z` is `k × n`, `zt` is
    /// `n × k` and `self` is `n × n`, or [`LinalgError::WorkerPanic`] if a worker
    /// panicked.
    pub fn gram_with(&mut self, zt: &Matrix, z: &Matrix, pool: &ThreadPool) -> Result<()> {
        let (k, n) = z.shape();
        if zt.shape() != (n, k) || self.shape() != (n, n) {
            return Err(LinalgError::DimensionMismatch {
                operation: "Gram product",
                left: zt.shape(),
                right: z.shape(),
            });
        }
        let band_rows = par_band_rows(n, k, n.div_ceil(2), pool.threads());
        if band_rows >= n {
            gemm_band(&mut self.data, &zt.data, &z.data, 1.0, 0.0, k, n, Some(0));
        } else {
            pool.par_chunks_mut(&mut self.data, band_rows * n, |band, c_rows| {
                let row0 = band * band_rows;
                let rows = c_rows.len() / n;
                let a_rows = zt.data.get(row0 * k..(row0 + rows) * k).unwrap_or_default();
                gemm_band(c_rows, a_rows, &z.data, 1.0, 0.0, k, n, Some(row0));
            })?;
        }
        // Mirror the lower triangle onto the upper.
        for i in 1..n {
            let (upper, lower) = self.data.split_at_mut(i * n);
            for (column, &v) in upper.chunks_exact_mut(n).zip(lower.iter().take(i)) {
                if let Some(x) = column.get_mut(i) {
                    *x = v;
                }
            }
        }
        Ok(())
    }

    /// Copies every element of `other` into `self` (shapes must match).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix copy",
                left: self.shape(),
                right: other.shape(),
            });
        }
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// In-place scaled accumulation `self ← self + alpha·other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix scaled addition",
                left: self.shape(),
                right: other.shape(),
            });
        }
        for (x, &y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale_mut(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Scales column `j` by `diag[j]`, in place — the cheap form of right-multiplying
    /// by a diagonal matrix (`self ← self · diag(d)`), `O(n²)` instead of a dense
    /// `O(n³)` product.  The QBD departure matrix `C` and arrival matrix `B = λI` are
    /// both diagonal, so the solvers use this for every `X·C` product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `diag.len() != self.cols()`.
    pub fn scale_columns(&mut self, diag: &[f64]) -> Result<()> {
        if diag.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "column scaling by diagonal",
                left: self.shape(),
                right: (diag.len(), diag.len()),
            });
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &d) in row.iter_mut().zip(diag) {
                *x *= d;
            }
        }
        Ok(())
    }

    /// Matrix–vector product `self * v` (v as a column vector).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix-vector product",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok((0..self.rows).map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum()).collect())
    }

    /// Row-vector–matrix product `v * self`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "vector-matrix product",
                left: (1, v.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                out[j] += vi * self[(i, j)];
            }
        }
        Ok(out)
    }

    /// Sum of the diagonal elements.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { rows: self.rows, cols: self.cols });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Row sums, i.e. `self * 1`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Maximum absolute value of any element (the max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Returns `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns `true` when all elements of the two matrices differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input or
    /// [`LinalgError::Singular`] when a zero pivot is encountered.
    pub fn lu(&self) -> Result<LuDecomposition> {
        LuDecomposition::new(self)
    }

    /// Determinant via LU factorisation.
    ///
    /// Returns `0.0` for singular matrices rather than an error.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn determinant(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { rows: self.rows, cols: self.cols });
        }
        match LuDecomposition::new(self) {
            Ok(lu) => Ok(lu.determinant()),
            Err(LinalgError::Singular { .. }) => Ok(0.0),
            Err(e) => Err(e),
        }
    }

    /// Matrix inverse via LU factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::Singular`].
    pub fn inverse(&self) -> Result<Matrix> {
        self.lu()?.inverse()
    }

    /// Solves `self * x = b` for `x` (column-vector right-hand side).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::Singular`] or
    /// [`LinalgError::DimensionMismatch`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }

    /// Solves `x * self = b` for the row vector `x` (i.e. `selfᵀ xᵀ = bᵀ`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::Singular`] or
    /// [`LinalgError::DimensionMismatch`].
    pub fn solve_left(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.transpose().solve(b)
    }
}

/// The tiled multiply-accumulate body of [`Matrix::gemm`] restricted to a band of
/// output rows: `c ← alpha·a·b + beta·c`, where `c` and `a` hold the same
/// `c.len() / n` consecutive rows of the output and left operand.
///
/// With `lower = Some(row0)` (the band's first row in the whole output) each row
/// stops at the diagonal: row `i` accumulates columns `0..=i` only — a quad of
/// rows runs to its last row's diagonal — which is what [`Matrix::gram_with`]
/// needs; the columns computed receive exactly the operations of the full kernel.
///
/// Tile sizes are chosen so a KB×JB slab of `b` (≤ 128 KiB) fits in L2 while the
/// accumulation order over `k` stays ascending (tiles are visited in order).  The
/// serial kernel is exactly this function applied to the full row range, so a banded
/// parallel run — which only re-partitions `i`, never the per-element `k` order —
/// reproduces it bit for bit.
// urs-analyze: begin(no_alloc)
#[allow(clippy::too_many_arguments)]
fn gemm_band(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    alpha: f64,
    beta: f64,
    k: usize,
    n: usize,
    lower: Option<usize>,
) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
    if alpha == 0.0 || n == 0 {
        return;
    }
    let m = c.len() / n;
    const KB: usize = 64;
    const JB: usize = 256;
    for kk in (0..k).step_by(KB) {
        let k_end = (kk + KB).min(k);
        for jj in (0..n).step_by(JB) {
            // The column window of a group of rows whose last row is `last`.
            let window_end = |last: usize| match lower {
                Some(row0) => (jj + JB).min(n).min(row0 + last + 1),
                None => (jj + JB).min(n),
            };
            // Quads of output rows go through `gemm_rows4`, the rest row by row.
            let mut i0 = 0;
            while i0 + 4 <= m {
                let j_end = window_end(i0 + 3);
                if j_end <= jj {
                    i0 += 4;
                    continue;
                }
                // urs-analyze: allow(slice_index, reason = "c rows i0..i0+3, in range since (i0+4)·n ≤ m·n = c.len()")
                let block = &mut c[i0 * n..(i0 + 4) * n];
                let (r0, rest) = block.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let rows = [r0, r1, r2, r3].map(|row| row.get_mut(jj..j_end).unwrap_or_default());
                let tiles = [i0, i0 + 1, i0 + 2, i0 + 3]
                    .map(|i| a.get(i * k + kk..i * k + k_end).unwrap_or_default());
                gemm_rows4(rows, tiles, b, alpha, kk, jj, j_end, n);
                i0 += 4;
            }
            for i in i0..m {
                let j_end = window_end(i);
                if j_end <= jj {
                    continue;
                }
                // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                let a_tile = &a[i * k + kk..i * k + k_end];
                // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                let c_row = &mut c[i * n + jj..i * n + j_end];
                gemm_row_panel(c_row, a_tile, b, alpha, kk, jj, j_end, n);
            }
        }
    }
}

/// One output row of a `gemm` panel: accumulate `alpha·a_tile[t]·b_row(kk+t)`
/// over the column window `jj..j_end`, `t` ascending.
///
/// Crossover gate: one cheap scan decides whether this panel of `a` is fully
/// dense, in which case the inner loop runs branch-free (the zero-skip would
/// test and never fire — pure overhead on dense operands).  Either branch
/// performs the identical ascending-`k` accumulation over the same nonzero
/// terms, so the gate changes wall time, not bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_row_panel(
    c_row: &mut [f64],
    a_tile: &[f64],
    b: &[f64],
    alpha: f64,
    kk: usize,
    jj: usize,
    j_end: usize,
    n: usize,
) {
    // urs-analyze: allow(float_cmp, reason = "exact-zero scan choosing between the skipping and branch-free loops; both compute the same sum")
    if a_tile.iter().all(|&v| v != 0.0) {
        // Four k-steps per pass over the output row: each element still
        // receives the same multiplies and adds in the same ascending-`k`
        // order as four single sweeps would apply (no fused multiply-add, no
        // reassociation), so the bits are unchanged — only the `c`-row
        // load/store traffic drops to a quarter, which is what this loop is
        // bound by.
        let mut offset = 0;
        while offset + 4 <= a_tile.len() {
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let a0 = alpha * a_tile[offset];
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let a1 = alpha * a_tile[offset + 1];
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let a2 = alpha * a_tile[offset + 2];
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let a3 = alpha * a_tile[offset + 3];
            let p = kk + offset;
            // urs-analyze: allow(slice_index, reason = "rows p..p+3 of b with p+3 < k_end ≤ k; column window jj..j_end ≤ n")
            let b0 = &b[p * n + jj..p * n + j_end];
            // urs-analyze: allow(slice_index, reason = "row p+1 of b, in range as above")
            let b1 = &b[(p + 1) * n + jj..(p + 1) * n + j_end];
            // urs-analyze: allow(slice_index, reason = "row p+2 of b, in range as above")
            let b2 = &b[(p + 2) * n + jj..(p + 2) * n + j_end];
            // urs-analyze: allow(slice_index, reason = "row p+3 of b, in range as above")
            let b3 = &b[(p + 3) * n + jj..(p + 3) * n + j_end];
            for ((((c, &v0), &v1), &v2), &v3) in c_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let mut t = *c;
                t += a0 * v0;
                t += a1 * v1;
                t += a2 * v2;
                t += a3 * v3;
                *c = t;
            }
            offset += 4;
        }
        for (tail, &av) in a_tile.iter().enumerate().skip(offset) {
            let aip = alpha * av;
            let p = kk + tail;
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let b_row = &b[p * n + jj..p * n + j_end];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c += aip * bv;
            }
        }
    } else {
        for (offset, &av) in a_tile.iter().enumerate() {
            let aip = alpha * av;
            // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip branch; bitwise test is part of the bit-identity contract")
            if aip == 0.0 {
                continue;
            }
            let p = kk + offset;
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let b_row = &b[p * n + jj..p * n + j_end];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c += aip * bv;
            }
        }
    }
}

/// Four output rows of a `gemm` panel: the fused [`gemm_rows4_panel`] when all
/// four `a` tiles are fully dense, otherwise [`gemm_row_panel`] row by row, which
/// skips zero coefficients.  Each output row receives the identical ascending-`k`
/// operation sequence either way, so the choice changes wall time, not bits.  The
/// one entry point of every blocked factorisation and substitution in the crate.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn gemm_rows4(
    c_rows: [&mut [f64]; 4],
    a_tiles: [&[f64]; 4],
    b: &[f64],
    alpha: f64,
    kk: usize,
    jj: usize,
    j_end: usize,
    n: usize,
) {
    // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip branch; bitwise test is part of the bit-identity contract")
    if a_tiles.iter().all(|tile| tile.iter().all(|&v| v != 0.0)) {
        gemm_rows4_panel(c_rows, a_tiles, b, alpha, kk, jj, j_end, n);
    } else {
        for (c_row, a_tile) in c_rows.into_iter().zip(a_tiles) {
            gemm_row_panel(c_row, a_tile, b, alpha, kk, jj, j_end, n);
        }
    }
}

/// Four output rows of a `gemm` panel advanced in lockstep, all panels known to
/// be fully dense: each pass loads rows `p..p+3` of `b` once and feeds all four
/// accumulator rows, so the `b` traffic drops to a quarter of four independent
/// row sweeps while every output row still receives exactly the multiplies and
/// adds of [`gemm_row_panel`]'s dense branch in the same ascending-`k` order —
/// rows never read each other, so the fusion changes wall time, not bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows4_panel(
    c_rows: [&mut [f64]; 4],
    a_tiles: [&[f64]; 4],
    b: &[f64],
    alpha: f64,
    kk: usize,
    jj: usize,
    j_end: usize,
    n: usize,
) {
    let [c0, c1, c2, c3] = c_rows;
    let [t0, t1, t2, t3] = a_tiles;
    let mut offset = 0;
    while offset + 4 <= t0.len() {
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a00 = alpha * t0[offset];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a01 = alpha * t0[offset + 1];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a02 = alpha * t0[offset + 2];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a03 = alpha * t0[offset + 3];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a10 = alpha * t1[offset];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a11 = alpha * t1[offset + 1];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a12 = alpha * t1[offset + 2];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a13 = alpha * t1[offset + 3];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a20 = alpha * t2[offset];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a21 = alpha * t2[offset + 1];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a22 = alpha * t2[offset + 2];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a23 = alpha * t2[offset + 3];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a30 = alpha * t3[offset];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a31 = alpha * t3[offset + 1];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a32 = alpha * t3[offset + 2];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a33 = alpha * t3[offset + 3];
        let p = kk + offset;
        // urs-analyze: allow(slice_index, reason = "rows p..p+3 of b with p+3 < k_end ≤ k; column window jj..j_end ≤ n")
        let b0 = &b[p * n + jj..p * n + j_end];
        // urs-analyze: allow(slice_index, reason = "row p+1 of b, in range as above")
        let b1 = &b[(p + 1) * n + jj..(p + 1) * n + j_end];
        // urs-analyze: allow(slice_index, reason = "row p+2 of b, in range as above")
        let b2 = &b[(p + 2) * n + jj..(p + 2) * n + j_end];
        // urs-analyze: allow(slice_index, reason = "row p+3 of b, in range as above")
        let b3 = &b[(p + 3) * n + jj..(p + 3) * n + j_end];
        for (((((((x0, x1), x2), x3), &v0), &v1), &v2), &v3) in c0
            .iter_mut()
            .zip(c1.iter_mut())
            .zip(c2.iter_mut())
            .zip(c3.iter_mut())
            .zip(b0)
            .zip(b1)
            .zip(b2)
            .zip(b3)
        {
            let mut t = *x0;
            t += a00 * v0;
            t += a01 * v1;
            t += a02 * v2;
            t += a03 * v3;
            *x0 = t;
            let mut t = *x1;
            t += a10 * v0;
            t += a11 * v1;
            t += a12 * v2;
            t += a13 * v3;
            *x1 = t;
            let mut t = *x2;
            t += a20 * v0;
            t += a21 * v1;
            t += a22 * v2;
            t += a23 * v3;
            *x2 = t;
            let mut t = *x3;
            t += a30 * v0;
            t += a31 * v1;
            t += a32 * v2;
            t += a33 * v3;
            *x3 = t;
        }
        offset += 4;
    }
    for tail in offset..t0.len() {
        let p = kk + tail;
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a0 = alpha * t0[tail];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a1 = alpha * t1[tail];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a2 = alpha * t2[tail];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a3 = alpha * t3[tail];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let b_row = &b[p * n + jj..p * n + j_end];
        for ((((x0, x1), x2), x3), &v) in
            c0.iter_mut().zip(c1.iter_mut()).zip(c2.iter_mut()).zip(c3.iter_mut()).zip(b_row)
        {
            *x0 += a0 * v;
            *x1 += a1 * v;
            *x2 += a2 * v;
            *x3 += a3 * v;
        }
    }
}

/// Writes the transpose of the row-major `src` (`cols` wide) into `dst`, in square
/// tiles so both the reads and the strided writes stay cache-resident.
fn transpose_tiles(src: &[f64], cols: usize, dst: &mut [f64]) {
    const TILE: usize = 16;
    if cols == 0 {
        return;
    }
    let rows = src.len() / cols;
    for r0 in (0..rows).step_by(TILE) {
        let r_end = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            let c_end = (c0 + TILE).min(cols);
            for r in r0..r_end {
                let row = src.get(r * cols + c0..r * cols + c_end).unwrap_or_default();
                for (c, &v) in (c0..c_end).zip(row) {
                    if let Some(x) = dst.get_mut(c * rows + r) {
                        *x = v;
                    }
                }
            }
        }
    }
}
// urs-analyze: end(no_alloc)

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.5}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition requires equal shapes");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction requires equal shapes");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.map(|x| -x)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.get(1, 2), Some(6.0));
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
        assert!(matches!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::InvalidInput(_)));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn identity_and_diagonal() {
        let id = Matrix::identity(3);
        assert_eq!(id.trace().unwrap(), 3.0);
        let d = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diagonal(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.determinant().unwrap(), 6.0);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 1.0][..], &[1.0, 1.0][..]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[4.0, 5.0][..], &[10.0, 11.0][..]]).unwrap());
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = sample();
        let err = a.matmul(&a).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![6.0, 15.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn row_sums_and_norms() {
        let a = sample();
        assert_eq!(a.row_sums(), vec![6.0, 15.0]);
        assert_eq!(a.max_abs(), 6.0);
        assert_eq!(a.inf_norm(), 15.0);
        assert!((a.frobenius_norm() - 91.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_operators() {
        let a = sample();
        let twice = &a + &a;
        assert_eq!(twice, a.scale(2.0));
        assert_eq!(&twice - &a, a);
        assert_eq!((&-(&a))[(0, 0)], -1.0);
        assert_eq!((&a * 3.0)[(1, 2)], 18.0);
    }

    #[test]
    fn solve_simple_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 3.0][..]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_left_matches_transpose_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[0.5, 3.0][..]]).unwrap();
        let b = [1.0, 2.0];
        let x = a.solve_left(&b).unwrap();
        // check x * a = b
        let prod = a.vecmat(&x).unwrap();
        assert!((prod[0] - b[0]).abs() < 1e-12 && (prod[1] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0][..], &[2.0, 6.0][..]]).unwrap();
        let inv = a.inverse().unwrap();
        assert!(a.matmul(&inv).unwrap().approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn determinant_of_singular_matrix_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        assert_eq!(a.determinant().unwrap(), 0.0);
    }

    #[test]
    fn trace_requires_square() {
        assert!(matches!(sample().trace(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(5, 0)];
    }

    #[test]
    fn debug_output_contains_dimensions() {
        let text = format!("{:?}", sample());
        assert!(text.contains("2x3"));
    }
}
