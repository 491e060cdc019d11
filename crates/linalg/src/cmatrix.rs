//! Dense, row-major complex matrices.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::clu::CluDecomposition;
use crate::complex::Complex;
use crate::error::LinalgError;
use crate::matrix::{par_band_rows, Matrix};
use crate::parallel::ThreadPool;
use crate::Result;

/// A dense, row-major matrix of [`Complex`] values.
///
/// Complex matrices appear in the spectral-expansion solver when the characteristic
/// matrix polynomial `Q(z)` is evaluated at a complex eigenvalue and its null space is
/// extracted.  The API mirrors [`Matrix`] but only carries the operations actually
/// needed by the solvers.
///
/// # Example
///
/// ```
/// use urs_linalg::{CMatrix, Complex};
///
/// let mut m = CMatrix::zeros(2, 2);
/// m[(0, 0)] = Complex::new(1.0, 1.0);
/// m[(1, 1)] = Complex::new(0.0, -2.0);
/// assert_eq!(m.trace().unwrap(), Complex::new(1.0, -1.0));
/// ```
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a complex matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix { rows, cols, data: vec![Complex::ZERO; rows * cols] }
    }

    /// Creates the `n × n` complex identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Creates a complex matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Embeds a real matrix as a complex matrix with zero imaginary parts.
    pub fn from_real(a: &Matrix) -> Self {
        let data = a.as_slice().iter().map(|&x| Complex::from_real(x)).collect();
        CMatrix { rows: a.rows(), cols: a.cols(), data }
    }

    /// Overwrites this matrix with the entries of a real matrix (zero imaginary
    /// parts), without reallocating — the allocation-free twin of
    /// [`from_real`](Self::from_real) for [`Workspace`](crate::Workspace)-pooled
    /// buffers.  Together with [`shift_diagonal`](Self::shift_diagonal) this is the
    /// assembly path for resolvent matrices `sI − Q` whose real part `−Q` is fixed
    /// while `s` runs over the nodes of a quadrature rule.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn copy_from_real(&mut self, a: &Matrix) -> Result<()> {
        if self.shape() != (a.rows(), a.cols()) {
            return Err(LinalgError::DimensionMismatch {
                operation: "copy real matrix into complex matrix",
                left: self.shape(),
                right: (a.rows(), a.cols()),
            });
        }
        for (dst, &src) in self.data.iter_mut().zip(a.as_slice()) {
            *dst = Complex::from_real(src);
        }
        Ok(())
    }

    /// Adds `shift` to every diagonal entry in place, turning a matrix `A` into
    /// `A + shift·I` — the `O(n)` step that completes a resolvent assembly after
    /// [`copy_from_real`](Self::copy_from_real).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn shift_diagonal(&mut self, shift: Complex) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { rows: self.rows, cols: self.cols });
        }
        for i in 0..self.rows {
            self.data[i * self.cols + i] += shift;
        }
        Ok(())
    }

    /// Creates a complex matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput(format!(
                "expected {} elements for a {rows}x{cols} complex matrix, found {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(CMatrix { rows, cols, data })
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data buffer (for
    /// [`Workspace`](crate::Workspace) recycling).
    #[inline]
    pub fn into_vec(self) -> Vec<Complex> {
        self.data
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

    /// Conjugate transpose (Hermitian adjoint).
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Real parts of all entries as a real matrix.
    pub fn real_part(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)].re)
    }

    /// Largest absolute value of any imaginary part; useful for asserting that a result
    /// which must be real actually is.
    pub fn max_imag_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, z| m.max(z.im.abs()))
    }

    /// Maximum modulus of any entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, z| m.max(z.abs()))
    }

    /// Sum of the diagonal entries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<Complex> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { rows: self.rows, cols: self.cols });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Matrix product `self * rhs`.
    ///
    /// Thin allocating wrapper over the in-place [`gemm`](Self::gemm) kernel.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &CMatrix) -> Result<CMatrix> {
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        out.gemm(Complex::ONE, self, rhs, Complex::ZERO)?;
        Ok(out)
    }

    /// General multiply-accumulate `self ← alpha·a·b + beta·self`, in place.
    ///
    /// The complex twin of [`Matrix::gemm`]: allocation-free, zero-skipping and tiled
    /// over `k`/`j` so a slab of `b` stays cache-resident.  `beta == 0` overwrites
    /// `self` outright; the `k` accumulation order is ascending regardless of tiling.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless
    /// `self.shape() == (a.rows(), b.cols())` and `a.cols() == b.rows()`.
    pub fn gemm(&mut self, alpha: Complex, a: &CMatrix, b: &CMatrix, beta: Complex) -> Result<()> {
        self.gemm_with(alpha, a, b, beta, &ThreadPool::serial())
    }

    /// [`gemm`](Self::gemm) with the output rows partitioned across the workers of
    /// `pool` — the complex twin of [`Matrix::gemm_with`], bit-identical to the
    /// serial kernel at any thread count because each output element's ascending-`k`
    /// accumulation happens entirely within one worker's row band.
    ///
    /// # Errors
    ///
    /// Same as [`gemm`](Self::gemm), plus [`LinalgError::WorkerPanic`] if a worker
    /// panicked.
    pub fn gemm_with(
        &mut self,
        alpha: Complex,
        a: &CMatrix,
        b: &CMatrix,
        beta: Complex,
        pool: &ThreadPool,
    ) -> Result<()> {
        if a.cols != b.rows || self.rows != a.rows || self.cols != b.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "complex matrix multiply-accumulate (gemm)",
                left: a.shape(),
                right: b.shape(),
            });
        }
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let band_rows = par_band_rows(m, k, n, pool.threads());
        if band_rows >= m {
            cgemm_band(&mut self.data, &a.data, &b.data, alpha, beta, k, n);
            return Ok(());
        }
        pool.par_chunks_mut(&mut self.data, band_rows * n, |band, c_rows| {
            let row0 = band * band_rows;
            let rows = c_rows.len() / n;
            cgemm_band(c_rows, &a.data[row0 * k..(row0 + rows) * k], &b.data, alpha, beta, k, n);
        })?;
        Ok(())
    }

    /// Row-vector–matrix product `v * self`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[Complex]) -> Result<Vec<Complex>> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "complex vector-matrix product",
                left: (1, v.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![Complex::ZERO; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == Complex::ZERO {
                continue;
            }
            for j in 0..self.cols {
                out[j] += vi * self[(i, j)];
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[Complex]) -> Result<Vec<Complex>> {
        let mut out = vec![Complex::ZERO; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Matrix–vector product `out = self * v` into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v` or `out` has the wrong length.
    pub fn matvec_into(&self, v: &[Complex], out: &mut [Complex]) -> Result<()> {
        if v.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "complex matrix-vector product",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let mut sum = Complex::ZERO;
            for (&a, &x) in row.iter().zip(v) {
                sum += a * x;
            }
            *o = sum;
        }
        Ok(())
    }

    /// LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// See [`CluDecomposition::new`].
    pub fn lu(&self) -> Result<CluDecomposition> {
        CluDecomposition::new(self)
    }

    /// Determinant via complex LU factorisation (0 for singular matrices).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn determinant(&self) -> Result<Complex> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { rows: self.rows, cols: self.cols });
        }
        Ok(CluDecomposition::new_allow_singular(self)?.determinant())
    }

    /// Entry-wise approximate comparison with absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (*a - *b).abs() <= tol)
    }
}

/// The complex tiled multiply-accumulate kernel over one contiguous band of output
/// rows: `C ← α·A_band·B + β·C_band`.  The serial path runs it once over all rows;
/// the parallel path runs it per band — each element's ascending-`k` accumulation is
/// identical either way, so results never depend on the thread count.
// urs-analyze: begin(no_alloc)
fn cgemm_band(
    c: &mut [Complex],
    a: &[Complex],
    b: &[Complex],
    alpha: Complex,
    beta: Complex,
    k: usize,
    n: usize,
) {
    if beta == Complex::ZERO {
        c.fill(Complex::ZERO);
    } else if beta != Complex::ONE {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
    if alpha == Complex::ZERO || n == 0 {
        return;
    }
    let m = c.len() / n;
    // A complex element is twice the size of a real one; halve the real kernel's
    // tile sizes to keep the resident slab of `b` at the same byte footprint.
    const KB: usize = 32;
    const JB: usize = 128;
    for kk in (0..k).step_by(KB) {
        let k_end = (kk + KB).min(k);
        for jj in (0..n).step_by(JB) {
            let j_end = (jj + JB).min(n);
            for i in 0..m {
                let a_tile = &a[i * k + kk..i * k + k_end];
                let c_row = &mut c[i * n + jj..i * n + j_end];
                // Same crossover gate as the real kernel: a fully dense panel
                // runs branch-free; both branches accumulate the identical
                // ascending-`k` terms, so the gate never changes bits.
                if a_tile.iter().all(|&v| v != Complex::ZERO) {
                    for (offset, &av) in a_tile.iter().enumerate() {
                        let aip = alpha * av;
                        let p = kk + offset;
                        // urs-analyze: allow(slice_index, reason = "panel offsets bounded by the blocking loop limits; fused gemm hot loop")
                        let b_row = &b[p * n + jj..p * n + j_end];
                        for (c, &bv) in c_row.iter_mut().zip(b_row) {
                            *c += aip * bv;
                        }
                    }
                } else {
                    for (offset, &av) in a_tile.iter().enumerate() {
                        let aip = alpha * av;
                        if aip == Complex::ZERO {
                            continue;
                        }
                        let p = kk + offset;
                        // urs-analyze: allow(slice_index, reason = "panel offsets bounded by the blocking loop limits; fused gemm hot loop")
                        let b_row = &b[p * n + jj..p * n + j_end];
                        for (c, &bv) in c_row.iter_mut().zip(b_row) {
                            *c += aip * bv;
                        }
                    }
                }
            }
        }
    }
}
// urs-analyze: end(no_alloc)

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &Complex {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut Complex {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "complex matrix addition requires equal shapes");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a + *b).collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "complex matrix subtraction requires equal shapes");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a - *b).collect(),
        }
    }
}

impl Mul<Complex> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * rhs).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_indexing() {
        let id = CMatrix::identity(3);
        assert_eq!(id[(1, 1)], Complex::ONE);
        assert_eq!(id[(0, 1)], Complex::ZERO);
        assert_eq!(id.trace().unwrap(), Complex::new(3.0, 0.0));
    }

    #[test]
    fn from_real_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        let c = CMatrix::from_real(&a);
        assert_eq!(c.real_part(), a);
        assert_eq!(c.max_imag_abs(), 0.0);
    }

    #[test]
    fn copy_from_real_reuses_storage_and_matches_from_real() {
        let a = Matrix::from_rows(&[&[1.0, -2.0][..], &[0.5, 4.0][..]]).unwrap();
        let mut c = CMatrix::zeros(2, 2);
        c[(0, 0)] = Complex::new(9.0, 9.0); // stale content must be overwritten
        c.copy_from_real(&a).unwrap();
        assert!(c.approx_eq(&CMatrix::from_real(&a), 0.0));
        let wrong = CMatrix::zeros(3, 2);
        assert!(matches!({ wrong }.copy_from_real(&a), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn shift_diagonal_builds_resolvent_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        let s = Complex::new(0.5, -1.5);
        let mut c = CMatrix::from_real(&a);
        c.shift_diagonal(s).unwrap();
        assert_eq!(c[(0, 0)], Complex::new(1.0, 0.0) + s);
        assert_eq!(c[(1, 1)], Complex::new(4.0, 0.0) + s);
        assert_eq!(c[(0, 1)], Complex::new(2.0, 0.0));
        assert!(matches!(
            CMatrix::zeros(2, 3).shift_diagonal(s),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn adjoint_conjugates_and_transposes() {
        let mut m = CMatrix::zeros(2, 2);
        m[(0, 1)] = Complex::new(1.0, 2.0);
        let adj = m.adjoint();
        assert_eq!(adj[(1, 0)], Complex::new(1.0, -2.0));
        let t = m.transpose();
        assert_eq!(t[(1, 0)], Complex::new(1.0, 2.0));
    }

    #[test]
    fn matmul_against_hand_computation() {
        let i = Complex::I;
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex::ONE;
        a[(0, 1)] = i;
        a[(1, 0)] = -i;
        a[(1, 1)] = Complex::ONE;
        let prod = a.matmul(&a).unwrap();
        // [[1, i], [-i, 1]]^2 = [[2, 2i], [-2i, 2]]
        assert!(prod.approx_eq(
            &CMatrix::from_fn(2, 2, |r, c| match (r, c) {
                (0, 0) | (1, 1) => Complex::new(2.0, 0.0),
                (0, 1) => Complex::new(0.0, 2.0),
                _ => Complex::new(0.0, -2.0),
            }),
            1e-14
        ));
    }

    #[test]
    fn vecmat_and_matvec() {
        let a = CMatrix::from_fn(2, 2, |i, j| Complex::new((i * 2 + j) as f64, 0.0));
        let v = [Complex::ONE, Complex::I];
        let left = a.vecmat(&v).unwrap();
        assert_eq!(left[0], Complex::new(0.0, 2.0));
        assert_eq!(left[1], Complex::new(1.0, 3.0));
        let right = a.matvec(&v).unwrap();
        assert_eq!(right[0], Complex::new(0.0, 1.0));
        assert_eq!(right[1], Complex::new(2.0, 3.0));
        assert!(a.vecmat(&[Complex::ONE]).is_err());
        assert!(a.matvec(&[Complex::ONE]).is_err());
    }

    #[test]
    fn determinant_of_complex_matrix() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        a[(1, 1)] = Complex::new(1.0, -1.0);
        a[(0, 1)] = Complex::new(0.0, 1.0);
        a[(1, 0)] = Complex::new(0.0, 1.0);
        // det = (1+i)(1-i) - (i)(i) = 2 + 1 = 3
        let det = a.determinant().unwrap();
        assert!((det - Complex::new(3.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn arithmetic_operators() {
        let a = CMatrix::identity(2);
        let b = &a + &a;
        assert_eq!(b[(0, 0)], Complex::new(2.0, 0.0));
        let c = &b - &a;
        assert!(c.approx_eq(&a, 0.0));
        let d = &a * Complex::I;
        assert_eq!(d[(1, 1)], Complex::I);
    }

    #[test]
    fn mismatched_multiplication_rejected() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::DimensionMismatch { .. })));
    }
}
