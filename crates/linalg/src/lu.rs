//! Blocked LU factorisation with partial pivoting for real matrices.

use crate::error::LinalgError;
use crate::matrix::{gemm_rows4_panel, par_band_rows, Matrix};
use crate::parallel::ThreadPool;
use crate::workspace::Workspace;
use crate::Result;

/// An LU factorisation `P·A = L·U` of a square real matrix with partial (row) pivoting.
///
/// The factors are stored compactly: the strictly lower triangle of `lu` holds the
/// multipliers of `L` (whose diagonal is implicitly 1) and the upper triangle holds `U`.
///
/// The factorisation is *blocked*: columns are eliminated in panels and the trailing
/// submatrix is updated with a tiled multiply-accumulate, so the working set stays
/// cache-resident.  The arithmetic (and hence the result, bit for bit) is identical to
/// the textbook unblocked right-looking elimination — only the memory access order
/// changes.  Solves come in allocating (`solve`, `solve_matrix`, `inverse`) and
/// allocation-free (`solve_into`, `solve_matrix_into`, `solve_right_matrix_into`)
/// flavours; the `_into` family is what the hot loops of `urs-core` use together with
/// a [`Workspace`].
///
/// # Example
///
/// ```
/// use urs_linalg::{LuDecomposition, Matrix};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0][..], &[6.0, 3.0][..]])?;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: Matrix,
    /// permutation: row `i` of the factorised matrix corresponds to row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// sign of the permutation (+1.0 or -1.0); used for the determinant.
    perm_sign: f64,
    /// `true` if a pivot underflowed to (effectively) zero.
    singular_at: Option<usize>,
}

/// Relative threshold below which a pivot is considered zero.
const PIVOT_EPS: f64 = 1e-300;

/// Panel width of the blocked elimination.
const PANEL: usize = 48;

impl LuDecomposition {
    /// Factorises a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::InvalidInput`] if the matrix contains non-finite values, and
    /// [`LinalgError::Singular`] when the matrix is singular to working precision.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::from_matrix(a.clone())
    }

    /// Factorises a square matrix taking ownership of its storage (no copy).
    ///
    /// This is the move-in variant used by hot loops that refactorise a
    /// workspace-owned matrix every iteration; recover the buffer afterwards with
    /// [`into_matrix`](Self::into_matrix).
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn from_matrix(a: Matrix) -> Result<Self> {
        Self::from_matrix_with(a, &ThreadPool::serial())
    }

    /// [`from_matrix`](Self::from_matrix) with the trailing-submatrix updates of the
    /// blocked elimination fanned out across the workers of `pool`.
    ///
    /// Panel factorisation (pivot search, swaps, multipliers) stays serial — it is a
    /// sequential dependency chain — but phase 2b, the multiply-accumulate of the rows
    /// *below* the panel, is row-independent and is partitioned into bands.  Every
    /// row's update runs the identical ascending-`k` loop it runs serially, so the
    /// factors are bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`from_matrix`](Self::from_matrix), plus
    /// [`LinalgError::WorkerPanic`] if a worker panicked.
    pub fn from_matrix_with(a: Matrix, pool: &ThreadPool) -> Result<Self> {
        let lu = Self::factor_allow_singular(a, pool)?;
        if let Some(pivot) = lu.singular_at {
            return Err(LinalgError::Singular { pivot });
        }
        Ok(lu)
    }

    /// Factorises a square matrix, tolerating exactly singular input.
    ///
    /// The resulting decomposition can still be used for [`determinant`](Self::determinant)
    /// (which will be 0), but [`solve`](Self::solve) and [`inverse`](Self::inverse) will
    /// return [`LinalgError::Singular`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::InvalidInput`].
    pub fn new_allow_singular(a: &Matrix) -> Result<Self> {
        Self::factor_allow_singular(a.clone(), &ThreadPool::serial())
    }

    /// [`new_allow_singular`](Self::new_allow_singular) with the trailing updates
    /// parallelised on `pool`; see [`from_matrix_with`](Self::from_matrix_with) for
    /// the determinism contract.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::InvalidInput`], or
    /// [`LinalgError::WorkerPanic`].
    pub fn new_allow_singular_with(a: &Matrix, pool: &ThreadPool) -> Result<Self> {
        Self::factor_allow_singular(a.clone(), pool)
    }

    fn factor_allow_singular(a: Matrix, pool: &ThreadPool) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidInput("matrix contains non-finite values".into()));
        }
        let n = a.rows();
        let mut lu = a;
        let d = lu.as_mut_slice();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut singular_at = None;
        // Tracks which panel columns produced usable pivots; columns whose pivot
        // underflowed contribute nothing to the trailing update (matching the
        // unblocked algorithm, which skips their elimination step entirely).
        let mut active = [false; PANEL];

        // urs-analyze: begin(no_alloc)
        for kk in (0..n).step_by(PANEL) {
            let k_end = (kk + PANEL).min(n);
            // 1. Factor the panel columns kk..k_end (unblocked, full-height pivoting).
            for k in kk..k_end {
                let mut pivot_row = k;
                let mut pivot_val = d[k * n + k].abs();
                for i in (k + 1)..n {
                    let v = d[i * n + k].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = i;
                    }
                }
                if pivot_row != k {
                    for j in 0..n {
                        d.swap(k * n + j, pivot_row * n + j);
                    }
                    perm.swap(k, pivot_row);
                    perm_sign = -perm_sign;
                }
                let pivot = d[k * n + k];
                if pivot.abs() < PIVOT_EPS {
                    if singular_at.is_none() {
                        singular_at = Some(k);
                    }
                    active[k - kk] = false;
                    continue;
                }
                active[k - kk] = true;
                // Multipliers plus the within-panel update of columns k+1..k_end.
                let (pivot_rows, trail) = d.split_at_mut((k + 1) * n);
                let u_row = &pivot_rows[k * n + (k + 1)..k * n + k_end];
                for row in trail.chunks_exact_mut(n) {
                    let factor = row[k] / pivot;
                    row[k] = factor;
                    if factor != 0.0 {
                        for (x, &u) in row[k + 1..k_end].iter_mut().zip(u_row) {
                            *x -= factor * u;
                        }
                    }
                }
            }
            // 2. Deferred update of the trailing columns k_end..n.
            if k_end == n {
                continue;
            }
            // 2a. Rows inside the panel: sequential elimination (each row k' uses the
            //     already-updated rows above it).
            for k in kk..k_end {
                if !active[k - kk] {
                    continue;
                }
                let (upper, lower) = d.split_at_mut((k + 1) * n);
                let u_row = &upper[k * n + k_end..(k + 1) * n];
                for row in lower.chunks_exact_mut(n).take(k_end - k - 1) {
                    let factor = row[k];
                    if factor != 0.0 {
                        for (x, &u) in row[k_end..].iter_mut().zip(u_row) {
                            *x -= factor * u;
                        }
                    }
                }
            }
            // 2b. Rows below the panel: a multiply-accumulate A22 ← A22 − L21·U12 with
            //     the panel's U rows (≤ PANEL·n doubles) staying cache-hot.  Each row's
            //     update is independent of every other row, so the rows can be split
            //     into bands across the pool; within a row the ascending-k loop is the
            //     same either way, keeping the factors bit-identical.
            let (panel_rows, trailing_rows) = d.split_at_mut(k_end * n);
            let trailing_count = trailing_rows.len() / n;
            let band_rows = par_band_rows(trailing_count, k_end - kk, n - k_end, pool.threads());
            if band_rows >= trailing_count {
                lu_trailing_update(trailing_rows, panel_rows, &active, kk, k_end, n);
            } else {
                let panel_ref: &[f64] = panel_rows;
                pool.par_chunks_mut(trailing_rows, band_rows * n, |_, band| {
                    lu_trailing_update(band, panel_ref, &active, kk, k_end, n);
                })?;
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(LuDecomposition { lu, perm, perm_sign, singular_at })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Returns `true` if the matrix was found to be singular.
    pub fn is_singular(&self) -> bool {
        self.singular_at.is_some()
    }

    /// Consumes the decomposition, returning the matrix that stores the packed
    /// factors — useful for recycling the buffer through a [`Workspace`].
    pub fn into_matrix(self) -> Matrix {
        self.lu
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        if self.singular_at.is_some() {
            return 0.0;
        }
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }

    fn ensure_regular(&self) -> Result<()> {
        if let Some(pivot) = self.singular_at {
            return Err(LinalgError::Singular { pivot });
        }
        Ok(())
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length, or
    /// [`LinalgError::Singular`] if the matrix was singular.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided buffer (no allocation).
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), plus a length check on `x`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        self.ensure_regular()?;
        let n = self.dim();
        if b.len() != n || x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU solve",
                left: (n, n),
                right: (b.len().max(x.len()), 1),
            });
        }
        let d = self.lu.as_slice();
        // Apply the permutation, then forward- and back-substitute.
        // urs-analyze: begin(no_alloc)
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for i in 1..n {
            let row = &d[i * n..i * n + i];
            let mut sum = x[i];
            for (l, &xj) in row.iter().zip(x.iter()) {
                sum -= l * xj;
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let row = &d[i * n..(i + 1) * n];
            let mut sum = x[i];
            for (u, &xj) in row[i + 1..].iter().zip(x[i + 1..].iter()) {
                sum -= u * xj;
            }
            x[i] = sum / row[i];
        }
        // urs-analyze: end(no_alloc)
        Ok(())
    }

    /// Solves `A X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), plus a dimension check on `B`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.dim(), b.cols());
        self.solve_matrix_into(b, &mut out)?;
        Ok(out)
    }

    /// Solves `A X = B` into a caller-provided matrix (no allocation).
    ///
    /// All right-hand-side columns are eliminated simultaneously by whole-row
    /// operations, so the row-major layout is traversed contiguously — this is the
    /// multi-RHS kernel behind the solvers' explicit `(−Q1)⁻¹` and right solves.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), plus dimension checks on `B` and `out`.
    pub fn solve_matrix_into(&self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        self.ensure_regular()?;
        let n = self.dim();
        if b.rows() != n || out.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU matrix solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        let w = b.cols();
        // Gather the permuted rows of B, then block-substitute row-wise.
        for (i, &p) in self.perm.iter().enumerate() {
            out.as_mut_slice()[i * w..(i + 1) * w]
                .copy_from_slice(&b.as_slice()[p * w..(p + 1) * w]);
        }
        let d = self.lu.as_slice();
        let x = out.as_mut_slice();
        for i in 1..n {
            let (prev, rest) = x.split_at_mut(i * w);
            let xi = &mut rest[..w];
            // urs-analyze: allow(slice_index, reason = "offsets bounded by the factor dimension n; lockstep substitution hot loop")
            substitute_row(xi, prev, &d[i * n..i * n + i], w);
        }
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut((i + 1) * w);
            let xi = &mut head[i * w..];
            let row = &d[i * n..(i + 1) * n];
            // urs-analyze: allow(slice_index, reason = "offsets bounded by the factor dimension n; lockstep substitution hot loop")
            substitute_row(xi, tail, &row[i + 1..], w);
            let inv = row[i];
            for t in xi.iter_mut() {
                *t /= inv;
            }
        }
        Ok(())
    }

    /// Solves `X A = B` (right division) into a caller-provided matrix.
    ///
    /// Each row of `X` solves `Aᵀ xᵀ = bᵀ`, performed with the *existing* factors
    /// through `Aᵀ = Uᵀ Lᵀ P` — no transpose and no second factorisation.  `ws`
    /// lends the one scratch row the final column permutation needs.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), plus dimension checks on `B` and `out`.
    pub fn solve_right_matrix_into(
        &self,
        b: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        self.solve_right_matrix_into_with(b, out, ws, &ThreadPool::serial())
    }

    /// [`solve_right_matrix_into`](Self::solve_right_matrix_into) with the rows of
    /// `X` partitioned across the workers of `pool`.
    ///
    /// Each row of `X` is an independent triangular solve, so row bands can run
    /// concurrently; every row performs the identical column-ordered substitution it
    /// performs serially, keeping the result bit-identical at any thread count.  The
    /// serial path borrows its scratch row from `ws`; parallel workers each allocate
    /// one scratch row of their own, so a [`Workspace`] never crosses a thread.
    ///
    /// # Errors
    ///
    /// Same as [`solve_right_matrix_into`](Self::solve_right_matrix_into), plus
    /// [`LinalgError::WorkerPanic`] if a worker panicked.
    pub fn solve_right_matrix_into_with(
        &self,
        b: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
        pool: &ThreadPool,
    ) -> Result<()> {
        self.ensure_regular()?;
        let n = self.dim();
        if b.cols() != n || out.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU right matrix solve",
                left: b.shape(),
                right: (n, n),
            });
        }
        out.copy_from(b)?;
        self.right_solve_rows_with(out, ws, pool)
    }

    /// Solves `X A = B` for a **diagonal** `B` given by its packed diagonal,
    /// without materialising the dense right-hand side.
    ///
    /// `out` is seeded with `diag` scattered onto the diagonal and then runs
    /// exactly the row substitutions of
    /// [`solve_right_matrix_into_with`](Self::solve_right_matrix_into_with), so
    /// the result is bit-identical to the dense call on `B = diag(diag)`.
    ///
    /// # Errors
    ///
    /// Same as [`solve_right_matrix_into_with`](Self::solve_right_matrix_into_with).
    pub fn solve_right_diagonal_into_with(
        &self,
        diag: &[f64],
        out: &mut Matrix,
        ws: &mut Workspace,
        pool: &ThreadPool,
    ) -> Result<()> {
        self.ensure_regular()?;
        let n = self.dim();
        if diag.len() != n || out.shape() != (n, n) {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU right diagonal solve",
                left: (diag.len(), diag.len()),
                right: (n, n),
            });
        }
        out.as_mut_slice().fill(0.0);
        for (i, &v) in diag.iter().enumerate() {
            // urs-analyze: allow(slice_index, reason = "offsets bounded by the factor dimension n; lockstep substitution hot loop")
            out[(i, i)] = v;
        }
        self.right_solve_rows_with(out, ws, pool)
    }

    /// Right-divides every row of `out` in place: the shared tail of the
    /// `solve_right_*` entry points, which differ only in how they seed `out`.
    fn right_solve_rows_with(
        &self,
        out: &mut Matrix,
        ws: &mut Workspace,
        pool: &ThreadPool,
    ) -> Result<()> {
        let n = self.dim();
        let d = self.lu.as_slice();
        let rows = out.rows();
        let band_rows = par_band_rows(rows, n, n, pool.threads());
        if band_rows >= rows {
            let mut scratch = ws.real_buffer(n);
            right_solve_band(out.as_mut_slice(), d, &self.perm, &mut scratch, n);
            ws.release_real_buffer(scratch);
            return Ok(());
        }
        let perm = &self.perm;
        pool.par_chunks_mut_with(
            out.as_mut_slice(),
            band_rows * n,
            || vec![0.0; n],
            |scratch, _, band| {
                right_solve_band(band, d, perm, scratch, n);
            },
        )?;
        Ok(())
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix was singular.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// A right null vector `x` (`A x ≈ 0`) of a numerically singular matrix,
    /// normalised to unit maximum modulus.
    ///
    /// The vector is obtained by back-substitution through `U`, treating the
    /// smallest pivot as exactly zero.  For a matrix evaluated at an accurate
    /// eigenvalue this is the standard and numerically adequate way to recover
    /// the eigenvector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if the back-substitution produces a
    /// zero or non-finite vector (the matrix was not actually near-singular).
    pub fn null_vector(&self) -> Result<Vec<f64>> {
        let n = self.dim();
        let diagonal = self.lu.diagonal();
        let smallest = diagonal.iter().enumerate().min_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
        let k = smallest.map_or(0, |(i, _)| i);
        let mut x = vec![0.0; n];
        if let Some(xk) = x.get_mut(k) {
            *xk = 1.0;
        }
        // Solve U[0..k, 0..k]·x[0..k] = −U[0..k, k] by back-substitution.
        for (i, row) in self.lu.as_slice().chunks_exact(n).enumerate().take(k).rev() {
            let (Some(&pivot), Some(&u_ik), Some(between)) =
                (row.get(i), row.get(k), row.get(i + 1..k))
            else {
                continue;
            };
            let mut sum = -u_ik;
            for (u, xj) in between.iter().zip(x.iter().skip(i + 1)) {
                sum -= u * xj;
            }
            if let Some(xi) = x.get_mut(i) {
                // A second tiny pivot: treat this component as free.
                *xi = if pivot.abs() < PIVOT_EPS { 0.0 } else { sum / pivot };
            }
        }
        let max = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        if !(max.is_finite() && max > 0.0) {
            return Err(LinalgError::InvalidInput(
                "null-vector extraction failed: matrix is not numerically singular".into(),
            ));
        }
        for v in &mut x {
            *v /= max;
        }
        Ok(x)
    }
}

/// Phase 2b of the blocked elimination: `A22 ← A22 − L21·U12` over a band of rows
/// below the panel.  Serial and parallel paths both call this on contiguous row
/// bands, so each row's arithmetic order never depends on the thread count.
///
/// Quads of rows whose factors are all non-zero, under a panel whose columns all
/// produced pivots, go through the fused four-row gemm kernel with `alpha = −1`:
/// `x + (−l)·u` equals `x − l·u` exactly in IEEE arithmetic and the kernel keeps
/// the ascending-`k` order, so it changes wall time, never bits.  Every other row
/// takes [`lu_trailing_row`], which skips zero factors and inactive columns.
// urs-analyze: begin(no_alloc)
fn lu_trailing_update(
    rows: &mut [f64],
    panel_rows: &[f64],
    active: &[bool; PANEL],
    kk: usize,
    k_end: usize,
    n: usize,
) {
    let all_active = active.iter().take(k_end - kk).all(|&a| a);
    let mut quads = rows.chunks_exact_mut(4 * n);
    for quad in &mut quads {
        let dense = all_active
            && quad.chunks_exact(n).all(|row| {
                // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip path; bitwise test is part of the bit-identity contract")
                row.get(kk..k_end).is_some_and(|factors| factors.iter().all(|&f| f != 0.0))
            });
        if !dense {
            for row in quad.chunks_exact_mut(n) {
                lu_trailing_row(row, panel_rows, active, kk, k_end, n);
            }
            continue;
        }
        let (r0, rest) = quad.split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        let (l0, u0) = r0.split_at_mut(k_end);
        let (l1, u1) = r1.split_at_mut(k_end);
        let (l2, u2) = r2.split_at_mut(k_end);
        let (l3, u3) = r3.split_at_mut(k_end);
        let tiles = [&*l0, &*l1, &*l2, &*l3].map(|l| l.get(kk..).unwrap_or_default());
        gemm_rows4_panel([u0, u1, u2, u3], tiles, panel_rows, -1.0, kk, k_end, n, n);
    }
    for row in quads.into_remainder().chunks_exact_mut(n) {
        lu_trailing_row(row, panel_rows, active, kk, k_end, n);
    }
}

/// One row of [`lu_trailing_update`], eliminating column by column.
fn lu_trailing_row(
    row: &mut [f64],
    panel_rows: &[f64],
    active: &[bool; PANEL],
    kk: usize,
    k_end: usize,
    n: usize,
) {
    let (factors, trailing) = row.split_at_mut(k_end);
    for ((k, &factor), &on) in (kk..).zip(factors.get(kk..).unwrap_or_default()).zip(active) {
        // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, part of the bit-identity contract")
        if !on || factor == 0.0 {
            continue;
        }
        let u_row = panel_rows.get(k * n + k_end..(k + 1) * n).unwrap_or_default();
        for (x, &u) in trailing.iter_mut().zip(u_row) {
            *x -= factor * u;
        }
    }
}

/// Right-divides a band of rows: quads of rows go through the tiled
/// [`right_solve_rows4`] kernel, the remainder through the scalar
/// [`right_solve_row`].  Rows of `X A = B` never exchange data, and both kernels
/// perform the identical column-ordered substitution per row, so the grouping —
/// like the worker partitioning above — changes wall time, never bits.
fn right_solve_band(band: &mut [f64], d: &[f64], perm: &[usize], scratch: &mut [f64], n: usize) {
    let mut quads = band.chunks_exact_mut(4 * n);
    for quad in &mut quads {
        let (r0, rest) = quad.split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        right_solve_rows4([r0, r1, r2, r3], d, perm, scratch, n);
    }
    for row in quads.into_remainder().chunks_exact_mut(n) {
        right_solve_row(row, d, perm, scratch, n);
    }
}

/// Four rows of the right division, advanced four factor rows per pass.
///
/// A forward pass takes rows `j..j+4` of `U`, a backward pass rows `j−1` down to
/// `j−4` of `L`.  Each output row first solves the 4×4 corner of those columns in
/// the step order of [`right_solve_row`], which yields its four coefficients; one
/// sweep over the remaining columns then applies the whole 4×4 tile of updates
/// (see [`right_solve_tile`]).  The `n mod 4` steps left over take the scalar
/// steps of `right_solve_row` itself.  Every element therefore sees exactly the
/// multiplies and subtractions of `right_solve_row` in the same order, so the
/// result is bit-identical, while each output element is loaded and stored once
/// per four updates instead of once per update.
fn right_solve_rows4(
    mut rows: [&mut [f64]; 4],
    d: &[f64],
    perm: &[usize],
    scratch: &mut [f64],
    n: usize,
) {
    // w U = b: forward, rows j..j+4 of U per pass.
    let mut j = 0;
    while j + 4 <= n {
        let corner = factor_corner(d, n, j);
        let w = forward_corners(rows.each_mut().map(|row| row.get_mut(j..j + 4)), &corner);
        let u = [0, 1, 2, 3].map(|t| d.get((j + t) * n + j + 4..(j + t + 1) * n));
        right_solve_tile(rows.each_mut().map(|row| row.get_mut(j + 4..)), &w, u);
        j += 4;
    }
    for j in j..n {
        for row in rows.iter_mut() {
            forward_step(row, d, n, j);
        }
    }
    // w L = w' (unit diagonal): backward, rows j−1 down to j−4 of L per pass.
    let mut j = n;
    while j >= 4 {
        let corner = factor_corner(d, n, j - 4);
        let w = backward_corners(rows.each_mut().map(|row| row.get_mut(j - 4..j)), &corner);
        let l = [1, 2, 3, 4].map(|t| d.get((j - t) * n..(j - t) * n + j - 4));
        right_solve_tile(rows.each_mut().map(|row| row.get_mut(..j - 4)), &w, l);
        j -= 4;
    }
    for j in (0..j).rev() {
        for row in rows.iter_mut() {
            backward_step(row, d, n, j);
        }
    }
    // X = W P: scatter within each row.
    for row in rows {
        scatter_row(row, perm, scratch);
    }
}

/// The 4×4 block of the packed factors at rows and columns `j..j+4`.
#[inline(always)]
fn factor_corner(d: &[f64], n: usize, j: usize) -> [[f64; 4]; 4] {
    [0, 1, 2, 3].map(|t| {
        let row = d.get((j + t) * n + j..(j + t) * n + j + 4);
        row.and_then(|r| <[f64; 4]>::try_from(r).ok()).unwrap_or_default()
    })
}

/// The corners of a forward pass: columns `j..j+4` of each of the four rows
/// solved against the corner `u` of `U`, the steps `j..j+4` of
/// [`right_solve_row`] restricted to those columns.  Returns each row's
/// coefficients `w_j..w_{j+3}`.
#[inline(always)]
fn forward_corners(mut rows: [Option<&mut [f64]>; 4], u: &[[f64; 4]; 4]) -> [[f64; 4]; 4] {
    let mut x = rows.each_ref().map(load_corner);
    for t in 0..4 {
        // urs-analyze: allow(slice_index, reason = "constant indices below 4 into 4x4 arrays")
        let pivot = u[t][t];
        for xr in &mut x {
            // urs-analyze: allow(slice_index, reason = "constant indices below 4 into 4x4 arrays")
            xr[t] /= pivot;
        }
        for xr in &mut x {
            // urs-analyze: allow(slice_index, reason = "constant indices below 4 into 4x4 arrays")
            let w = xr[t];
            // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, mirroring right_solve_row")
            if w != 0.0 {
                for c in t + 1..4 {
                    // urs-analyze: allow(slice_index, reason = "constant indices below 4 into 4x4 arrays")
                    xr[c] -= w * u[t][c];
                }
            }
        }
    }
    store_corners(&mut rows, &x);
    x
}

/// The corners of a backward pass: columns `j..j+4` of each of the four rows
/// against the corner `l` of `L`, the steps `j+3` down to `j` of
/// [`right_solve_row`] restricted to those columns.  Returns each row's
/// coefficients `w_{j+3}, …, w_j` in that (step) order.
#[inline(always)]
fn backward_corners(mut rows: [Option<&mut [f64]>; 4], l: &[[f64; 4]; 4]) -> [[f64; 4]; 4] {
    let mut x = rows.each_ref().map(load_corner);
    for t in (0..4).rev() {
        for xr in &mut x {
            // urs-analyze: allow(slice_index, reason = "constant indices below 4 into 4x4 arrays")
            let w = xr[t];
            // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, mirroring right_solve_row")
            if w != 0.0 {
                for c in 0..t {
                    // urs-analyze: allow(slice_index, reason = "constant indices below 4 into 4x4 arrays")
                    xr[c] -= w * l[t][c];
                }
            }
        }
    }
    store_corners(&mut rows, &x);
    x.map(|[w0, w1, w2, w3]| [w3, w2, w1, w0])
}

/// A four-column window of a row, copied out.
#[inline(always)]
fn load_corner(window: &Option<&mut [f64]>) -> [f64; 4] {
    window.as_deref().and_then(|x| <[f64; 4]>::try_from(x).ok()).unwrap_or_default()
}

/// Writes solved corners back to the rows' four-column windows.
#[inline(always)]
fn store_corners(rows: &mut [Option<&mut [f64]>; 4], x: &[[f64; 4]; 4]) {
    for (window, corner) in rows.iter_mut().zip(x) {
        if let Some(window) = window {
            window.copy_from_slice(corner);
        }
    }
}

/// One tile of a pass: `x −= w[r][0]·f₀; x −= w[r][1]·f₁; x −= w[r][2]·f₂;
/// x −= w[r][3]·f₃` for every element `x` of output row `r`, with `f_t` the
/// matching slice of the pass's factor row `t`.  With all sixteen coefficients
/// non-zero the rows are swept in pairs, each pair taking all four factor rows in
/// one sweep; a tile with a zero coefficient instead takes each row's non-zero
/// coefficients one sweep at a time, the zero skip of [`right_solve_row`].  Either
/// way each element's subtractions run in `t` order.
#[inline(always)]
fn right_solve_tile(
    rows: [Option<&mut [f64]>; 4],
    w: &[[f64; 4]; 4],
    factors: [Option<&[f64]>; 4],
) {
    let [x0, x1, x2, x3] = rows.map(Option::unwrap_or_default);
    let f = factors.map(Option::unwrap_or_default);
    // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, mirroring right_solve_row")
    if w.iter().flatten().all(|&c| c != 0.0) {
        let [w0, w1, w2, w3] = w;
        right_solve_sweep2(x0, x1, w0, w1, f);
        right_solve_sweep2(x2, x3, w2, w3, f);
        return;
    }
    for (row, coefficients) in [x0, x1, x2, x3].into_iter().zip(w) {
        for (&c, f_t) in coefficients.iter().zip(f) {
            // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, mirroring right_solve_row")
            if c != 0.0 {
                for (x, &v) in row.iter_mut().zip(f_t) {
                    *x -= c * v;
                }
            }
        }
    }
}

/// Two rows of a dense tile in one sweep: each output element is loaded and
/// stored once for its four subtractions.
#[inline(always)]
fn right_solve_sweep2(
    x0: &mut [f64],
    x1: &mut [f64],
    w0: &[f64; 4],
    w1: &[f64; 4],
    factors: [&[f64]; 4],
) {
    let [f0, f1, f2, f3] = factors;
    let [w00, w01, w02, w03] = *w0;
    let [w10, w11, w12, w13] = *w1;
    for (((((x0, x1), &v0), &v1), &v2), &v3) in
        x0.iter_mut().zip(x1.iter_mut()).zip(f0).zip(f1).zip(f2).zip(f3)
    {
        let mut t = *x0;
        t -= w00 * v0;
        t -= w01 * v1;
        t -= w02 * v2;
        t -= w03 * v3;
        *x0 = t;
        let mut t = *x1;
        t -= w10 * v0;
        t -= w11 * v1;
        t -= w12 * v2;
        t -= w13 * v3;
        *x1 = t;
    }
}

/// One row of the right division `X A = B`: solve `w U = b` forward, `w L = w'`
/// backward, then scatter through the column permutation using `scratch` (length
/// `n`).  The reference the tiled [`right_solve_rows4`] reproduces bit for bit,
/// and the kernel of the rows a band has beyond its quads.
fn right_solve_row(row: &mut [f64], d: &[f64], perm: &[usize], scratch: &mut [f64], n: usize) {
    for j in 0..n {
        forward_step(row, d, n, j);
    }
    for j in (0..n).rev() {
        backward_step(row, d, n, j);
    }
    scatter_row(row, perm, scratch);
}

/// Step `j` of `w U = b`: `w_j = x_j / U_jj`, then, unless `w_j` is zero,
/// `x_c −= w_j·U_jc` for every column `c > j`.
fn forward_step(row: &mut [f64], d: &[f64], n: usize, j: usize) {
    let (done, rest) = row.split_at_mut(j + 1);
    let u_row = d.get(j * n + j..(j + 1) * n).and_then(<[f64]>::split_first);
    if let (Some(w), Some((&pivot, u))) = (done.last_mut(), u_row) {
        *w /= pivot;
        // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate of the reference substitution")
        if *w != 0.0 {
            for (x, &v) in rest.iter_mut().zip(u) {
                *x -= *w * v;
            }
        }
    }
}

/// Step `j` of `w L = w'` (unit diagonal): unless `w_j` is zero,
/// `x_c −= w_j·L_jc` for every column `c < j`.
fn backward_step(row: &mut [f64], d: &[f64], n: usize, j: usize) {
    let (rest, done) = row.split_at_mut(j);
    if let Some(&w) = done.first() {
        // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate of the reference substitution")
        if w != 0.0 {
            for (x, &v) in rest.iter_mut().zip(d.get(j * n..j * n + j).unwrap_or_default()) {
                *x -= w * v;
            }
        }
    }
}

/// `X = W P` within one row: entry `k` of the solved row moves to column
/// `perm[k]`, through `scratch` (length `n`).
fn scatter_row(row: &mut [f64], perm: &[usize], scratch: &mut [f64]) {
    scratch.copy_from_slice(row);
    for (&v, &p) in scratch.iter().zip(perm) {
        if let Some(x) = row.get_mut(p) {
            *x = v;
        }
    }
}

/// One block-substitution row of the multi-RHS solves: `xi ← xi − Σ_j coeffs[j]·rows[j]`
/// with `rows[j]` the `w`-wide RHS row at offset `j·w`, `j` ascending.  Zero
/// coefficients are skipped exactly as the reference loop does; when four
/// consecutive coefficients are all nonzero the four updates run in one pass over
/// `xi` — the same multiplies and subtractions in the same per-element order (no
/// fusion, no reassociation), so the result is bit-identical while the `xi`
/// load/store traffic drops to a quarter.
pub(crate) fn substitute_row(xi: &mut [f64], rhs_rows: &[f64], coeffs: &[f64], w: usize) {
    let mut j = 0;
    while j + 4 <= coeffs.len() {
        // urs-analyze: allow(slice_index, reason = "offsets bounded by the factor dimension n; lockstep substitution hot loop")
        let c0 = coeffs[j];
        // urs-analyze: allow(slice_index, reason = "offsets bounded by the factor dimension n; lockstep substitution hot loop")
        let c1 = coeffs[j + 1];
        // urs-analyze: allow(slice_index, reason = "offsets bounded by the factor dimension n; lockstep substitution hot loop")
        let c2 = coeffs[j + 2];
        // urs-analyze: allow(slice_index, reason = "offsets bounded by the factor dimension n; lockstep substitution hot loop")
        let c3 = coeffs[j + 3];
        // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, mirroring the reference substitution loop")
        if c0 != 0.0 && c1 != 0.0 && c2 != 0.0 && c3 != 0.0 {
            // urs-analyze: allow(slice_index, reason = "RHS rows j..j+3, in range since (j+4)·w ≤ coeffs.len()·w ≤ rhs_rows.len()")
            let r0 = &rhs_rows[j * w..(j + 1) * w];
            // urs-analyze: allow(slice_index, reason = "RHS row j+1, in range as above")
            let r1 = &rhs_rows[(j + 1) * w..(j + 2) * w];
            // urs-analyze: allow(slice_index, reason = "RHS row j+2, in range as above")
            let r2 = &rhs_rows[(j + 2) * w..(j + 3) * w];
            // urs-analyze: allow(slice_index, reason = "RHS row j+3, in range as above")
            let r3 = &rhs_rows[(j + 3) * w..(j + 4) * w];
            for ((((t, &v0), &v1), &v2), &v3) in xi.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                let mut acc = *t;
                acc -= c0 * v0;
                acc -= c1 * v1;
                acc -= c2 * v2;
                acc -= c3 * v3;
                *t = acc;
            }
        } else {
            // urs-analyze: allow(slice_index, reason = "offsets bounded by the factor dimension n; lockstep substitution hot loop")
            for (step, &c) in coeffs[j..j + 4].iter().enumerate() {
                // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, mirroring the reference substitution loop")
                if c != 0.0 {
                    let jj = j + step;
                    // urs-analyze: allow(slice_index, reason = "RHS row jj < coeffs.len(), so (jj+1)·w ≤ rhs_rows.len()")
                    let xj = &rhs_rows[jj * w..(jj + 1) * w];
                    for (t, &v) in xi.iter_mut().zip(xj) {
                        *t -= c * v;
                    }
                }
            }
        }
        j += 4;
    }
    for (tail, &c) in coeffs.iter().enumerate().skip(j) {
        // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, mirroring the reference substitution loop")
        if c != 0.0 {
            // urs-analyze: allow(slice_index, reason = "RHS row tail < coeffs.len(), so (tail+1)·w ≤ rhs_rows.len()")
            let xj = &rhs_rows[tail * w..(tail + 1) * w];
            for (t, &v) in xi.iter_mut().zip(xj) {
                *t -= c * v;
            }
        }
    }
}
// urs-analyze: end(no_alloc)

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singular_detection_and_null_vector() {
        // Rank-1 matrix: rows (1, 2) and (2, 4).
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        assert!(LuDecomposition::new(&a).is_err());
        let x = LuDecomposition::new_allow_singular(&a).unwrap().null_vector().unwrap();
        assert!(a.matvec(&x).unwrap().iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn left_null_vector_annihilates_rows() {
        // Row 2 = row 0 + row 1, so the matrix is row-rank deficient.
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0][..],
            &[0.5, -1.0, -0.5][..],
            &[1.5, 1.0, 2.5][..],
        ])
        .unwrap();
        // A left null vector of `a` is a right null vector of `aᵀ`.
        let u = LuDecomposition::new_allow_singular(&a.transpose()).unwrap().null_vector().unwrap();
        let ua = a.vecmat(&u).unwrap();
        assert!(ua.iter().all(|v| v.abs() < 1e-12), "u A = {ua:?}");
        assert!((u.iter().fold(0.0_f64, |m, v| m.max(v.abs())) - 1.0).abs() < 1e-15);
    }

    fn reconstruct(lu: &LuDecomposition, n: usize) -> Matrix {
        // Rebuild P^T * L * U to compare against A.
        let mut l = Matrix::identity(n);
        let mut u = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if j < i {
                    l[(i, j)] = lu.lu[(i, j)];
                } else {
                    u[(i, j)] = lu.lu[(i, j)];
                }
            }
        }
        let plu = l.matmul(&u).unwrap();
        // Undo the permutation: row i of PLU equals row perm[i] of A.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(lu.perm[i], j)] = plu[(i, j)];
            }
        }
        a
    }

    #[test]
    fn factorisation_reconstructs_original() {
        let a = Matrix::from_rows(&[
            &[2.0, 1.0, 1.0][..],
            &[4.0, -6.0, 0.0][..],
            &[-2.0, 7.0, 2.0][..],
        ])
        .unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(reconstruct(&lu, 3).approx_eq(&a, 1e-12));
    }

    #[test]
    fn blocked_factorisation_crosses_panel_boundaries() {
        // n > PANEL exercises the deferred trailing update; reconstruction must hold.
        let n = PANEL + 13;
        let mut seed = 3_u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = Matrix::from_fn(n, n, |_, _| next());
        for i in 0..n {
            a[(i, i)] += 4.0;
        }
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(reconstruct(&lu, n).approx_eq(&a, 1e-10));
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (orig, rec) in b.iter().zip(back) {
            assert!((orig - rec).abs() < 1e-9);
        }
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..], &[7.0, 8.0, 10.0][..]])
                .unwrap();
        let det = LuDecomposition::new(&a).unwrap().determinant();
        assert!((det - (-3.0)).abs() < 1e-12);
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[
            &[3.0, 2.0, -1.0][..],
            &[2.0, -2.0, 4.0][..],
            &[-1.0, 0.5, -1.0][..],
        ])
        .unwrap();
        let x = a.solve(&[1.0, -2.0, 0.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - (-2.0)).abs() < 1e-12);
        assert!((x[2] - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        assert!(matches!(LuDecomposition::new(&a), Err(LinalgError::Singular { .. })));
        let lu = LuDecomposition::new_allow_singular(&a).unwrap();
        assert!(lu.is_singular());
        assert_eq!(lu.determinant(), 0.0);
        assert!(lu.solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
        assert!((lu.determinant() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn inverse_of_permutation_like_matrix() {
        let a =
            Matrix::from_rows(&[&[0.0, 2.0, 0.0][..], &[0.0, 0.0, 3.0][..], &[4.0, 0.0, 0.0][..]])
                .unwrap();
        let inv = a.inverse().unwrap();
        assert!(a.matmul(&inv).unwrap().approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn non_finite_input_rejected() {
        let a = Matrix::from_rows(&[&[f64::NAN, 1.0][..], &[0.0, 1.0][..]]).unwrap();
        assert!(matches!(LuDecomposition::new(&a), Err(LinalgError::InvalidInput(_))));
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = Matrix::identity(3);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(matches!(lu.solve(&[1.0]), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn solve_matrix_right_hand_side() {
        let a = Matrix::from_rows(&[&[2.0, 0.0][..], &[0.0, 4.0][..]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0, 4.0][..], &[8.0, 12.0][..]]).unwrap();
        let x = a.lu().unwrap().solve_matrix(&b).unwrap();
        assert!(
            x.approx_eq(&Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 3.0][..]]).unwrap(), 1e-12)
        );
    }

    #[test]
    fn right_solve_matches_transposed_left_solve() {
        let a =
            Matrix::from_rows(&[&[3.0, 1.0, 0.5][..], &[0.2, -2.0, 1.0][..], &[1.0, 0.0, 4.0][..]])
                .unwrap();
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[-1.0, 0.5, 0.0][..]]).unwrap();
        let lu = a.lu().unwrap();
        let mut ws = Workspace::new();
        let mut x = Matrix::zeros(2, 3);
        lu.solve_right_matrix_into(&b, &mut x, &mut ws).unwrap();
        // X A = B must hold.
        let back = x.matmul(&a).unwrap();
        assert!(back.approx_eq(&b, 1e-12), "XA = {back:?}");
    }

    #[test]
    fn from_matrix_and_into_matrix_round_trip_storage() {
        let a = Matrix::from_rows(&[&[4.0, 7.0][..], &[2.0, 6.0][..]]).unwrap();
        let lu = LuDecomposition::from_matrix(a.clone()).unwrap();
        let x = lu.solve(&[1.0, 0.0]).unwrap();
        let back = a.matvec(&x).unwrap();
        assert!((back[0] - 1.0).abs() < 1e-12 && back[1].abs() < 1e-12);
        let storage = lu.into_matrix();
        assert_eq!(storage.shape(), (2, 2));
    }
}
