//! Blocked LU factorisation with partial pivoting for real matrices.
//!
//! Above `SMALL` (40) rows the elimination runs in panels of `PANEL` (16) columns: the
//! panel is eliminated column by column in a column-major copy (pivot search on
//! the fully updated column, full-row swaps, the multipliers' divisions and the
//! in-panel updates each run down one contiguous column), the panel rows solve
//! for their part of `U` in row quads, and the rows below take
//! `A22 ← A22 − L21·U12` through the fused four-row kernel (`gemm_rows4`), the
//! only `O(n³)` work.  Every element still receives the textbook right-looking
//! elimination's divisions and ascending-`k` subtractions, with its exact-zero
//! skips and its inactive columns where a pivot underflows, so the factors,
//! the permutation and the singular pivot are those of the textbook, bit for bit,
//! at any thread count.  Smaller matrices take the textbook loop itself.

use crate::error::LinalgError;
use crate::matrix::{gemm_row_panel, gemm_rows4, par_band_rows, Matrix};
use crate::parallel::ThreadPool;
use crate::workspace::Workspace;
use crate::Result;

/// An LU factorisation `P·A = L·U` of a square real matrix with partial (row) pivoting.
///
/// The factors are stored compactly: the strictly lower triangle of `lu` holds the
/// multipliers of `L` (whose diagonal is implicitly 1) and the upper triangle holds `U`.
///
/// The factorisation is *blocked*: columns are eliminated in narrow panels and the
/// trailing submatrix is updated with the fused multiply-accumulate kernel (see the
/// module docs).  The arithmetic (and hence the result, bit for bit) is identical to
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

/// Whether a pivot leaves its column inactive (no multipliers, no updates): its
/// magnitude is below [`PIVOT_EPS`].  A NaN pivot, which an overflowing
/// elimination can produce from finite input, stays active.
fn underflows(pivot: f64) -> bool {
    pivot.abs() < PIVOT_EPS
}

/// Panel width of the blocked elimination.  The fused kernel loads and stores
/// each updated element once per four multipliers whatever the panel's depth, so
/// a wider panel (or a recursive split of one) buys the trailing update nothing
/// while the narrow updates inside the panel grow.
const PANEL: usize = 16;

/// Panel width when a pool of several workers runs the trailing updates.  Each
/// parallel update spawns the pool's workers, so a pooled factorisation wants
/// few of them: on two workers (2-vCPU host, interleaved runs, medians) 16-column
/// panels took 1.5×, 1.35×, 1.37× and 1.06× the time of 32-column ones at
/// n = 91, 153, 231 and 561.
const POOLED_PANEL: usize = 32;

/// Largest matrix factorised by the plain unblocked elimination.  Serially
/// (2-vCPU host, interleaved runs, best of seven) the blocked path took 1.6–2.3×
/// the unblocked time at n = 4–12, 1.2–1.8× at 16–32, 1.1–1.2× at 36–40 and
/// 0.74–1.03× at 44–64.
const SMALL: usize = 40;

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
    /// Panel factorisation (pivot search, swaps, multipliers) and the panel rows'
    /// solve stay serial — they are sequential dependency chains — but the
    /// multiply-accumulate of the rows *below* the panel is row-independent and is
    /// partitioned into bands.  Every row's update runs the identical ascending-`k`
    /// loop it runs serially, so the factors are bit-identical at any thread count.
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
        let blocked = n > SMALL;
        // Each parallel trailing update spawns the pool's workers, so a pool takes
        // wider panels and fewer updates.
        let panel = if pool.threads() > 1 { POOLED_PANEL } else { PANEL };
        let mut elimination = Elimination {
            d: lu.as_mut_slice(),
            n,
            panel: if blocked { vec![0.0; panel * n] } else { Vec::new() },
            perm: (0..n).collect(),
            perm_sign: 1.0,
            singular_at: None,
        };
        // urs-analyze: begin(no_alloc)
        if blocked {
            for kk in (0..n).step_by(panel) {
                let k_end = (kk + panel).min(n);
                let all_active = elimination.factor_panel(kk, k_end);
                elimination.eliminate(kk, k_end, all_active, pool)?;
            }
        } else {
            elimination.factor_unblocked();
        }
        // urs-analyze: end(no_alloc)
        let Elimination { perm, perm_sign, singular_at, .. } = elimination;
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

    /// The row permutation: row `i` of `L·U` is row `permutation()[i]` of `A`.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
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

/// The elimination in progress: the row-major `n × n` matrix being overwritten by
/// its packed factors, and the pivoting record.
struct Elimination<'a> {
    d: &'a mut [f64],
    n: usize,
    /// Column-major scratch for one panel: at most `POOLED_PANEL × n`.
    panel: Vec<f64>,
    perm: Vec<usize>,
    perm_sign: f64,
    singular_at: Option<usize>,
}

// urs-analyze: begin(no_alloc)
impl Elimination<'_> {
    /// The textbook right-looking elimination of the whole matrix, in place and
    /// row by row: the small-matrix path.
    fn factor_unblocked(&mut self) {
        let n = self.n;
        for k in 0..n {
            let column = |row: &[f64]| row.get(k).map_or(0.0, |v| v.abs());
            let mut pivot_row = k;
            let mut pivot_val = self.d.get(k * n..).map_or(0.0, column);
            for (i, row) in self.d.chunks_exact(n).enumerate().skip(k + 1) {
                if column(row) > pivot_val {
                    pivot_val = column(row);
                    pivot_row = i;
                }
            }
            if pivot_row != k {
                let (upper, lower) = self.d.split_at_mut(pivot_row * n);
                if let (Some(row_k), Some(row_p)) =
                    (upper.get_mut(k * n..(k + 1) * n), lower.get_mut(..n))
                {
                    row_k.swap_with_slice(row_p);
                }
                self.perm.swap(k, pivot_row);
                self.perm_sign = -self.perm_sign;
            }
            let (pivot_rows, trail) = self.d.split_at_mut((k + 1) * n);
            let Some((&pivot, u_row)) = pivot_rows.get(k * n + k..).and_then(<[f64]>::split_first)
            else {
                continue;
            };
            if underflows(pivot) {
                self.singular_at.get_or_insert(k);
                continue;
            }
            for row in trail.chunks_exact_mut(n) {
                let Some((l, rest)) = row.get_mut(k..).and_then(<[f64]>::split_first_mut) else {
                    continue;
                };
                *l /= pivot;
                // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, part of the bit-identity contract")
                if *l != 0.0 {
                    for (x, &u) in rest.iter_mut().zip(u_row) {
                        *x -= *l * u;
                    }
                }
            }
        }
    }

    /// The textbook elimination of the panel columns `c0..c1`, confined to them:
    /// each column's pivot search runs on the fully updated column, the pivot
    /// row swaps over the full width, and a pivot below [`PIVOT_EPS`] leaves its
    /// column inactive (no multipliers, no updates).
    ///
    /// The panel's rows `c0..n` are copied into [`panel`](Self::panel) column by
    /// column first, so that the pivot search, the multipliers' divisions and
    /// the column updates each run down one contiguous column, then copied back.
    /// Returns whether every panel column stayed active.
    fn factor_panel(&mut self, c0: usize, c1: usize) -> bool {
        let n = self.n;
        let m = n - c0;
        let panel = self.panel.get_mut(..(c1 - c0) * m).unwrap_or_default();
        for (i, row) in self.d.chunks_exact(n).skip(c0).enumerate() {
            for (column, &v) in panel.chunks_exact_mut(m).zip(row.get(c0..c1).unwrap_or_default()) {
                if let Some(x) = column.get_mut(i) {
                    *x = v;
                }
            }
        }
        let mut all_active = true;
        for k in 0..c1 - c0 {
            let column = panel.chunks_exact(m).nth(k).unwrap_or_default();
            let mut pivot_row = k;
            let mut pivot_val = column.get(k).map_or(0.0, |v| v.abs());
            for (i, v) in column.iter().enumerate().skip(k + 1) {
                if v.abs() > pivot_val {
                    pivot_val = v.abs();
                    pivot_row = i;
                }
            }
            if pivot_row != k {
                for column in panel.chunks_exact_mut(m) {
                    column.swap(k, pivot_row);
                }
                // The whole rows in `d`: their panel columns there are stale until
                // the copy back overwrites them.
                let (upper, lower) = self.d.split_at_mut((c0 + pivot_row) * n);
                if let (Some(row_k), Some(row_p)) =
                    (upper.get_mut((c0 + k) * n..(c0 + k + 1) * n), lower.get_mut(..n))
                {
                    row_k.swap_with_slice(row_p);
                }
                self.perm.swap(c0 + k, c0 + pivot_row);
                self.perm_sign = -self.perm_sign;
            }
            let (done, right) = panel.split_at_mut((k + 1) * m);
            let Some((&mut pivot, multipliers)) =
                done.get_mut(k * m + k..).and_then(<[f64]>::split_first_mut)
            else {
                continue;
            };
            if underflows(pivot) {
                self.singular_at.get_or_insert(c0 + k);
                all_active = false;
                continue;
            }
            for l in multipliers.iter_mut() {
                *l /= pivot;
            }
            let multipliers: &[f64] = multipliers;
            for column in right.chunks_exact_mut(m) {
                let Some((&mut u, below)) = column.get_mut(k..).and_then(<[f64]>::split_first_mut)
                else {
                    continue;
                };
                for (x, &l) in below.iter_mut().zip(multipliers) {
                    // The textbook skips a zero multiplier's row update; the
                    // select keeps that exact (a signed zero survives) while the
                    // loop stays branch-free.
                    // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, part of the bit-identity contract")
                    *x = if l != 0.0 { *x - l * u } else { *x };
                }
            }
        }
        for (i, row) in self.d.chunks_exact_mut(n).skip(c0).enumerate() {
            for (x, column) in
                row.get_mut(c0..c1).unwrap_or_default().iter_mut().zip(panel.chunks_exact(m))
            {
                if let Some(&v) = column.get(i) {
                    *x = v;
                }
            }
        }
        all_active
    }

    /// Applies the factorised panel columns `kk..k_end` to the columns right of
    /// it: the panel rows solve `L11·U12 = A12` in row quads, then the rows below
    /// take `A22 ← A22 − L21·U12`, in row bands across `pool`.  Both run through
    /// the fused four-row kernel; each element still takes its subtractions in
    /// ascending `k`, skipping zero multipliers and inactive columns, so neither
    /// the blocking nor the bands change a bit.  Unless `all_active`, the
    /// multipliers of the panel's inactive columns are masked to zero row by row.
    fn eliminate(
        &mut self,
        kk: usize,
        k_end: usize,
        all_active: bool,
        pool: &ThreadPool,
    ) -> Result<()> {
        let n = self.n;
        if k_end == n {
            return Ok(());
        }
        if all_active {
            forward_rows(self.d, n, kk, k_end, k_end, n, false);
        } else {
            for i in kk..k_end {
                let (done, rest) = self.d.split_at_mut(i * n);
                if let Some(row) = rest.get_mut(..n) {
                    masked_row_update(row, done, kk, i, k_end, n);
                }
            }
        }
        let (top, bottom) = self.d.split_at_mut(k_end * n);
        let top: &[f64] = top;
        let update = |band: &mut [f64]| {
            if !all_active {
                for row in band.chunks_exact_mut(n) {
                    masked_row_update(row, top, kk, k_end, k_end, n);
                }
                return;
            }
            let mut quads = band.chunks_exact_mut(4 * n);
            for quad in &mut quads {
                let [(l0, x0), (l1, x1), (l2, x2), (l3, x3)] =
                    quad_rows(quad, n).map(|row| row.split_at_mut(k_end));
                let tiles = [&*l0, &*l1, &*l2, &*l3].map(|l| l.get(kk..).unwrap_or_default());
                gemm_rows4([x0, x1, x2, x3], tiles, top, -1.0, kk, k_end, n, n);
            }
            for row in quads.into_remainder().chunks_exact_mut(n) {
                masked_row_update(row, top, kk, k_end, k_end, n);
            }
        };
        let rows = bottom.len() / n;
        let band_rows = par_band_rows(rows, k_end - kk, n - k_end, pool.threads());
        if band_rows >= rows {
            update(bottom);
        } else {
            pool.par_chunks_mut(bottom, band_rows * n, |_, band| update(band))?;
        }
        Ok(())
    }
}

/// One row's update from the factor rows `kk..k_end` of `above` (row `k` at
/// offset `k·n`) over its columns `j0..n`: `x ← x − Σ_k l_k·u_k`, `k` ascending,
/// with the multiplier of every column whose pivot underflowed read as zero.
fn masked_row_update(row: &mut [f64], above: &[f64], kk: usize, k_end: usize, j0: usize, n: usize) {
    let (left, window) = row.split_at_mut(j0);
    let mut multipliers = [0.0; POOLED_PANEL];
    let from_row = left.get(kk..k_end).unwrap_or_default();
    for ((slot, &l), k) in multipliers.iter_mut().zip(from_row).zip(kk..) {
        if above.get(k * n + k).is_some_and(|&pivot| !underflows(pivot)) {
            *slot = l;
        }
    }
    let tile = multipliers.get(..from_row.len()).unwrap_or_default();
    gemm_row_panel(window, tile, above, -1.0, kk, j0, n, n);
}

/// Right-divides a band of rows: quads of rows go through the tiled
/// [`right_solve_rows4`] kernel, the remainder through the scalar
/// [`right_solve_row`].  Rows of `X A = B` never exchange data, and both kernels
/// perform the identical column-ordered substitution per row, so the grouping —
/// like the worker partitioning above — changes wall time, never bits.
fn right_solve_band(band: &mut [f64], d: &[f64], perm: &[usize], scratch: &mut [f64], n: usize) {
    let mut quads = band.chunks_exact_mut(4 * n);
    for quad in &mut quads {
        right_solve_rows4(quad_rows(quad, n), d, perm, scratch, n);
    }
    for row in quads.into_remainder().chunks_exact_mut(n) {
        right_solve_row(row, d, perm, scratch, n);
    }
}

/// The four `n`-wide rows of a `4·n` chunk.
pub(crate) fn quad_rows(quad: &mut [f64], n: usize) -> [&mut [f64]; 4] {
    let (r0, rest) = quad.split_at_mut(n);
    let (r1, rest) = rest.split_at_mut(n);
    let (r2, r3) = rest.split_at_mut(n);
    [r0, r1, r2, r3]
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

/// Forward substitution in place on rows `r0..r1` of the row-major `n × n` matrix
/// `d`: row `i`'s columns `j0..j1` take `x_i ← x_i − Σ_k d_ik·x_k` over the rows
/// `r0 ≤ k < i`, `k` ascending and zero coefficients skipped, then, if `divide`,
/// `x_i ← x_i / d_ii`.  The coefficients `d_ik` (and `d_ii`) lie left of `j0`.
///
/// Rows go four at a time: the updates from the rows above a quad run through
/// [`gemm_rows4`] (`alpha = −1`, and `x + (−l)·u` equals `x − l·u` exactly), so
/// each earlier row is read once per quad rather than once per row; inside the
/// quad each row waits for the rows before it.  Every element receives the
/// textbook's subtractions in the textbook's order, so the grouping changes wall
/// time, never bits.  The LU's `U12` and the Cholesky panel's right part both
/// solve this way.
pub(crate) fn forward_rows(
    d: &mut [f64],
    n: usize,
    r0: usize,
    r1: usize,
    j0: usize,
    j1: usize,
    divide: bool,
) {
    // The row at the head of a slice, split into its coefficients and its window.
    fn split(row: &mut [f64], j0: usize, j1: usize) -> (&[f64], &mut [f64]) {
        let (left, right) = row.split_at_mut(j0);
        (left, right.get_mut(..j1 - j0).unwrap_or_default())
    }
    let finish = |left: &[f64], window: &mut [f64], i: usize| {
        if divide {
            let pivot = left.get(i).copied().unwrap_or(1.0);
            for v in window.iter_mut() {
                *v /= pivot;
            }
        }
    };
    let mut i0 = r0;
    while i0 + 4 <= r1 {
        let (above, rest) = d.split_at_mut(i0 * n);
        let Some(quad) = rest.get_mut(..4 * n) else { return };
        {
            let [(l0, x0), (l1, x1), (l2, x2), (l3, x3)] =
                quad_rows(quad, n).map(|q| split(q, j0, j1));
            let tiles = [l0, l1, l2, l3].map(|l| l.get(r0..i0).unwrap_or_default());
            gemm_rows4([x0, x1, x2, x3], tiles, above, -1.0, r0, j0, j1, n);
        }
        for t in 0..4 {
            let (done, current) = quad.split_at_mut(t * n);
            let (left, window) = split(current, j0, j1);
            gemm_row_panel(
                window,
                left.get(i0..i0 + t).unwrap_or_default(),
                done,
                -1.0,
                0,
                j0,
                j1,
                n,
            );
            finish(left, window, i0 + t);
        }
        i0 += 4;
    }
    for i in i0..r1 {
        let (above, rest) = d.split_at_mut(i * n);
        let (left, window) = split(rest, j0, j1);
        gemm_row_panel(window, left.get(r0..i).unwrap_or_default(), above, -1.0, r0, j0, j1, n);
        finish(left, window, i);
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
        // n > SMALL takes the blocked path, across several panels and a ragged
        // last one; reconstruction must hold.
        let n = SMALL + 2 * PANEL + 5;
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
