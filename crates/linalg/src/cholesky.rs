//! Blocked Cholesky factorisation of real symmetric positive-definite matrices.
//!
//! The elimination runs in panels of `PANEL` (16) rows.  Only the panel's
//! diagonal block is eliminated by the unblocked textbook step; the panel rows'
//! part right of it is a forward substitution against that block
//! (`lu::forward_rows`, quads of rows through the fused four-row kernel), and the
//! rows below the panel take the trailing update through the same kernel.  Every
//! element receives the textbook right-looking elimination's square root or
//! division and its ascending-`k` subtractions with the same exact-zero skips, so
//! the factor and the failing pivot of an indefinite input are the textbook's, bit
//! for bit, at any thread count.

use crate::error::LinalgError;
use crate::lu::{forward_rows, quad_rows, substitute_row};
use crate::matrix::{gemm_row_panel, gemm_rows4, par_band_rows, Matrix};
use crate::parallel::ThreadPool;
use crate::workspace::Workspace;
use crate::Result;

/// Panel width of the blocked factorisation: wide enough that the trailing update
/// streams long rows, narrow enough that the unblocked diagonal block stays small.
const PANEL: usize = 16;

/// Depth of the `k`-tiles of the lower solve's fused updates: the tile of earlier
/// rows a quad streams past stays cache-resident, as in the gemm kernel.
const K_TILE: usize = 64;

/// A Cholesky factorisation `A = L·Lᵀ` of a real symmetric positive-definite matrix.
///
/// The factor is kept in both triangles of one row-major matrix: the lower triangle
/// holds `L` and the upper triangle `Lᵀ`, so a row of `L` (the forward solve) and a
/// row of `Lᵀ` (the elimination) are both contiguous.  The factorisation reads the
/// upper triangle of `A` only; the caller guarantees symmetry.
///
/// Like [`LuDecomposition`](crate::LuDecomposition) the elimination is blocked:
/// panels of rows are factorised, their right part solved and the trailing rows
/// updated with the fused gemm kernel, and every element receives its updates in
/// the ascending order of the textbook right-looking algorithm — the blocking and
/// the worker partition change wall time, never bits.  At `n³/6` multiply-adds it
/// costs half an LU.
///
/// # Example
///
/// ```
/// use urs_linalg::{Cholesky, Matrix, Workspace};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0][..], &[2.0, 5.0][..]])?;
/// let cholesky = Cholesky::new(&a)?;
/// let l = cholesky.lower();
/// assert!(l.matmul(&l.transpose())?.approx_eq(&a, 1e-12));
/// // Z = L⁻¹·B
/// let mut z = Matrix::zeros(2, 2);
/// cholesky.solve_lower_into(&Matrix::identity(2), &mut z, &mut Workspace::new())?;
/// assert!(l.matmul(&z)?.approx_eq(&Matrix::identity(2), 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// `L` in the lower triangle, `Lᵀ` in the upper, the shared diagonal once.
    factor: Matrix,
}

impl Cholesky {
    /// Factorises a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::InvalidInput`] for non-finite values and
    /// [`LinalgError::NotPositiveDefinite`] at the first pivot that is not positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::from_matrix(a.clone())
    }

    /// Factorises a matrix taking ownership of its storage (no copy); recover the
    /// buffer with [`into_matrix`](Self::into_matrix).
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn from_matrix(a: Matrix) -> Result<Self> {
        Self::from_matrix_with(a, &ThreadPool::serial())
    }

    /// [`from_matrix`](Self::from_matrix) with the trailing-row updates of the
    /// blocked elimination fanned out across the workers of `pool`.
    ///
    /// The panel and its right part stay serial; the rows below it are independent
    /// and are split into bands, each row running the identical ascending-`k` update
    /// it runs serially, so the factor is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`from_matrix`](Self::from_matrix), plus
    /// [`LinalgError::WorkerPanic`] if a worker panicked.
    pub fn from_matrix_with(a: Matrix, pool: &ThreadPool) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidInput("matrix contains non-finite values".into()));
        }
        let n = a.rows();
        let mut factor = a;
        let d = factor.as_mut_slice();
        // urs-analyze: begin(no_alloc)
        for kk in (0..n).step_by(PANEL) {
            let k_end = (kk + PANEL).min(n);
            // 1. The panel's diagonal block, unblocked: row k becomes row k of Lᵀ
            //    there, and each later panel row stores its factor `Lᵀ_ki = L_ik` in
            //    its own lower triangle before taking the update.
            for k in kk..k_end {
                let (head, tail) = d.split_at_mut((k + 1) * n);
                let row_k = head.get_mut(k * n..k * n + k_end).unwrap_or_default();
                let Some((pivot, right)) = row_k.get_mut(k..).and_then(|r| r.split_first_mut())
                else {
                    continue;
                };
                if pivot.is_nan() || *pivot <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: k });
                }
                let root = pivot.sqrt();
                *pivot = root;
                for x in right.iter_mut() {
                    *x /= root;
                }
                let row_k: &[f64] = row_k;
                for (i, row) in (k + 1..k_end).zip(tail.chunks_exact_mut(n)) {
                    let factor = row_k.get(i).copied().unwrap_or(0.0);
                    if let Some(slot) = row.get_mut(k) {
                        *slot = factor;
                    }
                    // urs-analyze: allow(float_cmp, reason = "exact-zero skip gate, part of the bit-identity contract")
                    if factor != 0.0 {
                        let u_row = row_k.get(i..).unwrap_or_default();
                        for (x, &u) in
                            row.get_mut(i..k_end).unwrap_or_default().iter_mut().zip(u_row)
                        {
                            *x -= factor * u;
                        }
                    }
                }
            }
            if k_end == n {
                continue;
            }
            // 1b. The panel rows right of the block: row k subtracts the rows above
            //     it in the panel, `Lᵀ_k'k·Lᵀ_k'j`, then divides by its root — the
            //     textbook's updates from the panel's columns, in its order.
            forward_rows(d, n, kk, k_end, k_end, n, true);
            // 2. The rows below the panel, independent of one another: split into
            //    bands across the pool.
            let (panel_rows, trailing_rows) = d.split_at_mut(k_end * n);
            let count = trailing_rows.len() / n;
            let band_rows = par_band_rows(count, k_end - kk, n - k_end, pool.threads());
            if band_rows >= count {
                trailing_update(trailing_rows, panel_rows, k_end, kk, k_end, n);
            } else {
                let panel_ref: &[f64] = panel_rows;
                pool.par_chunks_mut(trailing_rows, band_rows * n, |band, rows| {
                    let first = k_end + band * band_rows;
                    trailing_update(rows, panel_ref, first, kk, k_end, n);
                })?;
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(Cholesky { factor })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.factor.rows()
    }

    /// The lower-triangular factor `L` (zeros above the diagonal).
    pub fn lower(&self) -> Matrix {
        let n = self.dim();
        let mut l = self.factor.clone();
        for (i, row) in l.as_mut_slice().chunks_exact_mut(n).enumerate() {
            for x in row.iter_mut().skip(i + 1) {
                *x = 0.0;
            }
        }
        l
    }

    /// Consumes the factorisation, returning its storage for recycling through a
    /// [`Workspace`].
    pub fn into_matrix(self) -> Matrix {
        self.factor
    }

    /// Solves `L·Z = B` for `Z = L⁻¹·B` into a caller-provided matrix.
    ///
    /// Serial form of [`solve_lower_into_with`](Self::solve_lower_into_with).
    ///
    /// # Errors
    ///
    /// As [`solve_lower_into_with`](Self::solve_lower_into_with).
    pub fn solve_lower_into(&self, b: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
        self.solve_lower_into_with(b, out, ws, &ThreadPool::serial())
    }

    /// Solves `L·Z = B` for `Z = L⁻¹·B` with the columns of `B` partitioned across
    /// the workers of `pool`.
    ///
    /// Every row of `Z` is a whole-row forward substitution over the rows above it,
    /// then a division by `L_ii`.  Columns never exchange data, so a parallel run
    /// copies each worker's band of columns into a packed buffer from `ws`, runs the
    /// same substitution on it and copies it back: every element sees the identical
    /// operations in the identical order, so `Z` is the same at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless `B` has `dim()` rows and
    /// `out` has `B`'s shape, or [`LinalgError::WorkerPanic`] if a worker panicked.
    pub fn solve_lower_into_with(
        &self,
        b: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
        pool: &ThreadPool,
    ) -> Result<()> {
        let n = self.dim();
        if b.rows() != n || out.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "Cholesky lower solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        let m = b.cols();
        let l = self.factor.as_slice();
        let band_cols = par_band_rows(m, n, n.div_ceil(2), pool.threads());
        if band_cols >= m {
            out.copy_from(b)?;
            forward_substitute(out.as_mut_slice(), l, n, m);
            return Ok(());
        }
        let mut packed = ws.real_buffer(n * m);
        let rhs = b.as_slice();
        let outcome = pool.par_chunks_mut(&mut packed, n * band_cols, |band, chunk| {
            let first = band * band_cols;
            let width = chunk.len() / n;
            for (dst, src) in chunk.chunks_exact_mut(width).zip(rhs.chunks_exact(m)) {
                dst.copy_from_slice(src.get(first..first + width).unwrap_or_default());
            }
            forward_substitute(chunk, l, n, width);
        });
        if outcome.is_ok() {
            for (band, chunk) in packed.chunks(n * band_cols).enumerate() {
                let first = band * band_cols;
                let width = chunk.len() / n;
                for (src, dst) in
                    chunk.chunks_exact(width).zip(out.as_mut_slice().chunks_exact_mut(m))
                {
                    if let Some(window) = dst.get_mut(first..first + width) {
                        window.copy_from_slice(src);
                    }
                }
            }
        }
        ws.release_real_buffer(packed);
        Ok(outcome?)
    }
}

/// The rows below a panel, `first..` in the whole matrix: each row gathers its panel
/// factors `Lᵀ_ki` (column `i` of the panel rows) into its own lower triangle, then
/// takes `a_ij ← a_ij − Σ_k Lᵀ_ki·Lᵀ_kj` over columns `j ≥ i`, `k` ascending.
///
/// Quads of rows go through [`gemm_rows4`] with `alpha = −1` over columns from the
/// quad's first row on (the few lower entries this touches are overwritten by a
/// later gather); `x + (−f)·u` equals `x − f·u` exactly and zero factors are
/// skipped, so the grouping changes wall time, never bits.
// urs-analyze: begin(no_alloc)
fn trailing_update(
    rows: &mut [f64],
    panel_rows: &[f64],
    first: usize,
    kk: usize,
    k_end: usize,
    n: usize,
) {
    for (i, row) in (first..).zip(rows.chunks_exact_mut(n)) {
        let factors = row.get_mut(kk..k_end).unwrap_or_default();
        for (slot, panel_row) in factors.iter_mut().zip(panel_rows.chunks_exact(n).skip(kk)) {
            *slot = panel_row.get(i).copied().unwrap_or(0.0);
        }
    }
    let mut quads = rows.chunks_exact_mut(4 * n);
    let mut i0 = first;
    for quad in &mut quads {
        let [(l0, u0), (l1, u1), (l2, u2), (l3, u3)] =
            quad_rows(quad, n).map(|row| row.split_at_mut(i0));
        let tiles = [&*l0, &*l1, &*l2, &*l3].map(|l| l.get(kk..k_end).unwrap_or_default());
        gemm_rows4([u0, u1, u2, u3], tiles, panel_rows, -1.0, kk, i0, n, n);
        i0 += 4;
    }
    for (i, row) in (i0..).zip(quads.into_remainder().chunks_exact_mut(n)) {
        let (factors, upper) = row.split_at_mut(i);
        let factors = factors.get(kk..k_end).unwrap_or_default();
        gemm_row_panel(upper, factors, panel_rows, -1.0, kk, i, n, n);
    }
}

/// `x ← L⁻¹·x` for a row-major `n × w` block `x`: row `i` subtracts `L_ik·x_k` for
/// `k < i` ascending, then divides by `L_ii`.
///
/// Rows go four at a time: the updates from the rows above a quad run through
/// [`gemm_rows4`] (`alpha = −1`, `k`-tiles of [`K_TILE`]), so each earlier row is
/// read once per quad rather than once per row, and zero coefficients are skipped.
/// Every element receives the same subtractions in the same order either way, so
/// the grouping changes wall time, never bits.
fn forward_substitute(x: &mut [f64], l: &[f64], n: usize, w: usize) {
    let mut i0 = 0;
    while i0 + 4 <= n {
        let (previous, rest) = x.split_at_mut(i0 * w);
        let Some(quad) = rest.get_mut(..4 * w) else { return };
        let (r0, tail) = quad.split_at_mut(w);
        let (r1, tail) = tail.split_at_mut(w);
        let (r2, r3) = tail.split_at_mut(w);
        let coefficients = |t: usize, from: usize, to: usize| {
            l.get((i0 + t) * n + from..(i0 + t) * n + to).unwrap_or_default()
        };
        for kk in (0..i0).step_by(K_TILE) {
            let k_end = (kk + K_TILE).min(i0);
            let tiles = [0, 1, 2, 3].map(|t| coefficients(t, kk, k_end));
            gemm_rows4(
                [&mut *r0, &mut *r1, &mut *r2, &mut *r3],
                tiles,
                previous,
                -1.0,
                kk,
                0,
                w,
                w,
            );
        }
        // Inside the quad, each row waits for the finished rows before it.
        for t in 0..4 {
            let (done, current) = quad.split_at_mut(t * w);
            let Some(xi) = current.get_mut(..w) else { return };
            substitute_row(xi, done, coefficients(t, i0, i0 + t), w);
            let pivot = coefficients(t, i0 + t, i0 + t + 1).first().copied().unwrap_or(1.0);
            for v in xi.iter_mut() {
                *v /= pivot;
            }
        }
        i0 += 4;
    }
    for (i, l_row) in l.chunks_exact(n).enumerate().skip(i0) {
        let (previous, rest) = x.split_at_mut(i * w);
        let Some(xi) = rest.get_mut(..w) else { return };
        let (coefficients, diagonal) = l_row.split_at(i);
        substitute_row(xi, previous, coefficients, w);
        let pivot = diagonal.first().copied().unwrap_or(1.0);
        for v in xi.iter_mut() {
            *v /= pivot;
        }
    }
}
// urs-analyze: end(no_alloc)

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_crosses_panel_boundaries_and_mirrors_its_triangles() {
        let n = 2 * PANEL + 7;
        let a = spd(n, 5);
        let cholesky = Cholesky::new(&a).unwrap();
        let l = cholesky.lower();
        let rebuilt = l.matmul(&l.transpose()).unwrap();
        assert!(rebuilt.approx_eq(&a, 1e-10 * a.max_abs()));
        let f = &cholesky.factor;
        for i in 0..n {
            for j in 0..i {
                assert_eq!(f[(i, j)].to_bits(), f[(j, i)].to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn sparse_rows_take_the_zero_skipping_path() {
        // A tridiagonal SPD matrix: most factors are zero, so no quad is dense.
        let n = PANEL + 20;
        let a = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 4.0,
            1 => -1.0,
            _ => 0.0,
        });
        let l = Cholesky::new(&a).unwrap().lower();
        assert!(l.matmul(&l.transpose()).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn fused_lower_solve_matches_row_by_row_substitution() {
        // A dense factor and a banded one (zero coefficients force the sparse path).
        for (n, band) in [(PANEL + 30, usize::MAX), (K_TILE + 27, 5)] {
            let a = spd(n, 11);
            let a =
                Matrix::from_fn(n, n, |i, j| if i.abs_diff(j) <= band { a[(i, j)] } else { 0.0 });
            let cholesky = Cholesky::new(&a).unwrap();
            let b = spd(n, 13);
            let mut fused = Matrix::zeros(n, n);
            cholesky.solve_lower_into(&b, &mut fused, &mut Workspace::new()).unwrap();
            // Row i: subtract L_ik·x_k for k < i ascending, then divide by L_ii.
            let l = cholesky.lower();
            let mut rows = b.clone();
            for i in 0..n {
                for k in 0..i {
                    if l[(i, k)] != 0.0 {
                        for j in 0..n {
                            rows[(i, j)] -= l[(i, k)] * rows[(k, j)];
                        }
                    }
                }
                for j in 0..n {
                    rows[(i, j)] /= l[(i, i)];
                }
            }
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&rows), "n = {n}");
        }
    }

    #[test]
    fn bad_input_is_an_error() {
        let indefinite = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 1.0][..]]).unwrap();
        assert!(matches!(
            Cholesky::new(&indefinite),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
        assert!(matches!(Cholesky::new(&Matrix::zeros(2, 3)), Err(LinalgError::NotSquare { .. })));
        let nan = Matrix::from_rows(&[&[f64::NAN]]).unwrap();
        assert!(matches!(Cholesky::new(&nan), Err(LinalgError::InvalidInput(_))));
        let l = Cholesky::new(&Matrix::identity(3)).unwrap();
        let mut out = Matrix::zeros(2, 2);
        assert!(l.solve_lower_into(&Matrix::zeros(2, 2), &mut out, &mut Workspace::new()).is_err());
    }
}
