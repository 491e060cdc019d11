//! A real block-tridiagonal linear-system solver with diagonal couplings.
//!
//! The boundary equations of a quasi-birth-death process couple the probability vectors
//! of neighbouring queue-length levels only, so the linear system that determines them
//! is block tridiagonal.  Solving it by block forward elimination (a block Thomas
//! algorithm) costs `O(K s³)` instead of the `O(K³ s³)` of a dense factorisation, which
//! is what makes the exact solutions practical for systems with many servers.  The
//! couplings between levels are the arrival matrix `B = λI` and the departure matrices
//! `C_j`, all diagonal, so they are stored packed and each Schur-complement update is
//! an `O(s²)` column scaling rather than an `O(s³)` product.
//!
//! The elimination consumes the system: each diagonal block is updated and
//! factorised in its own storage, so a solve holds one set of `K` dense blocks (the
//! factors), not the system's blocks and a copy of them.  On the QBD boundary the
//! Schur updates fill every block after the first (the inverse of an irreducible
//! M-matrix is entrywise positive), so the blocks are factorised dense.

use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::matrix::Matrix;
use crate::parallel::ThreadPool;
use crate::workspace::Workspace;
use crate::Result;

/// The slot of block row `row`, or an out-of-range error.
fn row_slot<T>(slots: &mut [T], row: usize) -> Result<&mut T> {
    let rows = slots.len();
    slots.get_mut(row).ok_or_else(|| {
        LinalgError::InvalidInput(format!(
            "block row {row} out of range (system has {rows} block rows)"
        ))
    })
}

/// The Schur update `D ← D − W·diag(u)`: a column scaling, element-wise and hence
/// independent of any pool partition.
fn schur_diagonal_update(d_cur: &mut Matrix, w: &Matrix, u: &[f64], s: usize) {
    for (d_row, w_row) in d_cur.as_mut_slice().chunks_exact_mut(s).zip(w.as_slice().chunks_exact(s))
    {
        for ((x, &wv), &uv) in d_row.iter_mut().zip(w_row).zip(u) {
            *x -= wv * uv;
        }
    }
}

/// A square block-tridiagonal system with `K` block rows of size `s` each, dense
/// diagonal blocks and diagonal couplings.
///
/// Block row `i` represents the equation
///
/// ```text
/// diag(l_i) · x_{i-1} + D_i · x_i + diag(u_i) · x_{i+1} = b_i
/// ```
///
/// where `l_0` and `u_{K-1}` are absent; a coupling that is never set is zero.
///
/// # Example
///
/// ```
/// use urs_linalg::{Matrix, RealBlockTridiagonal};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// // 2·x0 + x1 = 4 and x0 + 3·x1 = 7, as two 1x1 block rows.
/// let mut sys = RealBlockTridiagonal::new(2, 1)?;
/// sys.set_diagonal(0, Matrix::from_diagonal(&[2.0]))?;
/// sys.set_diagonal(1, Matrix::from_diagonal(&[3.0]))?;
/// sys.set_upper_diagonal(0, vec![1.0])?;
/// sys.set_lower_diagonal(1, vec![1.0])?;
/// sys.set_rhs(0, vec![4.0])?;
/// sys.set_rhs(1, vec![7.0])?;
/// let x = sys.solve()?;
/// assert!((x[0][0] - 1.0).abs() < 1e-12 && (x[1][0] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealBlockTridiagonal {
    block_rows: usize,
    block_size: usize,
    /// `None` until set: an unset diagonal block is zero.
    diagonal: Vec<Option<Matrix>>,
    lower: Vec<Option<Vec<f64>>>,
    upper: Vec<Option<Vec<f64>>>,
    rhs: Vec<Vec<f64>>,
}

impl RealBlockTridiagonal {
    /// Creates an empty system with `block_rows` block rows of size
    /// `block_size`; all blocks start as zeros.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if either dimension is zero.
    pub fn new(block_rows: usize, block_size: usize) -> Result<Self> {
        if block_rows == 0 || block_size == 0 {
            return Err(LinalgError::InvalidInput(
                "block-tridiagonal system must have at least one non-empty block".into(),
            ));
        }
        Ok(RealBlockTridiagonal {
            block_rows,
            block_size,
            diagonal: vec![None; block_rows],
            lower: vec![None; block_rows],
            upper: vec![None; block_rows],
            rhs: vec![vec![0.0; block_size]; block_rows],
        })
    }

    /// Number of block rows `K`.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Size `s` of each block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn check_diag(&self, diag: &[f64]) -> Result<()> {
        if diag.len() != self.block_size {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal diagonal coupling assignment",
                left: (self.block_size, self.block_size),
                right: (diag.len(), diag.len()),
            });
        }
        Ok(())
    }

    /// Sets the diagonal block `D_row`.
    ///
    /// # Errors
    ///
    /// Returns an error if the row index or block shape is invalid.
    pub fn set_diagonal(&mut self, row: usize, block: Matrix) -> Result<()> {
        if block.shape() != (self.block_size, self.block_size) {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal block assignment",
                left: (self.block_size, self.block_size),
                right: block.shape(),
            });
        }
        *row_slot(&mut self.diagonal, row)? = Some(block);
        Ok(())
    }

    /// Sets the sub-diagonal coupling `diag(l_row)` to `x_{row-1}` from its packed
    /// diagonal.
    ///
    /// # Errors
    ///
    /// Returns an error if `row == 0`, the row index is out of range, or `diag` does
    /// not have the block size.
    pub fn set_lower_diagonal(&mut self, row: usize, diag: Vec<f64>) -> Result<()> {
        if row == 0 {
            return Err(LinalgError::InvalidInput("block row 0 has no sub-diagonal block".into()));
        }
        self.check_diag(&diag)?;
        *row_slot(&mut self.lower, row)? = Some(diag);
        Ok(())
    }

    /// Sets the super-diagonal coupling `diag(u_row)` to `x_{row+1}` from its packed
    /// diagonal.
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is the last block row, out of range, or `diag` does
    /// not have the block size.
    pub fn set_upper_diagonal(&mut self, row: usize, diag: Vec<f64>) -> Result<()> {
        if row + 1 == self.block_rows {
            return Err(LinalgError::InvalidInput(
                "the last block row has no super-diagonal block".into(),
            ));
        }
        self.check_diag(&diag)?;
        *row_slot(&mut self.upper, row)? = Some(diag);
        Ok(())
    }

    /// Sets the right-hand side vector `b_row`.
    ///
    /// # Errors
    ///
    /// Returns an error if the row index or vector length is invalid.
    pub fn set_rhs(&mut self, row: usize, rhs: Vec<f64>) -> Result<()> {
        if rhs.len() != self.block_size {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal right-hand side",
                left: (self.block_size, 1),
                right: (rhs.len(), 1),
            });
        }
        *row_slot(&mut self.rhs, row)? = rhs;
        Ok(())
    }

    /// Solves the system by block forward elimination and back substitution,
    /// returning one vector per block row.
    ///
    /// The solve consumes the system.  Each block row costs *one* LU factorisation,
    /// made in place: the diagonal block takes its Schur update in its own storage
    /// and moves into its [`LuDecomposition`], so the `K` blocks of the system
    /// become the `K` factors and no second set is held.  The `W = L_i·D'⁻¹` product
    /// reuses the previous row's factors through a right solve, and the remaining
    /// temporaries (one `s × s` block and a few vectors) come from one
    /// [`Workspace`].  Clone the system first to solve it twice.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a pivot block becomes singular during the
    /// elimination.
    pub fn solve(self) -> Result<Vec<Vec<f64>>> {
        self.solve_with(&ThreadPool::serial())
    }

    /// [`solve`](Self::solve) with the per-block kernels — the `W = L_i·D'⁻¹` right
    /// solve and the diagonal-block factorisation — running on the workers of `pool`.
    ///
    /// The block recurrence itself is sequential (row `i` needs row `i-1`'s factors),
    /// so the parallelism lives *inside* each block operation; every kernel preserves
    /// its serial accumulation order, making the solution bit-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), plus [`LinalgError::WorkerPanic`] if a worker
    /// panicked.
    pub fn solve_with(self, pool: &ThreadPool) -> Result<Vec<Vec<f64>>> {
        let RealBlockTridiagonal { block_rows: k, block_size: s, diagonal, lower, upper, mut rhs } =
            self;
        let mut ws = Workspace::new();

        let mut factorisations: Vec<LuDecomposition> = Vec::with_capacity(k);
        let mut w = ws.real_matrix(s, s);
        let mut coupled = ws.real_buffer(s);
        // Row i meets its own diagonal block and lower coupling and the previous
        // row's upper coupling.
        let upper_above = std::iter::once(&None).chain(&upper);
        let rows = diagonal.into_iter().zip(&lower).zip(upper_above).enumerate();
        for (i, ((diagonal, lower), upper_above)) in rows {
            let mut d_cur = diagonal.unwrap_or_else(|| Matrix::zeros(s, s));
            let (eliminated, pending) = rhs.split_at_mut(i);
            if let (Some(lower), Some(previous), Some(b_prev), Some(b_cur)) =
                (lower, factorisations.last(), eliminated.last(), pending.first_mut())
            {
                // W · D'_{i-1} = L_i, then D'_i = D_i − W·U_{i-1} and
                // b'_i = b_i − W·b'_{i-1}.
                previous.solve_right_diagonal_into_with(lower, &mut w, &mut ws, pool)?;
                if let Some(u) = upper_above {
                    schur_diagonal_update(&mut d_cur, &w, u, s);
                }
                // Same per-row ascending accumulation as `Matrix::matvec`.
                for (c, w_row) in coupled.iter_mut().zip(w.as_slice().chunks_exact(s)) {
                    *c = w_row.iter().zip(b_prev.iter()).map(|(a, b)| a * b).sum();
                }
                for (target, &delta) in b_cur.iter_mut().zip(coupled.iter()) {
                    *target -= delta;
                }
            }
            factorisations.push(LuDecomposition::from_matrix_with(d_cur, pool)?);
        }
        ws.release_real_matrix(w);

        // Back substitution, last block row first.
        let mut x: Vec<Vec<f64>> = Vec::with_capacity(k);
        for ((lu, b_i), upper) in factorisations.iter().zip(&rhs).zip(&upper).rev() {
            let mut b = ws.real_buffer(s);
            b.copy_from_slice(b_i);
            if let (Some(u), Some(next)) = (upper, x.last()) {
                for ((target, &uv), &xv) in b.iter_mut().zip(u).zip(next) {
                    *target -= uv * xv;
                }
            }
            let mut x_i = vec![0.0; s];
            lu.solve_into(&b, &mut x_i)?;
            x.push(x_i);
            ws.release_real_buffer(b);
        }
        x.reverse();
        Ok(x)
    }

    /// Assembles the full dense system matrix, for [`solve_dense`](Self::solve_dense)
    /// and residual checks.
    pub fn to_dense(&self) -> Matrix {
        let s = self.block_size;
        let n = self.block_rows * s;
        let coupling = |blocks: &[Option<Vec<f64>>], block_row: usize, r: usize| {
            blocks.get(block_row).and_then(Option::as_ref).and_then(|d| d.get(r)).copied()
        };
        Matrix::from_fn(n, n, |row, col| {
            let (block_row, r, block_col, c) = (row / s, row % s, col / s, col % s);
            let entry = if block_row == block_col {
                self.diagonal.get(block_row).and_then(Option::as_ref).and_then(|d| d.get(r, c))
            } else if r != c {
                None
            } else if block_col + 1 == block_row {
                coupling(&self.lower, block_row, r)
            } else if block_row + 1 == block_col {
                coupling(&self.upper, block_row, r)
            } else {
                None
            };
            entry.unwrap_or(0.0)
        })
    }

    /// Flattens the right-hand side into a single dense vector matching
    /// [`to_dense`](Self::to_dense).
    pub fn dense_rhs(&self) -> Vec<f64> {
        self.rhs.iter().flat_map(|b| b.iter().copied()).collect()
    }

    /// Solves the system through a dense real LU factorisation — an
    /// `O((K·s)³)` numerically independent cross-check for the tests, with no memory
    /// bound of its own (`(K·s)²` numbers), so no solver path calls it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the assembled system is singular.
    pub fn solve_dense(&self) -> Result<Vec<Vec<f64>>> {
        let s = self.block_size;
        let full = self.to_dense();
        let flat = LuDecomposition::new(&full)?.solve(&self.dense_rhs())?;
        Ok(flat.chunks(s).map(|chunk| chunk.to_vec()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random entries in `[−0.5, 0.5)`.
    fn sequence(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }
    }

    /// `k` block rows of size `s`: dense diagonal blocks made dominant by `boost`,
    /// random diagonal couplings in both directions.
    fn random_system(k: usize, s: usize, seed: u64, boost: f64) -> RealBlockTridiagonal {
        let mut next = sequence(seed);
        let mut sys = RealBlockTridiagonal::new(k, s).unwrap();
        for i in 0..k {
            let mut d = Matrix::from_fn(s, s, |_, _| next());
            for r in 0..s {
                d[(r, r)] += boost;
            }
            sys.set_diagonal(i, d).unwrap();
            if i > 0 {
                sys.set_lower_diagonal(i, (0..s).map(|_| next()).collect()).unwrap();
            }
            if i + 1 < k {
                sys.set_upper_diagonal(i, (0..s).map(|_| next()).collect()).unwrap();
            }
            sys.set_rhs(i, (0..s).map(|_| next()).collect()).unwrap();
        }
        sys
    }

    fn residual(sys: &RealBlockTridiagonal, x: &[Vec<f64>]) -> f64 {
        let flat: Vec<f64> = x.iter().flat_map(|b| b.iter().copied()).collect();
        let ax = sys.to_dense().matvec(&flat).unwrap();
        ax.iter().zip(sys.dense_rhs()).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max)
    }

    fn assert_matches_dense(sys: &RealBlockTridiagonal, residual_bound: f64, tolerance: f64) {
        let x = sys.clone().solve().unwrap();
        let res = residual(sys, &x);
        assert!(res < residual_bound, "residual {res}");
        for (a, b) in x.iter().zip(&sys.solve_dense().unwrap()) {
            for (p, q) in a.iter().zip(b) {
                assert!((p - q).abs() < tolerance, "{p} vs {q}");
            }
        }
    }

    #[test]
    fn blocked_solution_matches_dense() {
        // 3 block rows of size 2 with one coupling of each kind left unset.
        let mut sys = RealBlockTridiagonal::new(3, 2).unwrap();
        sys.set_diagonal(0, Matrix::from_rows(&[&[4.0, 1.0][..], &[0.5, 3.0][..]]).unwrap())
            .unwrap();
        sys.set_diagonal(1, Matrix::from_rows(&[&[5.0, 0.2][..], &[0.1, 4.0][..]]).unwrap())
            .unwrap();
        sys.set_diagonal(2, Matrix::from_rows(&[&[6.0, 0.0][..], &[0.3, 5.0][..]]).unwrap())
            .unwrap();
        sys.set_upper_diagonal(0, vec![1.0, 1.0]).unwrap();
        sys.set_lower_diagonal(2, vec![0.3, 0.3]).unwrap();
        sys.set_rhs(0, vec![1.0, 2.0]).unwrap();
        sys.set_rhs(1, vec![-1.0, 0.5]).unwrap();
        sys.set_rhs(2, vec![3.0, 0.0]).unwrap();
        assert_matches_dense(&sys, 1e-12, 1e-10);
    }

    #[test]
    fn single_block_row_reduces_to_plain_solve() {
        let mut sys = RealBlockTridiagonal::new(1, 2).unwrap();
        sys.set_diagonal(0, Matrix::from_diagonal(&[2.0, 4.0])).unwrap();
        sys.set_rhs(0, vec![2.0, 8.0]).unwrap();
        let x = sys.solve().unwrap();
        assert!((x[0][0] - 1.0).abs() < 1e-14);
        assert!((x[0][1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_pivot_block_reported() {
        let mut sys = RealBlockTridiagonal::new(2, 1).unwrap();
        // Diagonal block 0 is zero -> elimination must fail with Singular.
        sys.set_diagonal(1, Matrix::identity(1)).unwrap();
        sys.set_upper_diagonal(0, vec![1.0]).unwrap();
        sys.set_lower_diagonal(1, vec![1.0]).unwrap();
        assert!(matches!(sys.solve(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn larger_random_like_system_consistency() {
        assert_matches_dense(&random_system(12, 5, 7, 8.0), 1e-11, 1e-9);
    }

    #[test]
    fn real_system_matches_dense_solve() {
        assert_matches_dense(&random_system(6, 3, 23, 7.0), 1e-12, 1e-10);
    }

    #[test]
    fn diagonal_upper_fast_path_matches_dense_solve() {
        // Diagonal super-blocks (the QBD boundary shape) take the O(s²) Schur
        // update; the solution must still satisfy the assembled system.
        assert_matches_dense(&random_system(5, 4, 11, 9.0), 1e-12, 1e-10);
    }

    #[test]
    fn invalid_configuration_rejected() {
        assert!(RealBlockTridiagonal::new(0, 2).is_err());
        assert!(RealBlockTridiagonal::new(2, 0).is_err());
        let mut sys = RealBlockTridiagonal::new(2, 2).unwrap();
        // Row 0 has no sub-diagonal block and the last row no super-diagonal block.
        assert!(sys.set_lower_diagonal(0, vec![0.0; 2]).is_err());
        assert!(sys.set_upper_diagonal(1, vec![0.0; 2]).is_err());
        assert!(sys.set_diagonal(5, Matrix::zeros(2, 2)).is_err());
        assert!(sys.set_diagonal(0, Matrix::zeros(3, 3)).is_err());
        assert!(sys.set_rhs(0, vec![0.0]).is_err());
    }

    #[test]
    fn real_system_parallel_matches_serial_bitwise() {
        let sys = random_system(6, 3, 23, 7.0);
        let serial = sys.clone().solve().unwrap();
        let parallel = sys.solve_with(&ThreadPool::new(4)).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            for (p, q) in a.iter().zip(b) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn real_packed_diagonal_setters_validate() {
        let mut sys = RealBlockTridiagonal::new(3, 2).unwrap();
        assert!(sys.set_lower_diagonal(0, vec![1.0, 2.0]).is_err());
        assert!(sys.set_upper_diagonal(2, vec![1.0, 2.0]).is_err());
        assert!(sys.set_lower_diagonal(1, vec![1.0]).is_err());
        assert!(sys.set_upper_diagonal(1, vec![1.0, 2.0, 3.0]).is_err());
        assert!(sys.set_lower_diagonal(1, vec![1.0, 2.0]).is_ok());
        assert!(sys.set_upper_diagonal(1, vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn real_invalid_configuration_rejected() {
        assert!(RealBlockTridiagonal::new(0, 2).is_err());
        assert!(RealBlockTridiagonal::new(2, 0).is_err());
        let mut sys = RealBlockTridiagonal::new(2, 2).unwrap();
        assert!(sys.set_lower_diagonal(3, vec![0.0; 2]).is_err());
        assert!(sys.set_upper_diagonal(3, vec![0.0; 2]).is_err());
        assert!(sys.set_diagonal(5, Matrix::zeros(2, 2)).is_err());
        assert!(sys.set_diagonal(0, Matrix::zeros(3, 3)).is_err());
        assert!(sys.set_rhs(0, vec![0.0]).is_err());
        assert!(sys.set_rhs(4, vec![0.0; 2]).is_err());
    }
}
