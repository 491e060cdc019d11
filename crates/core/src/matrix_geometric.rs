//! The matrix-geometric solution of the same quasi-birth-death process.
//!
//! Besides the spectral expansion, the classical way to solve a QBD process is Neuts's
//! matrix-geometric method: find the minimal non-negative solution `R` of
//! `Q0 + R·Q1 + R²·Q2 = 0`; then `v_{j+1} = v_j·R` for `j ≥ N` and the boundary vectors
//! follow from the level-`0..N` balance equations.  The paper's reference [6]
//! (Mitrani & Chakka 1995) compares the two methods.  Here the matrix-geometric solver
//! is the exact path of the query [`Engine`](crate::Engine) — a whole solve takes
//! 2.4–3.2× less time than the spectral expansion with spectrum slicing (paper
//! lifecycle, `N = 4..20` at 80% load, one core of a shared 2-vCPU x86-64 host;
//! 2.4–5.3× against the companion-matrix QR that slicing replaced) — and the
//! spectral expansion, the paper's own method, is its certifier.  The two obtain `R` independently — cyclic reduction here, `U⁻¹·Z·U`
//! from the eigenpairs there — and then run the same boundary elimination over
//! levels `0..N`, so they must agree to within numerical accuracy on every
//! probability, which the integration tests verify.
//!
//! `R` is computed by **symmetric cyclic reduction** (Bini & Meini, SIAM J. Matrix
//! Anal. Appl. 17, 1996).  The mode chain is reversible, so with the skeleton's
//! weights `W = diag(√π)` the three blocks `A₋₁ = C`, `A₀ = Q1`, `A₁ = λI` become
//! symmetric, and every reduction step keeps them so: `−A₀` stays a symmetric
//! M-matrix, hence positive definite, and each step is one Cholesky factorisation,
//! two lower solves and three products of which two are Gram products that compute
//! one triangle — about 6⅓·s³ flops, against 16⅔·s³ for a step of the
//! Latouche–Ramaswamy logarithmic reduction this replaced.  Step `k` folds `2^k`
//! levels of the process, so the convergence is quadratic: a dozen steps replace the
//! thousands of linear-convergence steps of the natural fixed point
//! `R ← −(Q0 + R²·Q2)·Q1⁻¹`, which survives here only as the reference
//! implementation [`MatrixGeometricSolver::rate_matrix_fixed_point`].  Every product
//! runs on the in-place kernels of `urs-linalg` with a single [`Workspace`], so the
//! iteration allocates nothing and no explicit matrix inverse is formed but the
//! banded `(−Q1)⁻¹` of step 0 — neither there nor in the solution, which keeps only
//! `R`, the boundary levels and two vectors derived from one LU of `I − R`.

use std::sync::Arc;

use urs_linalg::{
    banded_profitable, BandedLu, BandedMatrix, Cholesky, LuDecomposition, Matrix,
    RealBlockTridiagonal, Workspace,
};

use crate::cache::{allocation_bytes, qbd_matrices, SolverCache};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::parallel::ThreadPool;
use crate::qbd::QbdMatrices;
use crate::solution::{arrival_truncation_stalled, QueueSolution, QueueSolver, MAX_ARRIVAL_LEVELS};
use crate::Result;

/// Options for the `R`-matrix computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixGeometricOptions {
    /// Convergence tolerance.  The cyclic reduction stops once every probability of
    /// climbing the `2^(k+1)` levels its next step would fold — the up block `A₁`
    /// divided by `λ`, read in the original frame — is below this value: every
    /// increment still to come is then smaller still.  The fixed-point reference
    /// stops on the max-norm change of `R`.
    pub tolerance: f64,
    /// Maximum number of iterations (cyclic-reduction steps, step 0 included, or
    /// fixed-point steps for the reference implementation).
    pub max_iterations: usize,
}

impl Default for MatrixGeometricOptions {
    fn default() -> Self {
        MatrixGeometricOptions { tolerance: 1e-13, max_iterations: 100_000 }
    }
}

/// The matrix-geometric solver.
///
/// # Example
///
/// ```
/// use urs_core::{MatrixGeometricSolver, QueueSolver, ServerLifecycle, SystemConfig};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let config = SystemConfig::new(4, 3.0, 1.0, ServerLifecycle::paper_fitted()?)?;
/// let solution = MatrixGeometricSolver::default().solve(&config)?;
/// assert!(solution.mean_queue_length() > 3.0);
/// # Ok(())
/// # }
/// ```
///
/// Attach a shared [`SolverCache`] with [`with_cache`](Self::with_cache) to reuse the
/// λ-independent QBD skeleton across arrival rates, bit-identically.
#[derive(Debug, Clone)]
pub struct MatrixGeometricSolver {
    options: MatrixGeometricOptions,
    cache: Option<Arc<SolverCache>>,
    pool: ThreadPool,
}

impl Default for MatrixGeometricSolver {
    /// Default options, no cache, and a serial pool (parallelism is strictly opt-in
    /// via [`with_pool`](Self::with_pool)).
    fn default() -> Self {
        MatrixGeometricSolver::new(MatrixGeometricOptions::default())
    }
}

impl MatrixGeometricSolver {
    /// Creates a solver with explicit iteration options.
    pub fn new(options: MatrixGeometricOptions) -> Self {
        MatrixGeometricSolver { options, cache: None, pool: ThreadPool::serial() }
    }

    /// Attaches a cache whose QBD skeletons the solver reuses.  The same cache can be
    /// shared by several solvers and by every thread of a parallel sweep.
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs the solver's dense kernels — the Cholesky trailing updates, lower solves
    /// and products of the cyclic reduction plus the boundary elimination — on
    /// `pool`.  Every parallel path preserves the serial accumulation order, so the
    /// solution is bit-identical to the serial solver at any thread count.
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Computes the minimal non-negative solution of `Q0 + R·Q1 + R²·Q2 = 0` by
    /// cyclic reduction (see [`rate_matrix_with_depth`](Self::rate_matrix_with_depth)).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoConvergence`] if the reduction does not converge within
    /// the configured budget.
    pub fn rate_matrix(&self, qbd: &QbdMatrices) -> Result<Matrix> {
        Ok(self.rate_matrix_with_depth(qbd)?.0)
    }

    /// Computes `R` by symmetric cyclic reduction, returning the reduction depth
    /// alongside: the number of cyclic-reduction steps, step 0 included.  Step `k`
    /// folds `2^k` levels of the process into the blocks, so the depth is about the
    /// base-2 logarithm of the equivalent fixed-point iteration count.
    ///
    /// The reduction runs in the frame symmetrised by the skeleton's weights
    /// ([`QbdSkeleton::log_weights`](crate::QbdSkeleton::log_weights)): there
    /// `A₋₁ = C`, `A₀ = Q1` and `A₁ = λI` are symmetric, and every step keeps them so.  Step 0 takes
    /// `(−Q1)⁻¹` from one banded (or, for small orders, dense) LU and applies
    /// diagonal scalings; every later step is one Cholesky factorisation
    /// `−A₀ = L·Lᵀ`, two lower solves `Z₋ = L⁻¹·A₋₁`, `Z₊ = L⁻¹·A₁`, the Gram
    /// products `A₋₁ ← Z₋ᵀ·Z₋`, `A₁ ← Z₊ᵀ·Z₊` and one product `X = Z₊ᵀ·Z₋`, with
    /// `A₀ += X + Xᵀ` and `Â₀ += X`.  Then `R = W⁻¹·λ·(−Â₀)⁻¹·W` from one more LU.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoConvergence`] if the reduction does not converge within
    /// the configured budget, [`ModelError::InvalidParameter`] if the mode chain
    /// cannot be symmetrised, or a linear-algebra error if a factorisation fails.
    pub fn rate_matrix_with_depth(&self, qbd: &QbdMatrices) -> Result<(Matrix, usize)> {
        let s = qbd.order();
        let lambda = qbd.arrival_rate();
        let c = qbd.c();
        let skeleton = qbd.skeleton();
        let log_weights = skeleton.log_weights()?;
        let pool = &self.pool;
        let no_convergence = |iterations| ModelError::NoConvergence {
            algorithm: "matrix-geometric cyclic reduction",
            iterations,
        };
        if self.options.max_iterations == 0 {
            return Err(no_convergence(0));
        }
        let mut ws = Workspace::new();

        // Step 0.  −Q1 = diag(Dᴬ + C + λ) − S is a band matrix in the mode ordering
        // (|i−j| ≤ N+1), so its inverse M comes from the packed banded LU when the
        // bandwidth clears the crossover; M is then made exactly symmetric.
        let shift: Vec<f64> = c.iter().map(|ci| ci + lambda).collect();
        let neg_q1 = skeleton.symmetric_generator(&shift)?;
        let mut m = ws.real_matrix(s, s);
        let eye = Matrix::identity(s);
        let (kl, ku) = qbd.q1_bandwidths();
        if banded_profitable(s, kl, ku) {
            let banded = BandedMatrix::from_dense(&neg_q1, kl, ku)?;
            let lu = BandedLu::new_pooled(&banded, &mut ws)?;
            lu.solve_matrix_into(&eye, &mut m)?;
            lu.recycle(&mut ws);
        } else {
            let lu = LuDecomposition::from_matrix_with(neg_q1.clone(), pool)?;
            lu.solve_matrix_into(&eye, &mut m)?;
        }
        symmetrise(&mut m);
        // A₋₁ = C·M·C, A₁ = λ²·M, X = A₁·(−A₀)⁻¹·A₋₁ = λ·M·C; the blocks are kept
        // as −A₀ and −Â₀, the matrices that get factorised.
        let lambda_squared = lambda * lambda;
        let mut down = ws.real_matrix(s, s);
        let mut up = ws.real_matrix(s, s);
        let mut x = ws.real_matrix(s, s);
        let rows = m.as_slice().chunks_exact(s).zip(c);
        let blocks =
            down.as_mut_slice().chunks_exact_mut(s).zip(up.as_mut_slice().chunks_exact_mut(s));
        for ((m_row, &c_i), ((down_row, up_row), x_row)) in
            rows.zip(blocks.zip(x.as_mut_slice().chunks_exact_mut(s)))
        {
            for (((&m_ij, &c_j), (d, u)), x_ij) in
                m_row.iter().zip(c).zip(down_row.iter_mut().zip(up_row.iter_mut())).zip(x_row)
            {
                *d = c_i * m_ij * c_j;
                *u = lambda_squared * m_ij;
                *x_ij = lambda * m_ij * c_j;
            }
        }
        ws.release_real_matrix(m);
        ws.release_real_matrix(eye);
        let mut neg_local = neg_q1.clone();
        let mut neg_hat = neg_q1;
        subtract_increment(&mut neg_local, &mut neg_hat, &x);

        // The stopping bound `tolerance·λ` on the up block in the original frame,
        // `A₁_ij·w_j/w_i`, is `tolerance·λ·w_i/w_j` on the symmetrised entry; formed
        // once, in logarithms, so no weight ratio leaves the floating-point range
        // (a bound of 0 or ∞ then compares exactly as the true one would).
        let log_bound = (self.options.tolerance * lambda).ln();
        let mut bound = ws.real_matrix(s, s);
        for (row, &l_i) in bound.as_mut_slice().chunks_exact_mut(s).zip(log_weights) {
            for (b, &l_j) in row.iter_mut().zip(log_weights) {
                *b = (log_bound + l_i - l_j).exp();
            }
        }
        let mut z_down = ws.real_matrix(s, s);
        let mut z_up = ws.real_matrix(s, s);
        let mut z_down_t = ws.real_matrix(s, s);
        let mut z_up_t = ws.real_matrix(s, s);
        let mut scratch = ws.real_matrix(s, s);
        let mut depth = 1;
        loop {
            // After step k the up block is `A₁ = λ·T` in the original frame, where
            // `T_ij` is the probability of climbing 2^(k+1) levels from mode i
            // before first returning, ending in mode j: once T is negligible, so is
            // every increment still to come.
            if up.as_slice().iter().zip(bound.as_slice()).all(|(u, b)| u.abs() <= *b) {
                break;
            }
            if depth >= self.options.max_iterations {
                return Err(no_convergence(depth));
            }
            depth += 1;
            scratch.copy_from(&neg_local)?;
            let cholesky = Cholesky::from_matrix_with(scratch, pool)?;
            cholesky.solve_lower_into_with(&down, &mut z_down, &mut ws, pool)?;
            cholesky.solve_lower_into_with(&up, &mut z_up, &mut ws, pool)?;
            scratch = cholesky.into_matrix();
            z_down.transpose_into(&mut z_down_t)?;
            down.gram_with(&z_down_t, &z_down, pool)?;
            z_up.transpose_into(&mut z_up_t)?;
            up.gram_with(&z_up_t, &z_up, pool)?;
            x.gemm_with(1.0, &z_up_t, &z_down, 0.0, pool)?;
            subtract_increment(&mut neg_local, &mut neg_hat, &x);
        }

        // R' = λ·(−Â₀)⁻¹ by one right solve, then R = W⁻¹·R'·W.
        let hat_lu = LuDecomposition::from_matrix_with(neg_hat, pool)?;
        let mut r = Matrix::zeros(s, s);
        hat_lu.solve_right_diagonal_into_with(&vec![lambda; s], &mut r, &mut ws, pool)?;
        for (row, &l_i) in r.as_mut_slice().chunks_exact_mut(s).zip(log_weights) {
            for (r_ij, &l_j) in row.iter_mut().zip(log_weights) {
                // In logarithms, so that neither a weight ratio beyond the
                // floating-point range nor a subnormal intermediate ever forms.
                *r_ij = (r_ij.abs().ln() + l_j - l_i).exp().copysign(*r_ij);
            }
        }
        Ok((r, depth))
    }

    /// The natural fixed-point iteration `R ← −(Q0 + R²·Q2)·Q1⁻¹`, kept as the
    /// linear-convergence reference implementation that the equivalence tests pin
    /// the cyclic reduction against.  Returns `R` and the number of iterations.
    ///
    /// Even here no explicit inverse is formed: `Q1` is factorised once up front and
    /// every step performs one right solve against the factors.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoConvergence`] if the iteration does not converge within
    /// the configured budget.
    pub fn rate_matrix_fixed_point(&self, qbd: &QbdMatrices) -> Result<(Matrix, usize)> {
        let s = qbd.order();
        let q0 = qbd.q0();
        let q2 = qbd.q2();
        let q1_lu = LuDecomposition::from_matrix(qbd.q1())?;
        let mut ws = Workspace::new();
        let mut r = Matrix::zeros(s, s);
        let mut r_squared = ws.real_matrix(s, s);
        let mut rhs = ws.real_matrix(s, s);
        let mut next = ws.real_matrix(s, s);
        for iteration in 1..=self.options.max_iterations {
            r_squared.gemm(1.0, &r, &r, 0.0)?;
            rhs.copy_from(&q0)?;
            rhs.gemm(1.0, &r_squared, &q2, 1.0)?;
            rhs.scale_mut(-1.0);
            // next·Q1 = −(Q0 + R²·Q2)
            q1_lu.solve_right_matrix_into(&rhs, &mut next, &mut ws)?;
            let mut diff = 0.0_f64;
            for (a, b) in next.as_slice().iter().zip(r.as_slice()) {
                diff = diff.max((a - b).abs());
            }
            std::mem::swap(&mut r, &mut next);
            if diff < self.options.tolerance {
                return Ok((r, iteration));
            }
        }
        Err(ModelError::NoConvergence {
            algorithm: "matrix-geometric R iteration",
            iterations: self.options.max_iterations,
        })
    }

    /// Solves the model, returning the concrete [`MatrixGeometricSolution`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unstable`] for non-ergodic configurations,
    /// [`ModelError::NoConvergence`] if the `R` computation stalls, or a
    /// linear-algebra error from the boundary solve; with a cache attached, also
    /// rejects parameters that cannot form a sound cache key (non-finite values).
    pub fn solve_detailed(&self, config: &SystemConfig) -> Result<MatrixGeometricSolution> {
        config.ensure_stable()?;
        self.solve_qbd(config, &qbd_matrices(self.cache.as_ref(), config)?)
    }

    /// Runs the method on prebuilt QBD matrices, bypassing the cache (the caller has
    /// already checked stability).
    pub(crate) fn solve_qbd(
        &self,
        config: &SystemConfig,
        qbd: &QbdMatrices,
    ) -> Result<MatrixGeometricSolution> {
        let s = qbd.order();
        let servers = qbd.servers();
        let (r, reduction_depth) = self.rate_matrix_with_depth(qbd)?;
        let mut levels = solve_boundary(qbd, &r, &self.pool)?;

        // Every tail quantity is a solve against one LU of `I − R`; the inverse itself
        // is never formed.  `y = (I−R)⁻¹·1` weighs a level vector by the mass of
        // everything from that level on.
        let mut i_minus_r = r.clone();
        identity_minus(&mut i_minus_r);
        let i_minus_r = LuDecomposition::from_matrix_with(i_minus_r, &self.pool)?;
        let tail_weights = i_minus_r.solve(&vec![1.0; s])?;

        // Normalisation: Σ_{j<N} v_j·1 + v_N·y = 1.
        let mut v_n =
            levels.pop().ok_or(ModelError::Internal("boundary solve returned no levels"))?;
        let boundary_mass: f64 = levels.iter().map(|v| v.iter().sum::<f64>()).sum();
        let total = boundary_mass + dot(&v_n, &tail_weights);
        if total.abs() < 1e-300 {
            return Err(ModelError::SpectralFailure(
                "matrix-geometric normalisation mass vanished".into(),
            ));
        }
        for p in levels.iter_mut().flatten().chain(&mut v_n) {
            *p /= total;
        }

        // Mean queue length: Σ_{j<N} j·v_j·1 + N·(v_N·y) + (v_N·R)·((I−R)⁻¹·y), since
        // Σ_{k≥0} k·R^k = R·(I−R)⁻².
        let boundary_part: f64 =
            levels.iter().enumerate().map(|(j, v)| j as f64 * v.iter().sum::<f64>()).sum();
        let squared_weights = i_minus_r.solve(&tail_weights)?;
        let mean_queue_length = boundary_part
            + servers as f64 * dot(&v_n, &tail_weights)
            + dot(&r.vecmat(&v_n)?, &squared_weights);

        // The tail's mode marginal, the row v_N·(I−R)⁻¹: one right solve.
        let v_n_row = Matrix::from_vec(1, s, v_n.clone())?;
        let mut tail_marginal = Matrix::zeros(1, s);
        i_minus_r.solve_right_matrix_into(&v_n_row, &mut tail_marginal, &mut Workspace::new())?;
        levels.push(v_n);

        Ok(MatrixGeometricSolution {
            arrival_rate: config.arrival_rate(),
            servers,
            mode_count: s,
            levels,
            rate_matrix: r,
            tail_weights,
            tail_marginal: tail_marginal.into_vec(),
            mean_queue_length,
            reduction_depth,
        })
    }
}

impl QueueSolver for MatrixGeometricSolver {
    fn name(&self) -> &'static str {
        "matrix geometric (R matrix)"
    }

    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>> {
        Ok(Box::new(self.solve_detailed(config)?))
    }
}

/// Replaces the square matrix `m` by `(m + mᵀ)/2`, exactly symmetric.
fn symmetrise(m: &mut Matrix) {
    let n = m.cols();
    let data = m.as_mut_slice();
    for i in 1..n {
        let (upper, lower) = data.split_at_mut(i * n);
        for (column, x) in upper.chunks_exact_mut(n).zip(lower.iter_mut().take(i)) {
            if let Some(y) = column.get_mut(i) {
                let mean = 0.5 * (*x + *y);
                *x = mean;
                *y = mean;
            }
        }
    }
}

/// One cyclic-reduction update of the local blocks, kept negated: `−A₀ −= X + Xᵀ`
/// (each pair summed first, so `−A₀` stays exactly symmetric) and `−Â₀ −= X`.
fn subtract_increment(neg_local: &mut Matrix, neg_hat: &mut Matrix, x: &Matrix) {
    let n = x.cols();
    let xs = x.as_slice();
    let rows = neg_local
        .as_mut_slice()
        .chunks_exact_mut(n)
        .zip(neg_hat.as_mut_slice().chunks_exact_mut(n));
    for (i, ((local_row, hat_row), x_row)) in rows.zip(xs.chunks_exact(n)).enumerate() {
        let column = xs.iter().skip(i).step_by(n);
        for (((local, hat), &x_ij), &x_ji) in
            local_row.iter_mut().zip(hat_row).zip(x_row).zip(column)
        {
            *local -= x_ij + x_ji;
            *hat -= x_ij;
        }
    }
}

/// Overwrites the square matrix `m` with `I − m`.
fn identity_minus(m: &mut Matrix) {
    let n = m.cols();
    m.scale_mut(-1.0);
    for (i, row) in m.as_mut_slice().chunks_exact_mut(n).enumerate() {
        if let Some(diagonal) = row.get_mut(i) {
            *diagonal += 1.0;
        }
    }
}

/// `a·b` for two vectors of the solver's mode dimension.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves the boundary balance equations of levels `0..=N` once the repeating levels
/// are summarised by a rate matrix `R` (`v_{j+1} = v_j·R` for `j ≥ N`), returning the
/// un-normalised `v_0..=v_N`.
///
/// This is the boundary of *both* exact solvers: the matrix-geometric method obtains
/// `R` by cyclic reduction, spectral expansion as `U⁻¹·Z·U` from its eigenpairs.
/// Substituting `v_{N+1} = v_N·R` into the level-`N` equation leaves a real
/// block-tridiagonal system whose couplings `−B = −λI` and `−C_j` are diagonal, so it
/// runs on the packed-coupling [`RealBlockTridiagonal`] elimination; a singular pivot
/// block is a deterministic [`LinalgError::Singular`](urs_linalg::LinalgError)
/// error.  Any single balance equation is redundant, so the level-0 equation of the
/// skeleton's pin mode (largest stationary environment probability) is replaced by
/// `v_0[pin] = 1`; the caller normalises.
///
/// The elimination consumes the system and factorises each level's block in place,
/// so the solve holds `N + 1` dense `s × s` blocks; the assembly's own temporaries
/// (the shared `−Aᵀ` and, for level `N`, `Rᵀ`) are dropped before it starts.
pub(crate) fn solve_boundary(
    qbd: &QbdMatrices,
    r: &Matrix,
    pool: &ThreadPool,
) -> Result<Vec<Vec<f64>>> {
    Ok(boundary_system(qbd, r)?.solve_with(pool)?)
}

/// The boundary system of [`solve_boundary`]: one block row per level `0..=N`.
fn boundary_system(qbd: &QbdMatrices, r: &Matrix) -> Result<RealBlockTridiagonal> {
    let s = qbd.order();
    let servers = qbd.servers();
    let pin_mode = qbd.skeleton().pin_mode();
    let lambda = qbd.arrival_rate();
    let (a, da) = (qbd.a(), qbd.da());
    let block_rows = servers + 1;
    let mut system = RealBlockTridiagonal::new(block_rows, s)?;
    // The level-local coefficient `(Dᴬ + B + C_j − A)ᵀ` varies between levels only on
    // its diagonal: build the off-diagonal `−Aᵀ` once and write the diagonal per level.
    let base_t = a.transpose().map(|x| 0.0 - x);
    for j in 0..block_rows {
        let mut rhs = vec![0.0; s];
        if j > 0 {
            // B = λI: the coupling −Bᵀ is handed to the solver packed.
            system.set_lower_diagonal(j, vec![-lambda; s])?;
        }
        let mut diag = base_t.clone();
        for (i, (d, c)) in da.iter().zip(qbd.c_level(j)).enumerate() {
            // urs-analyze: allow(slice_index, reason = "indexes the s x s QBD blocks sized at build time")
            diag[(i, i)] = ((d + lambda) + c) - a[(i, i)];
        }
        if j == servers {
            // Level N: v_N·(Dᴬ+B+C−A) − v_N·R·C  ⇒ coefficient (local(N) − R·C)ᵀ.
            // C is diagonal, so (R·C)ᵀ = C·Rᵀ scales row i of Rᵀ by c_i: one
            // transpose, then a contiguous pass with the products R_ki·c_i.
            let r_t = r.transpose();
            let rows = diag.as_mut_slice().chunks_exact_mut(s);
            for ((d_row, r_row), &c) in rows.zip(r_t.as_slice().chunks_exact(s)).zip(qbd.c()) {
                for (x, &v) in d_row.iter_mut().zip(r_row) {
                    *x -= v * c;
                }
            }
        } else {
            // `C_{j+1}ᵀ = C_{j+1}` is diagonal, handed to the solver packed; the pin
            // replaces the level-0 equation, so its coupling column (row `pin_mode` of
            // `−C₁ᵀ`) is zeroed before the sign flip.
            let mut upper = qbd.c_level(j + 1).to_vec();
            if j == 0 {
                // urs-analyze: allow(slice_index, reason = "indexes the s x s QBD blocks sized at build time")
                upper[pin_mode] = 0.0;
            }
            for v in upper.iter_mut() {
                *v *= -1.0;
            }
            system.set_upper_diagonal(j, upper)?;
        }
        if j == 0 {
            for col in 0..s {
                // urs-analyze: allow(slice_index, reason = "indexes the s x s QBD blocks sized at build time")
                diag[(pin_mode, col)] = if col == pin_mode { 1.0 } else { 0.0 };
            }
            // urs-analyze: allow(slice_index, reason = "indexes the s x s QBD blocks sized at build time")
            rhs[pin_mode] = 1.0;
        }
        system.set_diagonal(j, diag)?;
        system.set_rhs(j, rhs)?;
    }
    Ok(system)
}

/// The steady-state solution produced by [`MatrixGeometricSolver`]: boundary vectors
/// `v_0..v_N` and the rate matrix `R` that generates all deeper levels.
#[derive(Debug, Clone)]
pub struct MatrixGeometricSolution {
    arrival_rate: f64,
    servers: usize,
    mode_count: usize,
    /// `v_0 ..= v_N`.
    levels: Vec<Vec<f64>>,
    rate_matrix: Matrix,
    /// `y = (I−R)⁻¹·1`: `v_j·y` is the mass of every level from `j` on (`j ≥ N`).
    tail_weights: Vec<f64>,
    /// `v_N·(I−R)⁻¹`: the mode marginal of the levels `j ≥ N`.
    tail_marginal: Vec<f64>,
    mean_queue_length: f64,
    /// Number of cyclic-reduction steps, step 0 included, that produced `R`.
    reduction_depth: usize,
}

impl MatrixGeometricSolution {
    /// The rate matrix `R` (spectral radius < 1 for a stable queue).
    pub fn rate_matrix(&self) -> &Matrix {
        &self.rate_matrix
    }

    /// Number of cyclic-reduction steps it took to compute `R`, step 0 included;
    /// step `k` folds `2^k` levels of the process, so this is about the base-2
    /// logarithm of the equivalent fixed-point iteration count (one more than the
    /// doubling count of the logarithmic reduction it replaced).  Exposed for
    /// observability: a depth creeping towards the budget signals a near-unstable
    /// configuration.
    pub fn reduction_depth(&self) -> usize {
        self.reduction_depth
    }

    /// Heap footprint the engine's plan store charges for this solution: the
    /// struct, the boundary level vectors, `R` and the two tail vectors.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of::<Self>()
            + allocation_bytes(&self.levels)
            + self.levels.iter().map(|v| allocation_bytes(v)).sum::<usize>()
            + allocation_bytes(self.rate_matrix.as_slice())
            + allocation_bytes(&self.tail_weights)
            + allocation_bytes(&self.tail_marginal)
    }

    /// Probability vector of level `j` (computed through `v_N·R^{j−N}` for `j > N`).
    pub fn level_vector(&self, level: usize) -> Vec<f64> {
        if let Some(v) = self.levels.get(level) {
            return v.clone();
        }
        let mut v = self.levels.last().cloned().unwrap_or_default();
        for _ in self.servers..level {
            // urs-analyze: allow(no_panic, reason = "R is square with the solver's own mode dimension; the trait method returns a plain Vec")
            v = self.rate_matrix.vecmat(&v).expect("rate matrix dimensions match by construction");
        }
        v
    }
}

impl QueueSolution for MatrixGeometricSolution {
    fn mode_count(&self) -> usize {
        self.mode_count
    }

    fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    fn state_probability(&self, mode: usize, level: usize) -> f64 {
        let probability = |v: &[f64]| v.get(mode).copied().unwrap_or(0.0);
        match self.levels.get(level) {
            Some(v) => probability(v),
            None => probability(&self.level_vector(level)),
        }
    }

    fn mode_marginal(&self) -> Vec<f64> {
        let mut marginal = vec![0.0; self.mode_count];
        for v in self.levels.iter().take(self.servers) {
            for (m, p) in marginal.iter_mut().zip(v) {
                *m += p;
            }
        }
        for (m, p) in marginal.iter_mut().zip(&self.tail_marginal) {
            *m += p;
        }
        marginal
    }

    fn mean_queue_length(&self) -> f64 {
        self.mean_queue_length
    }

    fn tail_probability(&self, level: usize) -> f64 {
        if level + 1 >= self.servers {
            // P(Z > level) = v_{level+1}·(I−R)⁻¹·1
            dot(&self.level_vector(level + 1), &self.tail_weights)
        } else {
            let below: f64 = (0..=level).map(|j| self.level_probability(j)).sum();
            (1.0 - below).max(0.0)
        }
    }

    /// The trait's truncation, walking the levels once: `v ← v·R` per level instead
    /// of recomputing `v_N·R^{j−N}` for every state and tail query.  Bit-identical to
    /// the default, which performs the same products in the same order.
    fn arrival_state_distribution(
        &self,
        epsilon: f64,
        min_levels: usize,
    ) -> Result<(Vec<Vec<f64>>, f64)> {
        let mut levels = Vec::new();
        let mut below = 0.0;
        let mut current = self.levels.first().cloned().unwrap_or_default();
        for level in 0..MAX_ARRIVAL_LEVELS {
            let next = match self.levels.get(level + 1) {
                Some(v) => v.clone(),
                None => self.rate_matrix.vecmat(&current)?,
            };
            let residual = if level + 1 >= self.servers {
                dot(&next, &self.tail_weights)
            } else {
                below += current.iter().sum::<f64>();
                (1.0 - below).max(0.0)
            };
            levels.push(std::mem::replace(&mut current, next));
            if level + 1 >= min_levels && residual <= epsilon {
                return Ok((levels, residual.max(0.0)));
            }
        }
        Err(arrival_truncation_stalled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::solution::consistency_violations;
    use crate::spectral::SpectralExpansionSolver;

    fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
        SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
    }

    #[test]
    fn rate_matrix_satisfies_quadratic_equation() {
        let config = paper_config(3, 2.0);
        let qbd = QbdMatrices::new(&config).unwrap();
        let solver = MatrixGeometricSolver::default();
        let r = solver.rate_matrix(&qbd).unwrap();
        let residual = &(&qbd.q0() + &r.matmul(&qbd.q1()).unwrap())
            + &r.matmul(&r).unwrap().matmul(&qbd.q2()).unwrap();
        assert!(residual.max_abs() < 1e-9, "residual {}", residual.max_abs());
        // R must be non-negative with spectral radius < 1.
        for i in 0..r.rows() {
            for j in 0..r.cols() {
                assert!(r[(i, j)] > -1e-12);
            }
        }
    }

    #[test]
    fn logarithmic_reduction_matches_fixed_point_iteration() {
        let config = paper_config(3, 2.5);
        let qbd = QbdMatrices::new(&config).unwrap();
        let solver = MatrixGeometricSolver::default();
        let (lr, depth) = solver.rate_matrix_with_depth(&qbd).unwrap();
        let (fp, iterations) = solver.rate_matrix_fixed_point(&qbd).unwrap();
        assert!(lr.approx_eq(&fp, 1e-10), "max diff {}", (&lr - &fp).max_abs());
        // The whole point: quadratic vs linear convergence.
        assert!(depth < 64, "reduction depth {depth}");
        assert!(iterations > depth, "fixed point took {iterations}, reduction {depth}");
    }

    #[test]
    fn solution_is_consistent_and_matches_spectral_expansion() {
        let config = paper_config(4, 3.0);
        let mg = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
        assert!(consistency_violations(&mg, 40, 1e-8).is_empty());
        assert!(mg.reduction_depth() > 0);
        let spectral = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
        assert!(
            (mg.mean_queue_length() - spectral.mean_queue_length()).abs()
                / spectral.mean_queue_length()
                < 1e-8
        );
        for level in 0..30 {
            assert!(
                (mg.level_probability(level) - spectral.level_probability(level)).abs() < 1e-9,
                "level {level}"
            );
        }
    }

    #[test]
    fn shared_boundary_pins_the_reference_state_and_balances_every_level() {
        let config = paper_config(4, 3.0);
        let qbd = QbdMatrices::new(&config).unwrap();
        let r = MatrixGeometricSolver::default().rate_matrix(&qbd).unwrap();
        let levels = solve_boundary(&qbd, &r, &ThreadPool::serial()).unwrap();
        assert_eq!(levels.len(), qbd.servers() + 1);
        assert_eq!(levels[0][qbd.skeleton().pin_mode()], 1.0);
        // Balance of level j < N: v_{j−1}·λ + v_{j+1}·C_{j+1} = v_j·(Dᴬ + λ + C_j − A),
        // checked off the pinned equation.
        let lambda = qbd.arrival_rate();
        for j in 1..qbd.servers() {
            let mode_changes = qbd.a().vecmat(&levels[j]).unwrap();
            for i in 0..qbd.order() {
                let inflow = levels[j - 1][i] * lambda
                    + levels[j + 1][i] * qbd.c_level(j + 1)[i]
                    + mode_changes[i];
                let out = levels[j][i] * (qbd.da()[i] + lambda + qbd.c_level(j)[i]);
                assert!((inflow - out).abs() < 1e-9 * out.abs().max(1.0), "level {j}, mode {i}");
            }
        }
    }

    #[test]
    fn mm1_closed_form() {
        let lifecycle = ServerLifecycle::exponential(1e-9, 1e3).unwrap();
        let config = SystemConfig::new(1, 0.7, 1.0, lifecycle).unwrap();
        let solution = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
        assert!((solution.mean_queue_length() - 0.7 / 0.3).abs() < 1e-5);
    }

    #[test]
    fn unstable_rejected() {
        assert!(matches!(
            MatrixGeometricSolver::default().solve_detailed(&paper_config(2, 9.0)),
            Err(ModelError::Unstable { .. })
        ));
    }

    /// Forwards only the required methods, so every default of the trait runs.
    #[derive(Debug)]
    struct DefaultsOnly<'a>(&'a MatrixGeometricSolution);

    impl QueueSolution for DefaultsOnly<'_> {
        fn mode_count(&self) -> usize {
            self.0.mode_count()
        }
        fn arrival_rate(&self) -> f64 {
            self.0.arrival_rate()
        }
        fn state_probability(&self, mode: usize, level: usize) -> f64 {
            self.0.state_probability(mode, level)
        }
        fn mode_marginal(&self) -> Vec<f64> {
            self.0.mode_marginal()
        }
        fn mean_queue_length(&self) -> f64 {
            self.0.mean_queue_length()
        }
        fn tail_probability(&self, level: usize) -> f64 {
            self.0.tail_probability(level)
        }
    }

    #[test]
    fn level_walk_is_bit_identical_to_the_trait_default() {
        let hyperexponential = ServerLifecycle::new(
            urs_dist::HyperExponential::new(&[0.7246, 0.2754], &[0.1663, 0.0091]).unwrap(),
            urs_dist::HyperExponential::new(&[0.9303, 0.0697], &[25.0043, 1.6346]).unwrap(),
        );
        let configs =
            [paper_config(3, 2.0), SystemConfig::new(5, 3.0, 1.0, hyperexponential).unwrap()];
        for config in configs {
            let solution = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
            // The response-time truncation, and a loose one that stops inside the
            // boundary levels, where the tail is `1 − Σ` rather than `v·y`.
            for (epsilon, min_levels) in [(1e-12, config.servers() + 1), (1.0, 2)] {
                let (walked, walked_residual) =
                    solution.arrival_state_distribution(epsilon, min_levels).unwrap();
                let (default, default_residual) = DefaultsOnly(&solution)
                    .arrival_state_distribution(epsilon, min_levels)
                    .unwrap();
                assert_eq!(walked.len(), default.len());
                for (a, b) in walked.iter().zip(&default) {
                    let a: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
                    let b: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(a, b);
                }
                assert_eq!(walked_residual.to_bits(), default_residual.to_bits());
            }
        }
    }

    #[test]
    fn level_vectors_follow_the_rate_matrix() {
        let config = paper_config(3, 2.5);
        let solution = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
        let direct = solution.level_vector(6);
        let via_r = solution.rate_matrix().vecmat(&solution.level_vector(5)).unwrap();
        for (a, b) in direct.iter().zip(via_r) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
