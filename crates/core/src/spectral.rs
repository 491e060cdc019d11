//! The exact spectral-expansion solution (Section 3.1 of the paper).
//!
//! For queue lengths `j ≥ N` the balance equations form the constant-coefficient
//! difference equation `v_j Q0 + v_{j+1} Q1 + v_{j+2} Q2 = 0`.  Its bounded solutions
//! are spanned by `u_k z_k^j` where `z_k` are the eigenvalues of the characteristic
//! matrix polynomial `Q(z)` inside the unit disk and `u_k` the corresponding left
//! eigenvectors; ergodicity guarantees exactly `s` such eigenvalues.  The unknown
//! boundary vectors `v_0 … v_{N−1}` and the expansion coefficients `γ_k` follow from
//! the level-`0..N` balance equations plus normalisation.
//!
//! **The roots are real.**  The mode chain is reversible (see the
//! [`response`](crate::response) module docs for the argument), so `Π·A` is symmetric
//! with `Π = diag(π)`.  Conjugating by `Π^½` makes `Q1` symmetric while `Q0 = λI` and
//! `Q2 = C` stay diagonal, and for the reversed polynomial `λμ² + Q1μ + C` the
//! inequality `(xᵀQ1x)² ≥ 4λ|x|²·xᵀCx` (AM–GM, equality only at ρ = 1) makes the
//! quadratic eigenproblem *hyperbolic* (Duffin 1955; Tisseur & Meerbergen, SIAM
//! Review 2001): all `2s` eigenvalues are real and semisimple, and exactly `s` lie in
//! `(0, 1)`.  The whole expansion therefore runs in real arithmetic.
//!
//! Implementation notes:
//!
//! * the eigenvalues come from spectrum slicing of `−K(z) = −Q(z)/z`
//!   ([`urs_linalg::CaudalFamily::roots_in_unit_interval`]): the negative pivots of
//!   one unpivoted banded LU count the roots above a point, bisection on that count
//!   isolates every root (each round's probes spread across the pool), and a secant
//!   on `det(−K(z))` refines each isolated root to a bracket 4 ulps wide.  The roots
//!   are real by construction; a family outside the hyperbolic class is an error;
//! * the left eigenvectors come from real shifted inverse iteration on one banded
//!   LU of `Q(z)ᵀ` per root ([`QuadraticEigenProblem::real_left_eigenvector`]);
//! * the eigenpairs determine the rate matrix of the repeating levels,
//!   `R = U⁻¹·Z·U` with `U` the matrix whose rows are the `u_k` and
//!   `Z = diag(z_k)`: one real LU of `U`;
//! * the boundary levels `0..N` are then eliminated by the boundary solve shared
//!   with the [`MatrixGeometricSolver`](crate::MatrixGeometricSolver), so the two
//!   exact solvers differ only in how they obtain `R`;
//! * the same LU of `U` yields the coefficients `γ` from `γ·U = v_N`, so the
//!   expansion is anchored at level `N`: `v_j = Σ_k γ_k·u_k·z_k^(j−N)` for `j ≥ N`.
//!
//! [`QuadraticEigenProblem::real_left_eigenvector`]: urs_linalg::QuadraticEigenProblem::real_left_eigenvector

use std::sync::Arc;

use urs_linalg::{LuDecomposition, Matrix, Workspace};

use crate::cache::{qbd_matrices, SolverCache};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::matrix_geometric::solve_boundary;
use crate::parallel::ThreadPool;
use crate::qbd::QbdMatrices;
use crate::solution::{QueueSolution, QueueSolver};
use crate::Result;

/// Options controlling the spectral-expansion solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralOptions {
    /// Every eigenvalue inside the unit disk must lie below `1 − unit_disk_margin`,
    /// where the slicing count must be zero.  The margin keeps the search clear of
    /// the eigenvalue at 1, which always exists for the conservative generator.
    pub unit_disk_margin: f64,
    /// Maximum tolerated eigen-residual `‖u Q(z)‖∞` relative to the matrix scale.
    pub residual_tolerance: f64,
}

impl Default for SpectralOptions {
    fn default() -> Self {
        SpectralOptions { unit_disk_margin: 1e-9, residual_tolerance: 1e-6 }
    }
}

/// The exact solver based on spectral expansion.
///
/// # Example
///
/// ```
/// use urs_core::{QueueSolver, ServerLifecycle, SpectralExpansionSolver, SystemConfig};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let config = SystemConfig::new(10, 8.0, 1.0, ServerLifecycle::paper_fitted()?)?;
/// let solution = SpectralExpansionSolver::default().solve(&config)?;
/// let l = solution.mean_queue_length();
/// assert!(l > 8.0 && l < 40.0);
/// # Ok(())
/// # }
/// ```
///
/// For parameter sweeps, attach a shared [`SolverCache`] with
/// [`with_cache`](Self::with_cache): grid points that differ only in the arrival rate
/// then reuse the λ-independent QBD skeleton, bit-identically, and so does a
/// cache-sharing [`GeometricApproximation`](crate::GeometricApproximation).
#[derive(Debug, Clone)]
pub struct SpectralExpansionSolver {
    options: SpectralOptions,
    cache: Option<Arc<SolverCache>>,
    pool: ThreadPool,
}

impl Default for SpectralExpansionSolver {
    /// Default options, no cache, and a serial pool (parallelism is strictly opt-in
    /// via [`with_pool`](Self::with_pool)).
    fn default() -> Self {
        SpectralExpansionSolver::new(SpectralOptions::default())
    }
}

impl SpectralExpansionSolver {
    /// Creates a solver with explicit options.
    pub fn new(options: SpectralOptions) -> Self {
        SpectralExpansionSolver { options, cache: None, pool: ThreadPool::serial() }
    }

    /// Attaches a cache whose QBD skeletons the solver reuses.  The same cache can be
    /// shared by several solvers and by every thread of a parallel sweep.
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs the solver's internal kernels — the slicing probes and root refinements,
    /// eigenvector extraction, the LU of the eigenvector matrix and the boundary
    /// block-tridiagonal elimination — on `pool`.
    ///
    /// Every parallel path preserves the serial accumulation order, so the solution
    /// is bit-identical to the default serial solver at any thread count.
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SolverCache>> {
        self.cache.as_ref()
    }

    /// Solves the model, returning the concrete [`SpectralSolution`] (richer than the
    /// boxed trait object returned via [`QueueSolver::solve`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unstable`] for non-ergodic configurations and
    /// [`ModelError::SpectralFailure`] when the residuals do not meet expectations
    /// (typically for very large, ill-conditioned systems — the situation the
    /// paper's geometric approximation is designed for), and [`ModelError::Linalg`]
    /// when spectrum slicing does not find `s` roots below `1 − unit_disk_margin`.
    pub fn solve_detailed(&self, config: &SystemConfig) -> Result<SpectralSolution> {
        config.ensure_stable()?;
        self.solve_qbd(config, &qbd_matrices(self.cache.as_ref(), config)?)
    }

    /// Runs the spectral expansion on prebuilt QBD matrices.
    fn solve_qbd(&self, config: &SystemConfig, qbd: &QbdMatrices) -> Result<SpectralSolution> {
        let s = qbd.order();

        // 1. The real eigenvalues of Q(z) inside the unit disk, ascending, by spectrum
        // slicing, and their left eigenvectors.
        let eigenvalues = qbd
            .skeleton()
            .caudal_family(qbd.arrival_rate())?
            .roots_in_unit_interval(self.options.unit_disk_margin, &self.pool)?;
        let q1 = qbd.q1();
        let scale = q1.max_abs().max(1.0);
        let problem = urs_linalg::QuadraticEigenProblem::new(qbd.q0(), q1, qbd.q2())?;
        // Each eigenvector extraction is independent, so the sorted list fans out
        // across the pool.  `try_par_map` reports the smallest-indexed failure, which
        // is exactly the one a serial loop over the same sorted order would have hit
        // first.
        let eigenvectors: Vec<Vec<f64>> =
            self.pool.try_par_map(&eigenvalues, |&z| -> Result<Vec<f64>> {
                let u = problem.real_left_eigenvector(z)?;
                let residual = problem.real_residual(z, &u)?;
                if residual > self.options.residual_tolerance * scale {
                    return Err(ModelError::SpectralFailure(format!(
                        "left eigenvector residual {residual:.3e} at z = {z} exceeds tolerance",
                    )));
                }
                Ok(u)
            })?;

        // 2. R = U⁻¹·Z·U (u_k R = z_k u_k row by row), then the boundary elimination
        // shared with the matrix-geometric solver.
        let z_u: Vec<f64> = eigenvalues
            .iter()
            .zip(&eigenvectors)
            .flat_map(|(z, u_k)| u_k.iter().map(move |x| z * x))
            .collect();
        let z_u = Matrix::from_vec(s, s, z_u)?;
        let u_lu = LuDecomposition::from_matrix_with(
            Matrix::from_vec(s, s, eigenvectors.concat())?,
            &self.pool,
        )?;
        let mut r = Matrix::zeros(s, s);
        u_lu.solve_matrix_into(&z_u, &mut r)?;
        let mut levels = solve_boundary(qbd, &r, &self.pool)?;

        // 3. The expansion coefficients from γ·U = v_N, on the same factors.
        let v_n = levels.pop().ok_or(ModelError::Internal("boundary solve returned no levels"))?;
        let v_n = Matrix::from_vec(1, s, v_n)?;
        let mut gamma = Matrix::zeros(1, s);
        u_lu.solve_right_matrix_into(&v_n, &mut gamma, &mut Workspace::new())?;

        // 4. Fold the coefficients into the eigenvectors, w_k = γ_k·u_k, then
        // assemble the solution and normalise.
        let terms = eigenvalues
            .iter()
            .zip(&eigenvectors)
            .zip(gamma.as_slice())
            .map(|((&z, u), gamma)| {
                let weighted_vector: Vec<f64> = u.iter().map(|c| c * gamma).collect();
                let weighted_sum = weighted_vector.iter().sum();
                SpectralTerm { z, weighted_vector, weighted_sum }
            })
            .collect();
        SpectralSolution::assemble(config, qbd, levels, terms)
    }
}

impl QueueSolver for SpectralExpansionSolver {
    fn name(&self) -> &'static str {
        "spectral expansion (exact)"
    }

    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>> {
        Ok(Box::new(self.solve_detailed(config)?))
    }
}

/// One term of the spectral expansion: the eigenvalue `z_k` together with the
/// coefficient-weighted eigenvector `w_k = γ_k·u_k` and its component sum.
#[derive(Debug, Clone)]
struct SpectralTerm {
    z: f64,
    weighted_vector: Vec<f64>,
    weighted_sum: f64,
}

/// `base^exp` by repeated squaring; exact in the exponent for every `u32`.
fn powu(mut base: f64, mut exp: u32) -> f64 {
    let mut acc = 1.0;
    while exp > 0 {
        if exp & 1 == 1 {
            acc *= base;
        }
        base *= base;
        exp >>= 1;
    }
    acc
}

/// The exact steady-state solution produced by [`SpectralExpansionSolver`].
#[derive(Debug, Clone)]
pub struct SpectralSolution {
    servers: usize,
    arrival_rate: f64,
    mode_count: usize,
    /// Probability vectors of the boundary levels `0..N-1`.
    boundary: Vec<Vec<f64>>,
    terms: Vec<SpectralTerm>,
    mean_queue_length: f64,
}

impl SpectralSolution {
    /// Normalises the boundary levels `v_0..v_{N−1}` together with the tail
    /// `v_j = Σ_k w_k·z_k^(j−N)`, `j ≥ N`.
    fn assemble(
        config: &SystemConfig,
        qbd: &QbdMatrices,
        mut boundary: Vec<Vec<f64>>,
        mut terms: Vec<SpectralTerm>,
    ) -> Result<Self> {
        let s = qbd.order();
        let servers = qbd.servers();

        // Total (un-normalised) probability mass: Σ_{j≥N} v_j·1 = Σ_k w_k·1/(1 − z_k).
        let boundary_mass: f64 = boundary.iter().map(|v| v.iter().sum::<f64>()).sum();
        let tail_mass: f64 = terms.iter().map(|t| t.weighted_sum / (1.0 - t.z)).sum();
        let total = tail_mass + boundary_mass;
        if total.abs() < 1e-300 {
            return Err(ModelError::SpectralFailure(
                "total probability mass vanished during normalisation".into(),
            ));
        }

        // Normalise every unknown by the total mass.
        for p in boundary.iter_mut().flatten() {
            *p /= total;
        }
        for term in &mut terms {
            for w in &mut term.weighted_vector {
                *w /= total;
            }
            term.weighted_sum /= total;
        }

        // Mean queue length:
        //   L = Σ_{j<N} j·(v_j·1) + Σ_k w_k_sum · (N − (N−1)z) / (1−z)².
        let boundary_part: f64 =
            boundary.iter().enumerate().map(|(j, v)| j as f64 * v.iter().sum::<f64>()).sum();
        let tail_part: f64 = terms
            .iter()
            .map(|t| {
                let one_minus = 1.0 - t.z;
                t.weighted_sum * (servers as f64 - t.z * (servers as f64 - 1.0))
                    / (one_minus * one_minus)
            })
            .sum();
        let mean_queue_length = boundary_part + tail_part;

        Ok(SpectralSolution {
            servers,
            arrival_rate: config.arrival_rate(),
            mode_count: s,
            boundary,
            terms,
            mean_queue_length,
        })
    }

    /// The eigenvalues `z_k` of the characteristic polynomial inside the unit disk,
    /// sorted by increasing modulus.  They are real (see the module docs).
    pub fn eigenvalues(&self) -> Vec<f64> {
        self.terms.iter().map(|t| t.z).collect()
    }

    /// The dominant (largest-modulus) eigenvalue; it is real and positive for an
    /// ergodic queue and governs the geometric tail decay.
    pub fn dominant_eigenvalue(&self) -> f64 {
        self.terms.last().map(|t| t.z).unwrap_or(0.0)
    }

    /// Number of servers `N` of the solved configuration.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Joint probabilities of the boundary levels `0..N−1` (level → mode → probability).
    pub fn boundary_levels(&self) -> &[Vec<f64>] {
        &self.boundary
    }
}

impl QueueSolution for SpectralSolution {
    fn mode_count(&self) -> usize {
        self.mode_count
    }

    fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    fn state_probability(&self, mode: usize, level: usize) -> f64 {
        if mode >= self.mode_count {
            return 0.0;
        }
        if level < self.servers {
            self.boundary.get(level).and_then(|v| v.get(mode)).copied().unwrap_or(0.0)
        } else {
            // Levels past the `u32` exponent range carry no mass.
            let Ok(power) = u32::try_from(level - self.servers) else { return 0.0 };
            self.terms
                .iter()
                .filter_map(|t| t.weighted_vector.get(mode).map(|w| w * powu(t.z, power)))
                .sum()
        }
    }

    fn mode_marginal(&self) -> Vec<f64> {
        (0..self.mode_count)
            .map(|mode| {
                let boundary: f64 = self.boundary.iter().filter_map(|v| v.get(mode)).sum();
                let tail: f64 = self
                    .terms
                    .iter()
                    .filter_map(|t| t.weighted_vector.get(mode).map(|w| w / (1.0 - t.z)))
                    .sum();
                boundary + tail
            })
            .collect()
    }

    fn mean_queue_length(&self) -> f64 {
        self.mean_queue_length
    }

    fn tail_probability(&self, level: usize) -> f64 {
        let last_boundary = self.servers.saturating_sub(1);
        if level >= last_boundary {
            // P(Z > level) = Σ_k w_sum z^{level+1−N}/(1−z); no mass past `u32` powers.
            let Ok(power) = u32::try_from(level - last_boundary) else { return 0.0 };
            self.terms.iter().map(|t| t.weighted_sum * powu(t.z, power) / (1.0 - t.z)).sum()
        } else {
            let below: f64 = (0..=level).map(|j| self.level_probability(j)).sum();
            (1.0 - below).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::solution::consistency_violations;

    fn solve(servers: usize, lambda: f64, lifecycle: ServerLifecycle) -> SpectralSolution {
        let config = SystemConfig::new(servers, lambda, 1.0, lifecycle).unwrap();
        SpectralExpansionSolver::default().solve_detailed(&config).unwrap()
    }

    #[test]
    fn mm1_limit_no_breakdowns() {
        // A single server that is essentially always operative: the queue behaves as an
        // M/M/1 with ρ = λ/µ, whose queue-length distribution is geometric.
        let lifecycle = ServerLifecycle::exponential(1e-9, 1e3).unwrap();
        let solution = solve(1, 0.6, lifecycle);
        let rho: f64 = 0.6;
        for j in 0..20 {
            let expected = (1.0 - rho) * rho.powi(j as i32);
            assert!(
                (solution.level_probability(j) - expected).abs() < 1e-6,
                "level {j}: {} vs {expected}",
                solution.level_probability(j)
            );
        }
        assert!((solution.mean_queue_length() - rho / (1.0 - rho)).abs() < 1e-5);
        assert!((solution.dominant_eigenvalue() - rho).abs() < 1e-6);
    }

    #[test]
    fn mm2_limit_matches_erlang_formula() {
        // Two always-operative servers: M/M/2 with λ = 1.2, µ = 1.
        let lifecycle = ServerLifecycle::exponential(1e-9, 1e3).unwrap();
        let solution = solve(2, 1.2, lifecycle);
        // M/M/c closed form for c = 2: p0 = (1-ρ)/(1+ρ) with ρ = λ/(2µ),
        // L = 2ρ + ρ(2ρ)²p0/(2!(1-ρ)²) … use the standard Erlang-C based formula.
        let rho: f64 = 0.6;
        let p0 = (1.0 - rho) / (1.0 + rho);
        let lq = (2.0 * rho).powi(2) * rho * p0 / (2.0 * (1.0 - rho) * (1.0 - rho));
        let l = lq + 2.0 * rho;
        assert!(
            (solution.mean_queue_length() - l).abs() < 1e-4,
            "L = {} vs {l}",
            solution.mean_queue_length()
        );
    }

    #[test]
    fn solution_is_internally_consistent() {
        let solution = solve(3, 2.0, ServerLifecycle::paper_fitted().unwrap());
        let violations = consistency_violations(&solution, 60, 1e-7);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(solution.eigenvalues().len(), solution.mode_count());
        assert_eq!(solution.servers(), 3);
        assert_eq!(solution.boundary_levels().len(), 3);
    }

    #[test]
    fn mode_marginal_matches_environment_product_form() {
        // The environment evolves independently of the queue, so the mode marginal must
        // equal the multinomial stationary distribution.
        let lifecycle = ServerLifecycle::paper_fitted().unwrap();
        let config = SystemConfig::new(4, 3.0, 1.0, lifecycle.clone()).unwrap();
        let solution = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
        let qbd = QbdMatrices::new(&config).unwrap();
        let expected = qbd.modes().stationary_distribution(&lifecycle);
        for (got, want) in solution.mode_marginal().iter().zip(&expected) {
            assert!((got - want).abs() < 1e-6, "mode marginal {got} vs {want}");
        }
    }

    #[test]
    fn unstable_configuration_is_rejected() {
        let lifecycle = ServerLifecycle::paper_fitted().unwrap();
        let config = SystemConfig::new(2, 5.0, 1.0, lifecycle).unwrap();
        assert!(matches!(
            SpectralExpansionSolver::default().solve_detailed(&config),
            Err(ModelError::Unstable { .. })
        ));
    }

    #[test]
    fn single_server_with_breakdowns_matches_truncated_reference() {
        // Cross-checked more broadly in the integration tests; here a small smoke test
        // that probabilities decay geometrically with the dominant eigenvalue.
        let lifecycle = ServerLifecycle::exponential(0.2, 1.0).unwrap();
        let solution = solve(1, 0.5, lifecycle);
        let z = solution.dominant_eigenvalue();
        assert!(z > 0.0 && z < 1.0);
        let p20 = solution.level_probability(20);
        let p21 = solution.level_probability(21);
        assert!((p21 / p20 - z).abs() < 1e-6);
    }

    #[test]
    fn little_law_holds() {
        let solution = solve(5, 3.5, ServerLifecycle::paper_fitted().unwrap());
        assert!((solution.mean_response_time() - solution.mean_queue_length() / 3.5).abs() < 1e-12);
    }

    #[test]
    fn levels_past_the_exponent_range_carry_no_mass() {
        let solution = solve(4, 3.0, ServerLifecycle::paper_fitted().unwrap());
        let far = [i32::MAX as usize + 1, u32::MAX as usize + 5, usize::MAX];
        let mut previous_tail = solution.tail_probability(1000);
        for level in far {
            let tail = solution.tail_probability(level);
            assert!(tail.is_finite() && (0.0..=1.0).contains(&tail), "tail at {level}: {tail}");
            assert!(tail <= previous_tail, "tail must not grow at {level}: {tail}");
            previous_tail = tail;
            let p = solution.level_probability(level);
            assert!(p.is_finite() && (0.0..=1.0).contains(&p), "level {level}: {p}");
            for mode in 0..solution.mode_count() {
                let q = solution.state_probability(mode, level);
                assert!(q.is_finite() && (0.0..=1.0).contains(&q), "state ({mode}, {level}): {q}");
            }
        }
        // Level 2³² + 4 must not wrap onto level 4.
        assert!(solution.tail_probability(u32::MAX as usize + 5) < 1e-300);
        assert!(solution.tail_probability(4) > 0.1);
    }

    #[test]
    fn level_probabilities_sum_to_one() {
        let solution = solve(4, 3.0, ServerLifecycle::paper_fitted().unwrap());
        let mut total = 0.0;
        for j in 0..2000 {
            total += solution.level_probability(j);
        }
        total += solution.tail_probability(1999);
        assert!((total - 1.0).abs() < 1e-9, "total probability {total}");
    }
}
