//! The geometric (heavy-traffic) approximation (Section 3.2 of the paper).
//!
//! The exact spectral expansion keeps all `s` eigenvalues inside the unit disk.  The
//! approximation discards every term except the one belonging to the eigenvalue with
//! the largest modulus, `z_s = η` (always real and positive), yielding
//!
//! ```text
//! v_j ≈ u/(u·1) · (1 − η) · η^j ,    j = 0, 1, …
//! ```
//!
//! i.e. a geometric queue-length distribution that is *independent* of the operational
//! mode.  The approximation requires only one eigenvalue/eigenvector pair, is immune to
//! the ill-conditioning that affects the exact solution for large `N`, and is
//! asymptotically exact in heavy traffic (Mitrani 2005) — exactly the behaviour
//! reproduced in Figure 8.
//!
//! # Finding η without the eigensystem
//!
//! One root and one vector do not need the full quadratic eigensolve.  With `Q0 = λI`
//! and `Q2 = C` diagonal, `K(z) = Q0/z + Q1 + z·Q2` is, for `z > 0`, a Z-matrix whose
//! off-diagonal part `A` is constant — only the diagonal
//! `−K(z)ᵢᵢ = Dᴬᵢ + (1 − z)(Cᵢ − λ/z)` moves with `z`.  `η` is Neuts' caudal
//! characteristic (*Matrix-Geometric Solutions in Stochastic Models*, 1981): `−K(z)` is
//! a nonsingular M-matrix exactly on `η < z < 1`, which the pivots of one unpivoted
//! banded LU decide.  [`CaudalFamily::dominant_root`] brackets `η` by that test from
//! `(0, 1)` and closes the bracket by a safeguarded secant on the last pivot; the
//! mode vector `u = e_sᵀ·L⁻¹` comes from the factors at the M-matrix end, and is
//! non-negative by construction.
//!
//! The secant gains little at scale: on the paper lifecycle at ρ = 0.85 the search
//! spends 27/47/42/49/51 factorisations at N = 4/8/12/16/20, against about
//! `50 + log₂(1/η)` for bisection alone, so it is bisection-bound from N = 8 on.  Below
//! `η` the last pivot is usable only above its pole at the largest root of the leading
//! `s − 1` block, so the regula falsi rarely has a lower end.
//!
//! [`CaudalFamily::dominant_root`]: urs_linalg::CaudalFamily::dominant_root

use std::sync::Arc;

use urs_linalg::LinalgError;

use crate::cache::{qbd_matrices, SolverCache};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::solution::{QueueSolution, QueueSolver};
use crate::Result;

/// The geometric approximation solver.
///
/// # Example
///
/// ```
/// use urs_core::{GeometricApproximation, QueueSolution, ServerLifecycle, SystemConfig};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let config = SystemConfig::new(10, 9.5, 1.0, ServerLifecycle::paper_fitted()?)?;
/// let approx = GeometricApproximation::default().solve_detailed(&config)?;
/// assert!(approx.mean_queue_length() > 9.0);
/// assert!(approx.decay_rate() > 0.0 && approx.decay_rate() < 1.0);
/// # Ok(())
/// # }
/// ```
///
/// When the approximation runs next to an exact solver on the same grid (Figures 8
/// and 9), attach the *same* [`SolverCache`] to both with
/// [`with_cache`](Self::with_cache): they then build each λ-independent QBD skeleton
/// once between them.
#[derive(Debug, Clone, Default)]
pub struct GeometricApproximation {
    cache: Option<Arc<SolverCache>>,
}

impl GeometricApproximation {
    /// Attaches a [`SolverCache`]; the approximation reuses its QBD skeletons.
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SolverCache>> {
        self.cache.as_ref()
    }

    /// Solves the model, returning the concrete [`GeometricSolution`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unstable`] for non-ergodic configurations and
    /// [`ModelError::NoConvergence`] if the root search does not close its bracket
    /// within its step budget.
    pub fn solve_detailed(&self, config: &SystemConfig) -> Result<GeometricSolution> {
        config.ensure_stable()?;
        let qbd = qbd_matrices(self.cache.as_ref(), config)?;
        let family = qbd.skeleton().caudal_family(config.arrival_rate())?;
        let root = family.dominant_root().map_err(|e| match e {
            LinalgError::NoConvergence { algorithm, iterations } => {
                ModelError::NoConvergence { algorithm, iterations }
            }
            other => other.into(),
        })?;
        let mut mode_distribution = root.vector;
        // The last entry is 1 and none is negative, so the sum is at least 1.
        let sum: f64 = mode_distribution.iter().sum();
        for p in &mut mode_distribution {
            *p /= sum;
        }
        Ok(GeometricSolution {
            arrival_rate: config.arrival_rate(),
            decay_rate: root.eta,
            mode_distribution,
            search_steps: root.steps,
        })
    }
}

impl QueueSolver for GeometricApproximation {
    fn name(&self) -> &'static str {
        "geometric approximation"
    }

    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>> {
        Ok(Box::new(self.solve_detailed(config)?))
    }
}

/// The approximate solution: a geometric queue-length distribution with decay rate
/// `η`, independent of the operational mode.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometricSolution {
    arrival_rate: f64,
    decay_rate: f64,
    mode_distribution: Vec<f64>,
    search_steps: usize,
}

impl GeometricSolution {
    /// The dominant eigenvalue `η` (the geometric decay rate of the queue length).
    pub fn decay_rate(&self) -> f64 {
        self.decay_rate
    }

    /// How many unpivoted factorisations of `−K(z)` the root search evaluated — a
    /// deterministic work counter, identical on every run and thread count.
    pub fn search_steps(&self) -> usize {
        self.search_steps
    }

    /// `η^exponent`; exponents past `powi`'s `i32` range carry no mass.
    fn decay_power(&self, exponent: usize) -> f64 {
        i32::try_from(exponent).map_or(0.0, |e| self.decay_rate.powi(e))
    }
}

impl QueueSolution for GeometricSolution {
    fn mode_count(&self) -> usize {
        self.mode_distribution.len()
    }

    fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    fn state_probability(&self, mode: usize, level: usize) -> f64 {
        self.mode_distribution
            .get(mode)
            .map_or(0.0, |p| p * (1.0 - self.decay_rate) * self.decay_power(level))
    }

    fn level_probability(&self, level: usize) -> f64 {
        (1.0 - self.decay_rate) * self.decay_power(level)
    }

    fn mode_marginal(&self) -> Vec<f64> {
        self.mode_distribution.clone()
    }

    fn mean_queue_length(&self) -> f64 {
        self.decay_rate / (1.0 - self.decay_rate)
    }

    fn tail_probability(&self, level: usize) -> f64 {
        level.checked_add(1).map_or(0.0, |exponent| self.decay_power(exponent))
    }
}

/// Convenience: the dominant eigenvalue used by the approximation, exposed for
/// diagnostics and the Figure 8 experiment without building the full solution object.
///
/// # Errors
///
/// Same conditions as [`GeometricApproximation::solve_detailed`].
pub fn dominant_eigenvalue(config: &SystemConfig) -> Result<f64> {
    Ok(GeometricApproximation::default().solve_detailed(config)?.decay_rate())
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
    fn approximation_is_a_valid_distribution() {
        let solution =
            GeometricApproximation::default().solve_detailed(&paper_config(5, 4.0)).unwrap();
        let violations = consistency_violations(&solution, 50, 1e-9);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(solution.decay_rate() > 0.0 && solution.decay_rate() < 1.0);
    }

    #[test]
    fn decay_rate_matches_exact_dominant_eigenvalue() {
        let config = paper_config(4, 3.0);
        let approx = GeometricApproximation::default().solve_detailed(&config).unwrap();
        let exact = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
        assert!((approx.decay_rate() - exact.dominant_eigenvalue()).abs() < 1e-8);
        assert!((dominant_eigenvalue(&config).unwrap() - approx.decay_rate()).abs() < 1e-12);
    }

    #[test]
    fn approximation_improves_with_load() {
        // Relative error of L should shrink as the load grows (Figure 8's message).
        // The paper's Figure 8 shows a visible gap at ρ ≈ 0.9 that closes only as the
        // load approaches saturation, so the final error bound is deliberately loose.
        let mut previous_error = f64::INFINITY;
        for &lambda in &[6.0, 8.0, 9.3, 9.8, 9.95] {
            let config = paper_config(10, lambda);
            let exact = SpectralExpansionSolver::default()
                .solve_detailed(&config)
                .unwrap()
                .mean_queue_length();
            let approx = GeometricApproximation::default()
                .solve_detailed(&config)
                .unwrap()
                .mean_queue_length();
            let rel_error = (approx - exact).abs() / exact;
            assert!(
                rel_error < previous_error + 1e-9,
                "relative error should not grow with load: {rel_error} after {previous_error}"
            );
            previous_error = rel_error;
        }
        assert!(previous_error < 0.05, "heavy-traffic error should be small: {previous_error}");
    }

    #[test]
    fn unstable_configuration_is_rejected() {
        let config = paper_config(3, 5.0);
        assert!(matches!(
            GeometricApproximation::default().solve_detailed(&config),
            Err(ModelError::Unstable { .. })
        ));
    }

    #[test]
    fn levels_past_the_exponent_range_carry_no_mass() {
        let solution =
            GeometricApproximation::default().solve_detailed(&paper_config(4, 3.0)).unwrap();
        let far = [i32::MAX as usize + 1, u32::MAX as usize + 5, usize::MAX];
        let mut previous_tail = solution.tail_probability(i32::MAX as usize - 1);
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
        // Level i32::MAX is the first whose tail exponent does not fit, and must
        // neither overflow nor wrap.
        assert_eq!(solution.tail_probability(i32::MAX as usize), 0.0);
    }

    #[test]
    fn search_steps_count_the_factorisations() {
        let config = paper_config(6, 5.0);
        let first = GeometricApproximation::default().solve_detailed(&config).unwrap();
        let again = GeometricApproximation::default().solve_detailed(&config).unwrap();
        assert_eq!(first.search_steps(), again.search_steps());
        assert!(first.search_steps() > 1 && first.search_steps() <= 128);
    }

    #[test]
    fn mode_marginal_is_a_probability_vector() {
        let solution =
            GeometricApproximation::default().solve_detailed(&paper_config(6, 5.0)).unwrap();
        let marginal = solution.mode_marginal();
        assert!((marginal.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(marginal.iter().all(|p| *p >= 0.0));
    }
}
