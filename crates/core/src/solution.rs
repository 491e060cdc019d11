//! The common interface exposed by every solution method.
//!
//! The paper computes the same performance measures from the exact spectral expansion,
//! from the geometric approximation and (implicitly, for validation) from simulation:
//! the queue-length distribution, its mean `L`, the mean response time `W = L/λ`
//! (Little's law) and derived cost metrics.  The [`QueueSolution`] trait captures those
//! measures so that the cost-optimisation and provisioning helpers can work with any
//! solver, and [`QueueSolver`] abstracts over the solution methods themselves.

use std::fmt;
use std::sync::Arc;

use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::Result;

/// Level budget of [`QueueSolution::arrival_state_distribution`]: a tail still above
/// `epsilon` after this many levels is reported as non-convergence.
pub(crate) const MAX_ARRIVAL_LEVELS: usize = 1_000_000;

/// The error of an arrival-state truncation that exhausted [`MAX_ARRIVAL_LEVELS`].
pub(crate) fn arrival_truncation_stalled() -> ModelError {
    ModelError::NoConvergence {
        algorithm: "arrival-state tail truncation",
        iterations: MAX_ARRIVAL_LEVELS,
    }
}

/// A steady-state solution of the multi-server breakdown queue.
///
/// Implementations expose the joint distribution of (operational mode, queue length)
/// and the derived performance measures.  All probabilities refer to the stationary
/// regime.
pub trait QueueSolution: fmt::Debug {
    /// Number of operational modes `s` of the underlying environment.
    fn mode_count(&self) -> usize;

    /// Arrival rate `λ` of the solved configuration (needed for Little's law).
    fn arrival_rate(&self) -> f64;

    /// Joint stationary probability of being in operational mode `mode` with `level`
    /// jobs in the system.
    fn state_probability(&self, mode: usize, level: usize) -> f64;

    /// Marginal probability of `level` jobs in the system.
    fn level_probability(&self, level: usize) -> f64 {
        (0..self.mode_count()).map(|i| self.state_probability(i, level)).sum()
    }

    /// Marginal distribution over the operational modes.
    fn mode_marginal(&self) -> Vec<f64>;

    /// Mean number of jobs in the system, `L`.
    fn mean_queue_length(&self) -> f64;

    /// Probability that the number of jobs exceeds `level`, `P(Z > level)`.
    fn tail_probability(&self, level: usize) -> f64;

    /// Mean response time `W = L/λ` (Little's law).
    fn mean_response_time(&self) -> f64 {
        self.mean_queue_length() / self.arrival_rate()
    }

    /// The queue-length distribution up to and including `max_level`.
    fn queue_length_distribution(&self, max_level: usize) -> Vec<f64> {
        (0..=max_level).map(|j| self.level_probability(j)).collect()
    }

    /// The probability that the system is empty.
    fn empty_probability(&self) -> f64 {
        self.level_probability(0)
    }

    /// The joint (level, mode) distribution truncated so the remaining tail mass is at
    /// most `epsilon`, together with the actual residual mass beyond the truncation.
    ///
    /// By the PASTA property this is exactly the distribution of the state an arriving
    /// (Poisson) customer finds, which is what the response-time analysis of
    /// [`response`](crate::response) conditions on.  Entry `[level][mode]` of the
    /// returned vector is `P(mode, level)`; levels are truncated at the first level
    /// `J ≥ min_levels − 1` with `P(Z > J) ≤ epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoConvergence`](crate::ModelError::NoConvergence) when the
    /// tail does not drop below `epsilon` within a very large number of levels (which
    /// indicates a near-unstable configuration or an `epsilon` below the solution's own
    /// accuracy).
    fn arrival_state_distribution(
        &self,
        epsilon: f64,
        min_levels: usize,
    ) -> Result<(Vec<Vec<f64>>, f64)> {
        let modes = self.mode_count();
        let mut levels = Vec::new();
        for level in 0..MAX_ARRIVAL_LEVELS {
            levels.push((0..modes).map(|m| self.state_probability(m, level)).collect());
            let residual = self.tail_probability(level);
            if level + 1 >= min_levels && residual <= epsilon {
                return Ok((levels, residual.max(0.0)));
            }
        }
        Err(arrival_truncation_stalled())
    }
}

/// A shared solution — the form the engine's plan store hands out — answers every
/// query through the solution it wraps, overridden default methods included.
impl<T: QueueSolution + ?Sized> QueueSolution for Arc<T> {
    fn mode_count(&self) -> usize {
        (**self).mode_count()
    }

    fn arrival_rate(&self) -> f64 {
        (**self).arrival_rate()
    }

    fn state_probability(&self, mode: usize, level: usize) -> f64 {
        (**self).state_probability(mode, level)
    }

    fn level_probability(&self, level: usize) -> f64 {
        (**self).level_probability(level)
    }

    fn mode_marginal(&self) -> Vec<f64> {
        (**self).mode_marginal()
    }

    fn mean_queue_length(&self) -> f64 {
        (**self).mean_queue_length()
    }

    fn tail_probability(&self, level: usize) -> f64 {
        (**self).tail_probability(level)
    }

    fn mean_response_time(&self) -> f64 {
        (**self).mean_response_time()
    }

    fn queue_length_distribution(&self, max_level: usize) -> Vec<f64> {
        (**self).queue_length_distribution(max_level)
    }

    fn empty_probability(&self) -> f64 {
        (**self).empty_probability()
    }

    fn arrival_state_distribution(
        &self,
        epsilon: f64,
        min_levels: usize,
    ) -> Result<(Vec<Vec<f64>>, f64)> {
        (**self).arrival_state_distribution(epsilon, min_levels)
    }
}

/// A method that produces a [`QueueSolution`] from a [`SystemConfig`].
///
/// The three analytic methods of the paper ([`SpectralExpansionSolver`],
/// [`GeometricApproximation`], and the matrix-geometric cross-check
/// [`MatrixGeometricSolver`]) all implement this trait, as does the brute-force
/// [`TruncatedCtmcSolver`]; higher-level analyses (cost optimisation, capacity
/// planning) accept `&dyn QueueSolver` so the method can be swapped freely.
///
/// Solvers are required to be `Send + Sync`: the sweep helpers hand one `&dyn
/// QueueSolver` to every worker thread of a [`ThreadPool`](crate::ThreadPool), so
/// solving must be safe to invoke concurrently.  All solvers in this crate are either
/// stateless option structs or share only a thread-safe [`SolverCache`](crate::SolverCache).
///
/// [`SpectralExpansionSolver`]: crate::SpectralExpansionSolver
/// [`GeometricApproximation`]: crate::GeometricApproximation
/// [`MatrixGeometricSolver`]: crate::MatrixGeometricSolver
/// [`TruncatedCtmcSolver`]: crate::TruncatedCtmcSolver
pub trait QueueSolver: fmt::Debug + Send + Sync {
    /// Human-readable name of the method (used in reports and experiment output).
    fn name(&self) -> &'static str;

    /// Solves the model for the given configuration.
    ///
    /// # Errors
    ///
    /// Implementations return [`ModelError::Unstable`](crate::ModelError::Unstable) for
    /// non-ergodic configurations and method-specific failures otherwise.
    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>>;
}

/// Verifies the elementary consistency properties that every solution must satisfy;
/// intended for tests and debug assertions.  Returns a list of human-readable
/// violations (empty when the solution looks sane).
pub fn consistency_violations(
    solution: &dyn QueueSolution,
    levels_to_check: usize,
    tol: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let marginal = solution.mode_marginal();
    if marginal.len() != solution.mode_count() {
        violations.push(format!(
            "mode marginal has {} entries for {} modes",
            marginal.len(),
            solution.mode_count()
        ));
    }
    let total_mode: f64 = marginal.iter().sum();
    if (total_mode - 1.0).abs() > tol {
        violations.push(format!("mode marginal sums to {total_mode}, expected 1"));
    }
    for (i, p) in marginal.iter().enumerate() {
        if *p < -tol {
            violations.push(format!("mode {i} has negative probability {p}"));
        }
    }
    let mut acc = 0.0;
    for j in 0..levels_to_check {
        let p = solution.level_probability(j);
        if p < -tol {
            violations.push(format!("level {j} has negative probability {p}"));
        }
        acc += p;
        let tail = solution.tail_probability(j);
        if (acc + tail - 1.0).abs() > 10.0 * tol {
            violations.push(format!("P(Z ≤ {j}) + P(Z > {j}) = {} differs from 1", acc + tail));
        }
    }
    if solution.mean_queue_length() < -tol {
        violations.push(format!("negative mean queue length {}", solution.mean_queue_length()));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built geometric "solution" used to exercise the default methods.
    #[derive(Debug)]
    struct GeometricToy {
        rho: f64,
    }

    impl QueueSolution for GeometricToy {
        fn mode_count(&self) -> usize {
            1
        }
        fn arrival_rate(&self) -> f64 {
            self.rho
        }
        fn state_probability(&self, _mode: usize, level: usize) -> f64 {
            (1.0 - self.rho) * self.rho.powi(level as i32)
        }
        fn mode_marginal(&self) -> Vec<f64> {
            vec![1.0]
        }
        fn mean_queue_length(&self) -> f64 {
            self.rho / (1.0 - self.rho)
        }
        fn tail_probability(&self, level: usize) -> f64 {
            self.rho.powi(level as i32 + 1)
        }
    }

    #[test]
    fn default_methods_are_consistent_for_a_geometric_queue() {
        let toy = GeometricToy { rho: 0.5 };
        assert!((toy.level_probability(0) - 0.5).abs() < 1e-15);
        assert!((toy.empty_probability() - 0.5).abs() < 1e-15);
        // M/M/1-like: W = L/λ = (ρ/(1-ρ))/ρ = 1/(1-ρ) = 2.
        assert!((toy.mean_response_time() - 2.0).abs() < 1e-15);
        let dist = toy.queue_length_distribution(10);
        assert_eq!(dist.len(), 11);
        assert!((dist.iter().sum::<f64>() + toy.tail_probability(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arrival_state_distribution_truncates_at_requested_tail_mass() {
        let toy = GeometricToy { rho: 0.5 };
        let (levels, residual) = toy.arrival_state_distribution(1e-6, 1).unwrap();
        // 0.5^{J+1} first drops to 1e-6 at J = 19, so exactly 20 levels are kept.
        assert_eq!(levels.len(), 20);
        assert!(residual <= 1e-6);
        let total: f64 = levels.iter().flatten().sum::<f64>() + residual;
        assert!((total - 1.0).abs() < 1e-12);
        // The minimum-level floor is honoured even when the tail is already small.
        let (padded, _) = toy.arrival_state_distribution(1e-6, 30).unwrap();
        assert_eq!(padded.len(), 30);
    }

    #[test]
    fn consistency_checker_accepts_good_and_flags_bad() {
        let good = GeometricToy { rho: 0.3 };
        assert!(consistency_violations(&good, 20, 1e-9).is_empty());

        #[derive(Debug)]
        struct Broken;
        impl QueueSolution for Broken {
            fn mode_count(&self) -> usize {
                1
            }
            fn arrival_rate(&self) -> f64 {
                1.0
            }
            fn state_probability(&self, _m: usize, _l: usize) -> f64 {
                -0.1
            }
            fn mode_marginal(&self) -> Vec<f64> {
                vec![0.5]
            }
            fn mean_queue_length(&self) -> f64 {
                -1.0
            }
            fn tail_probability(&self, _level: usize) -> f64 {
                2.0
            }
        }
        let violations = consistency_violations(&Broken, 3, 1e-9);
        assert!(violations.len() >= 3, "violations: {violations:?}");
    }
}
