//! A brute-force reference solver: truncate the queue and solve the finite CTMC.
//!
//! Neither the spectral expansion nor the matrix-geometric method is needed if the
//! queue is truncated at a finite capacity `J`: the resulting continuous-time Markov
//! chain over `(mode, level)` pairs can be solved directly from its balance equations.
//! For a stable queue and a truncation level well beyond the bulk of the distribution,
//! the truncated solution converges to the exact one, which makes this solver a slow
//! but conceptually independent cross-check for the analytic methods (it is also the
//! natural way to model a finite waiting room).
//!
//! The stationary vector is computed by Gauss–Seidel sweeps over the sparse generator,
//! which keeps even systems with a few thousand states tractable without any dense
//! factorisation.

use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::parallel::ThreadPool;
use crate::qbd::QbdMatrices;
use crate::solution::{QueueSolution, QueueSolver};
use crate::Result;

/// Per-level piece of the sparse transition structure built during construction:
/// the outgoing `(target state, rate)` adjacency of every mode at that level, plus
/// each mode's total exit rate.
type LevelAdjacency = (Vec<Vec<(usize, f64)>>, Vec<f64>);

/// Options for the truncated-CTMC reference solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedOptions {
    /// Queue-length truncation level `J` (states with more than `J` jobs are dropped;
    /// arrivals that would exceed `J` are lost).
    pub max_level: usize,
    /// Convergence tolerance on the max-norm change of the probability vector per sweep.
    pub tolerance: f64,
    /// Maximum number of Gauss–Seidel sweeps.
    pub max_sweeps: usize,
}

impl Default for TruncatedOptions {
    fn default() -> Self {
        TruncatedOptions { max_level: 200, tolerance: 1e-12, max_sweeps: 50_000 }
    }
}

/// The truncated-CTMC solver.
///
/// # Example
///
/// ```
/// use urs_core::{QueueSolver, ServerLifecycle, SystemConfig, TruncatedCtmcSolver, TruncatedOptions};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let lifecycle = ServerLifecycle::exponential(0.2, 1.0)?;
/// let config = SystemConfig::new(2, 0.8, 1.0, lifecycle)?;
/// let options = TruncatedOptions { max_level: 80, ..TruncatedOptions::default() };
/// let solution = TruncatedCtmcSolver::new(options).solve(&config)?;
/// assert!(solution.mean_queue_length() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedCtmcSolver {
    options: TruncatedOptions,
    pool: ThreadPool,
}

impl Default for TruncatedCtmcSolver {
    /// Default options and a serial pool (parallelism is strictly opt-in via
    /// [`with_pool`](Self::with_pool)).
    fn default() -> Self {
        TruncatedCtmcSolver::new(TruncatedOptions::default())
    }
}

impl TruncatedCtmcSolver {
    /// Creates a solver with explicit options.
    pub fn new(options: TruncatedOptions) -> Self {
        TruncatedCtmcSolver { options, pool: ThreadPool::serial() }
    }

    /// Builds the sparse transition structure on `pool` (one work item per queue
    /// level).  The Gauss–Seidel sweep itself stays serial — each state update reads
    /// values already updated *within the same sweep*, a sequential dependency that
    /// cannot be fanned out without changing the iterate — so the solution is
    /// bit-identical at any thread count by construction.
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Solves the truncated chain, returning the concrete [`TruncatedSolution`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoConvergence`] if the Gauss–Seidel iteration does not meet
    /// the tolerance within the sweep budget.  Unstable configurations are *allowed*
    /// (the truncated chain is always ergodic), so this solver can also be used to study
    /// overloaded systems with a finite waiting room.
    pub fn solve_detailed(&self, config: &SystemConfig) -> Result<TruncatedSolution> {
        let qbd = QbdMatrices::new(config)?;
        let s = qbd.order();
        let levels = self.options.max_level + 1;
        let state_count = s * levels;
        let state = |mode: usize, level: usize| level * s + mode;

        // Sparse transition list: outgoing (target, rate) per state, plus total exit
        // rate.  Levels are independent of one another during construction, so they
        // fan out across the pool; concatenating the per-level pieces in level order
        // reproduces the serial layout exactly (pure construction, no floating-point
        // reduction whose order could shift).
        let a = qbd.a();
        // `A` is a band matrix in the mode ordering; the skeleton reports the exact
        // bandwidth, so each row scan below covers only the band.  Out-of-band
        // entries are structurally zero, making the restriction exact: the adjacency
        // lists come out identical to a full-row scan, just `O(s·b)` instead of
        // `O(s²)` per level.
        let (kl, ku) = qbd.q1_bandwidths();
        let lambda = config.arrival_rate();
        let level_indices: Vec<usize> = (0..levels).collect();
        let per_level: Vec<LevelAdjacency> = self.pool.par_map(&level_indices, |&level| {
            // The level-dependent departure diagonal, borrowed once per level.
            let c_level = qbd.c_level(level);
            let mut outgoing: Vec<Vec<(usize, f64)>> = vec![Vec::new(); s];
            let mut exit_rate = vec![0.0_f64; s];
            for mode in 0..s {
                // Mode changes: walk the banded part of the mode's row of `A`.
                let band_start = mode.saturating_sub(kl);
                let band_end = (mode + ku + 1).min(s);
                // urs-analyze: allow(slice_index, reason = "band window clamped to 0..s by saturating_sub/min")
                for (offset, &rate) in a.row(mode)[band_start..band_end].iter().enumerate() {
                    if rate > 0.0 {
                        outgoing[mode].push((state(band_start + offset, level), rate));
                        exit_rate[mode] += rate;
                    }
                }
                // Arrivals (lost at the truncation boundary).
                if level + 1 < levels {
                    outgoing[mode].push((state(mode, level + 1), lambda));
                    exit_rate[mode] += lambda;
                }
                // Departures: the skeleton's level-dependent C matrices already
                // encode the (class-aware, fastest-first) allocation of jobs to
                // servers.
                let rate = c_level[mode];
                if rate > 0.0 {
                    outgoing[mode].push((state(mode, level - 1), rate));
                    exit_rate[mode] += rate;
                }
            }
            (outgoing, exit_rate)
        });
        let mut outgoing: Vec<Vec<(usize, f64)>> = Vec::with_capacity(state_count);
        let mut exit_rate: Vec<f64> = Vec::with_capacity(state_count);
        for (level_outgoing, level_exit) in per_level {
            outgoing.extend(level_outgoing);
            exit_rate.extend(level_exit);
        }
        // Incoming adjacency for Gauss–Seidel: π_i = Σ_j π_j q_{ji} / exit_i.
        let mut incoming: Vec<Vec<(usize, f64)>> = vec![Vec::new(); state_count];
        for (from, targets) in outgoing.iter().enumerate() {
            for &(to, rate) in targets {
                incoming[to].push((from, rate));
            }
        }

        // Initial guess: uniform.
        let mut pi = vec![1.0 / state_count as f64; state_count];
        let mut converged = false;
        for _ in 0..self.options.max_sweeps {
            let mut max_change = 0.0_f64;
            for i in 0..state_count {
                if exit_rate[i] <= 0.0 {
                    continue;
                }
                let inflow: f64 = incoming[i].iter().map(|&(j, rate)| pi[j] * rate).sum();
                let updated = inflow / exit_rate[i];
                max_change = max_change.max((updated - pi[i]).abs());
                pi[i] = updated;
            }
            // Renormalise each sweep to keep the iteration well scaled.
            let total: f64 = pi.iter().sum();
            for p in &mut pi {
                *p /= total;
            }
            if max_change < self.options.tolerance {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(ModelError::NoConvergence {
                algorithm: "truncated-CTMC Gauss-Seidel",
                iterations: self.options.max_sweeps,
            });
        }
        let mut levels_vec: Vec<Vec<f64>> = Vec::with_capacity(levels);
        for level in 0..levels {
            levels_vec.push((0..s).map(|mode| pi[state(mode, level)]).collect());
        }
        let mean_queue_length =
            levels_vec.iter().enumerate().map(|(j, v)| j as f64 * v.iter().sum::<f64>()).sum();
        Ok(TruncatedSolution {
            arrival_rate: lambda,
            mode_count: s,
            levels: levels_vec,
            mean_queue_length,
        })
    }
}

impl QueueSolver for TruncatedCtmcSolver {
    fn name(&self) -> &'static str {
        "truncated CTMC (Gauss-Seidel)"
    }

    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>> {
        Ok(Box::new(self.solve_detailed(config)?))
    }
}

/// The stationary distribution of the truncated chain.
#[derive(Debug, Clone)]
pub struct TruncatedSolution {
    arrival_rate: f64,
    mode_count: usize,
    levels: Vec<Vec<f64>>,
    mean_queue_length: f64,
}

impl TruncatedSolution {
    /// The truncation level used.
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Probability mass sitting in the top 1% of levels — if this is not tiny, the
    /// truncation is too aggressive for the offered load.
    pub fn truncation_mass(&self) -> f64 {
        let start = self.levels.len().saturating_sub(self.levels.len() / 100 + 1);
        self.levels[start..].iter().map(|v| v.iter().sum::<f64>()).sum()
    }
}

impl QueueSolution for TruncatedSolution {
    fn mode_count(&self) -> usize {
        self.mode_count
    }

    fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    fn state_probability(&self, mode: usize, level: usize) -> f64 {
        if level < self.levels.len() && mode < self.mode_count {
            self.levels[level][mode]
        } else {
            0.0
        }
    }

    fn mode_marginal(&self) -> Vec<f64> {
        let mut marginal = vec![0.0; self.mode_count];
        for level in &self.levels {
            for (m, p) in marginal.iter_mut().zip(level) {
                *m += p;
            }
        }
        marginal
    }

    fn mean_queue_length(&self) -> f64 {
        self.mean_queue_length
    }

    fn tail_probability(&self, level: usize) -> f64 {
        self.levels.iter().enumerate().skip(level + 1).map(|(_, v)| v.iter().sum::<f64>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::solution::consistency_violations;

    #[test]
    fn mm1_with_truncation_matches_geometric_distribution() {
        let lifecycle = ServerLifecycle::exponential(1e-9, 1e3).unwrap();
        let config = SystemConfig::new(1, 0.5, 1.0, lifecycle).unwrap();
        let options = TruncatedOptions { max_level: 60, ..TruncatedOptions::default() };
        let solution = TruncatedCtmcSolver::new(options).solve_detailed(&config).unwrap();
        for j in 0..10 {
            let expected = 0.5 * 0.5_f64.powi(j as i32);
            assert!(
                (solution.level_probability(j) - expected).abs() < 1e-6,
                "level {j}: {}",
                solution.level_probability(j)
            );
        }
        assert!(solution.truncation_mass() < 1e-10);
        assert_eq!(solution.max_level(), 60);
    }

    #[test]
    fn consistency_and_mode_marginal() {
        let lifecycle = ServerLifecycle::exponential(0.3, 1.5).unwrap();
        let config = SystemConfig::new(2, 0.9, 1.0, lifecycle.clone()).unwrap();
        let options = TruncatedOptions { max_level: 120, ..TruncatedOptions::default() };
        let solution = TruncatedCtmcSolver::new(options).solve_detailed(&config).unwrap();
        assert!(consistency_violations(&solution, 50, 1e-8).is_empty());
        // Mode marginal approximates the product-form environment distribution.
        let qbd = QbdMatrices::new(&config).unwrap();
        let expected = qbd.modes().stationary_distribution(&lifecycle);
        for (got, want) in solution.mode_marginal().iter().zip(&expected) {
            assert!((got - want).abs() < 1e-6, "marginal {got} vs {want}");
        }
    }

    #[test]
    fn overloaded_system_is_still_solvable() {
        // The truncated chain is a loss system, so even λ above capacity is fine.
        let lifecycle = ServerLifecycle::exponential(0.5, 1.0).unwrap();
        let config = SystemConfig::new(1, 3.0, 1.0, lifecycle).unwrap();
        let options = TruncatedOptions { max_level: 50, ..TruncatedOptions::default() };
        let solution = TruncatedCtmcSolver::new(options).solve_detailed(&config).unwrap();
        // Mass piles up near the truncation boundary.
        assert!(solution.truncation_mass() > 0.01);
        assert!(solution.mean_queue_length() > 25.0);
    }
}
