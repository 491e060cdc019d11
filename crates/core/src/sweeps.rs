//! Sensitivity sweeps used by the paper's Figures 6, 7 and 8.
//!
//! These helpers hold everything fixed except one quantity — the variability of the
//! operative periods, the mean repair time, or the offered load — and report the mean
//! queue length along the sweep, optionally for several solution methods at once.
//!
//! Grid points are independent, so every sweep fans out over a
//! [`ThreadPool`]: the plain functions use the default pool
//! (all available cores, or `URS_THREADS`), and each has a `*_with` twin taking an
//! explicit pool.  Results are returned in grid order and are bit-identical for every
//! thread count — see the `parallel_equivalence` integration tests.

use std::sync::Arc;

use urs_dist::HyperExponential;

use crate::cache::SolverCache;
use crate::config::{ServerClass, SystemConfig};
use crate::parallel::ThreadPool;
use crate::response::{ResponseAnalysis, ResponseOptions};
use crate::solution::QueueSolver;
use crate::Result;

/// One point of a variability sweep (Figure 6): the squared coefficient of variation of
/// the operative periods and the resulting mean queue length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariabilityPoint {
    /// Squared coefficient of variation `C²` of the operative periods.
    pub scv: f64,
    /// Mean queue length `L`.
    pub mean_queue_length: f64,
}

/// Sweeps the squared coefficient of variation of the operative periods while keeping
/// their mean fixed (Figure 6).  `scv = 1` is the exponential case; values above 1 use
/// the balanced-means two-phase hyperexponential.
///
/// # Errors
///
/// Propagates construction and solver errors; unstable configurations are reported as
/// [`ModelError::Unstable`](crate::ModelError::Unstable) by the solver.
pub fn queue_length_vs_operative_scv(
    solver: &dyn QueueSolver,
    base_config: &SystemConfig,
    operative_mean: f64,
    scv_values: &[f64],
) -> Result<Vec<VariabilityPoint>> {
    queue_length_vs_operative_scv_with(
        solver,
        base_config,
        operative_mean,
        scv_values,
        &ThreadPool::default(),
    )
}

/// [`queue_length_vs_operative_scv`] with an explicit worker pool.
///
/// # Errors
///
/// Propagates construction and solver errors (first failing grid point).
pub fn queue_length_vs_operative_scv_with(
    solver: &dyn QueueSolver,
    base_config: &SystemConfig,
    operative_mean: f64,
    scv_values: &[f64],
    pool: &ThreadPool,
) -> Result<Vec<VariabilityPoint>> {
    crate::engine::exec::variability_sweep(solver, base_config, operative_mean, scv_values, pool)
}

/// One point of a repair-time sweep (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairTimePoint {
    /// Mean repair (inoperative) time `1/η`.
    pub mean_repair_time: f64,
    /// Mean queue length with exponentially distributed operative periods.
    pub exponential_operative: f64,
    /// Mean queue length with hyperexponentially distributed operative periods of the
    /// same mean.
    pub hyperexponential_operative: f64,
}

/// Sweeps the mean repair time, comparing exponential and hyperexponential operative
/// periods with the same mean (Figure 7).
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn queue_length_vs_repair_time(
    solver: &dyn QueueSolver,
    base_config: &SystemConfig,
    hyperexponential_operative: &HyperExponential,
    mean_repair_times: &[f64],
) -> Result<Vec<RepairTimePoint>> {
    queue_length_vs_repair_time_with(
        solver,
        base_config,
        hyperexponential_operative,
        mean_repair_times,
        &ThreadPool::default(),
    )
}

/// [`queue_length_vs_repair_time`] with an explicit worker pool.
///
/// # Errors
///
/// Propagates construction and solver errors (first failing grid point).
pub fn queue_length_vs_repair_time_with(
    solver: &dyn QueueSolver,
    base_config: &SystemConfig,
    hyperexponential_operative: &HyperExponential,
    mean_repair_times: &[f64],
    pool: &ThreadPool,
) -> Result<Vec<RepairTimePoint>> {
    crate::engine::exec::repair_time_sweep(
        solver,
        base_config,
        hyperexponential_operative,
        mean_repair_times,
        pool,
    )
}

/// One point of a load sweep (Figure 8): the utilisation and the mean queue length for
/// each of two solution methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Utilisation `ρ = (λ/µ)/(N·η/(ξ+η))`.
    pub utilisation: f64,
    /// Arrival rate that produced this utilisation.
    pub arrival_rate: f64,
    /// Mean queue length from the first (reference) solver.
    pub reference: f64,
    /// Mean queue length from the second (comparison) solver.
    pub comparison: f64,
}

/// Sweeps the offered load by varying the arrival rate, solving each point with two
/// methods (used to compare the exact solution with the geometric approximation in
/// Figure 8).
///
/// # Errors
///
/// Propagates solver errors.
pub fn queue_length_vs_load(
    reference: &dyn QueueSolver,
    comparison: &dyn QueueSolver,
    base_config: &SystemConfig,
    utilisations: &[f64],
) -> Result<Vec<LoadPoint>> {
    queue_length_vs_load_with(
        reference,
        comparison,
        base_config,
        utilisations,
        &ThreadPool::default(),
    )
}

/// [`queue_length_vs_load`] with an explicit worker pool.
///
/// Only the arrival rate varies along this sweep, so a
/// [`SolverCache`]-backed solver builds the QBD skeleton once for
/// the whole grid.
///
/// # Errors
///
/// Propagates solver errors (first failing grid point).
pub fn queue_length_vs_load_with(
    reference: &dyn QueueSolver,
    comparison: &dyn QueueSolver,
    base_config: &SystemConfig,
    utilisations: &[f64],
    pool: &ThreadPool,
) -> Result<Vec<LoadPoint>> {
    crate::engine::exec::load_sweep(reference, comparison, base_config, utilisations, pool)
}

/// One point of a class-mix sweep: `secondary_servers` servers of the secondary class
/// replacing primary-class servers at a fixed fleet size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMixPoint {
    /// Number of servers drawn from the secondary class (`0 ..= total`).
    pub secondary_servers: usize,
    /// Utilisation `ρ = λ / (Σ_c N_c·a_c·µ_c)` of the mixed fleet.
    pub utilisation: f64,
    /// Mean queue length `L`.
    pub mean_queue_length: f64,
}

/// Sweeps the composition of a two-class fleet at fixed total size: point `k` replaces
/// `k` primary-class servers with secondary-class servers (`k = 0` and `k = total` are
/// the two homogeneous endpoints).  Mixes for which the system is unstable are
/// skipped, like the unstable counts of a [`CostSweep`](crate::CostSweep).
///
/// The `count` fields of the template classes are ignored; only their service rates
/// and lifecycles matter.
///
/// This sweep reports performance along one slice of the composition space; to
/// *optimise* the composition — over any number of classes, under per-class prices,
/// fleet-size and budget bounds — use [`mix::MixSearch`](crate::mix::MixSearch).
///
/// # Errors
///
/// Propagates construction and solver errors (first failing grid point).
pub fn queue_length_vs_class_mix(
    solver: &dyn QueueSolver,
    arrival_rate: f64,
    primary: &ServerClass,
    secondary: &ServerClass,
    total_servers: usize,
) -> Result<Vec<ClassMixPoint>> {
    queue_length_vs_class_mix_with(
        solver,
        arrival_rate,
        primary,
        secondary,
        total_servers,
        &ThreadPool::default(),
    )
}

/// [`queue_length_vs_class_mix`] with an explicit worker pool.
///
/// # Errors
///
/// Propagates construction and solver errors (first failing grid point).
pub fn queue_length_vs_class_mix_with(
    solver: &dyn QueueSolver,
    arrival_rate: f64,
    primary: &ServerClass,
    secondary: &ServerClass,
    total_servers: usize,
    pool: &ThreadPool,
) -> Result<Vec<ClassMixPoint>> {
    crate::engine::exec::class_mix_sweep(
        solver,
        arrival_rate,
        primary,
        secondary,
        total_servers,
        pool,
    )
}

/// One point of an SLA sweep: the fleet size, the mean response time and the analytic
/// response-time percentiles requested from [`percentile_vs_servers`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlaPoint {
    /// Number of servers at this point.
    pub servers: usize,
    /// Mean response time `W` (Little's law).
    pub mean_response_time: f64,
    /// Certified percentiles, aligned with the `fractions` argument of the sweep.
    pub percentiles: Vec<f64>,
}

/// Sweeps the fleet size and reports analytic response-time percentiles — the
/// SLA-vs-capacity trade-off (P99 versus `N`) that previously required simulation.
/// Server counts for which the system is unstable are skipped, like the unstable
/// counts of a [`CostSweep`](crate::CostSweep).
///
/// Every percentile is certified by the two-sided bound of
/// [`ResponseAnalysis`]; a bound wider than the
/// tolerance anywhere fails the whole sweep rather than returning an untrustworthy
/// number.
///
/// # Errors
///
/// Propagates construction, solver and certification errors (first failing grid
/// point); rejects heterogeneous base configurations.
pub fn percentile_vs_servers(
    base_config: &SystemConfig,
    server_counts: &[usize],
    fractions: &[f64],
) -> Result<Vec<SlaPoint>> {
    percentile_vs_servers_with(
        base_config,
        server_counts,
        fractions,
        ResponseOptions::default(),
        &SolverCache::shared(),
        &ThreadPool::default(),
    )
}

/// [`percentile_vs_servers`] with explicit options, solver cache and worker pool.
///
/// The cache is shared across the grid points (and any later queries), so repeated
/// sweeps over overlapping fleets reuse their QBD skeletons.
///
/// # Errors
///
/// As [`percentile_vs_servers`].
pub fn percentile_vs_servers_with(
    base_config: &SystemConfig,
    server_counts: &[usize],
    fractions: &[f64],
    options: ResponseOptions,
    cache: &Arc<SolverCache>,
    pool: &ThreadPool,
) -> Result<Vec<SlaPoint>> {
    let analyse = |config: &SystemConfig| ResponseAnalysis::with_cache(config, options, cache);
    crate::engine::exec::sla_sweep(base_config, server_counts, fractions, analyse, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::GeometricApproximation;
    use crate::config::ServerLifecycle;
    use crate::solution::QueueSolution as _;
    use crate::spectral::SpectralExpansionSolver;
    use urs_dist::ContinuousDistribution;

    fn base(servers: usize, lambda: f64, repair_rate: f64) -> SystemConfig {
        let operative = HyperExponential::with_mean_and_scv(34.62, 4.6).unwrap();
        let lifecycle = ServerLifecycle::with_exponential_repair(operative, repair_rate).unwrap();
        SystemConfig::new(servers, lambda, 1.0, lifecycle).unwrap()
    }

    #[test]
    fn queue_length_grows_with_operative_variability() {
        // The qualitative message of Figure 6: L grows with C², and the effect is
        // noticeable under load.  Mirrors the paper's setting (mean repair time 5,
        // utilisation well above 0.9) scaled down to 5 servers.
        let base = base(5, 4.2, 0.2);
        let points = queue_length_vs_operative_scv(
            &SpectralExpansionSolver::default(),
            &base,
            34.62,
            &[1.0, 2.0, 4.0, 8.0],
        )
        .unwrap();
        assert_eq!(points.len(), 4);
        for pair in points.windows(2) {
            assert!(
                pair[1].mean_queue_length >= pair[0].mean_queue_length - 1e-9,
                "L should grow with C²: {pair:?}"
            );
        }
        assert!(points[3].mean_queue_length > points[0].mean_queue_length * 1.05);
    }

    #[test]
    fn exponential_assumption_underestimates_queue_length() {
        // The qualitative message of Figure 7: with the same means, the exponential
        // operative-period assumption predicts a smaller queue than the
        // hyperexponential reality, and the gap grows with the repair time.
        let operative = HyperExponential::with_mean_and_scv(34.62, 4.6).unwrap();
        let base = base(5, 3.5, 1.0);
        let points = queue_length_vs_repair_time(
            &SpectralExpansionSolver::default(),
            &base,
            &operative,
            &[0.5, 1.0, 2.0],
        )
        .unwrap();
        for p in &points {
            assert!(
                p.hyperexponential_operative > p.exponential_operative,
                "hyperexponential should give the larger queue: {p:?}"
            );
        }
        let gap_first = points[0].hyperexponential_operative - points[0].exponential_operative;
        let gap_last = points[2].hyperexponential_operative - points[2].exponential_operative;
        assert!(gap_last > gap_first);
    }

    #[test]
    fn approximation_error_shrinks_with_load() {
        let base = base(5, 3.0, 25.0);
        let points = queue_length_vs_load(
            &SpectralExpansionSolver::default(),
            &GeometricApproximation::default(),
            &base,
            &[0.85, 0.92, 0.97],
        )
        .unwrap();
        let errors: Vec<f64> =
            points.iter().map(|p| (p.comparison - p.reference).abs() / p.reference).collect();
        assert!(errors[2] <= errors[0] + 1e-9, "errors {errors:?}");
        // As in Figure 8, the approximation is within a modest relative error near
        // saturation but only becomes exact in the limit.
        assert!(errors[2] < 0.15, "errors {errors:?}");
        // The arrival rates really produce the requested utilisations.
        for p in &points {
            let expected = p.utilisation * base.effective_servers();
            assert!((p.arrival_rate - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn sla_percentiles_fall_as_the_fleet_grows() {
        let lifecycle = ServerLifecycle::paper_fitted().unwrap();
        let base = SystemConfig::new(3, 1.5, 1.0, lifecycle).unwrap();
        // N = 1 is unstable at λ = 1.5 and must be skipped, not fail the sweep.
        let points = percentile_vs_servers(&base, &[1, 2, 3, 4], &[0.9, 0.99]).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].servers, 2);
        for point in &points {
            assert!(point.percentiles[0] < point.percentiles[1], "P90 < P99: {point:?}");
            assert!(point.mean_response_time > 0.0);
        }
        for pair in points.windows(2) {
            assert!(
                pair[1].percentiles[1] < pair[0].percentiles[1],
                "P99 must fall with more servers: {pair:?}"
            );
        }
    }

    #[test]
    fn scv_one_matches_plain_exponential_lifecycle() {
        let base = base(4, 2.5, 1.0);
        let operative_mean = 34.62;
        let sweep = queue_length_vs_operative_scv(
            &SpectralExpansionSolver::default(),
            &base,
            operative_mean,
            &[1.0],
        )
        .unwrap();
        let exp_lifecycle = ServerLifecycle::with_exponential_repair(
            HyperExponential::exponential(1.0 / operative_mean).unwrap(),
            base.lifecycle().repair_rate(),
        )
        .unwrap();
        assert!((exp_lifecycle.operative().scv() - 1.0).abs() < 1e-12);
        let direct = SpectralExpansionSolver::default()
            .solve_detailed(&base.with_lifecycle(exp_lifecycle))
            .unwrap()
            .mean_queue_length();
        assert!((sweep[0].mean_queue_length - direct).abs() < 1e-8);
    }
}
