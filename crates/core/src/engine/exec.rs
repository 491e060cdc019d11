//! Grid executors: the single place every sweep's per-point work is defined.
//!
//! Each function here owns the exact closure body that used to live inline in
//! [`cost`](crate::cost), [`provisioning`](crate::provisioning) and
//! [`sweeps`](crate::sweeps); those modules' `*_with` entry points are now thin
//! wrappers over these executors, and [`Engine`](super::Engine) calls the same
//! executors when running query plans.  One implementation, two front doors — which
//! is what keeps the engine bit-identical to the legacy batch API (pinned by the
//! `parallel_equivalence` and `engine_equivalence` suites).

use urs_dist::{ContinuousDistribution as _, HyperExponential};

use crate::config::{ServerClass, ServerLifecycle, SystemConfig};
use crate::cost::{CostModel, CostPoint};
use crate::parallel::ThreadPool;
use crate::provisioning::ProvisioningPoint;
use crate::response::ResponseAnalysis;
use crate::solution::QueueSolver;
use crate::sweeps::{ClassMixPoint, LoadPoint, RepairTimePoint, SlaPoint, VariabilityPoint};
use crate::Result;

/// Solves one configuration per grid entry in one pool fan-out — the executor behind
/// batched `solve` queries.  Results are in input order and bit-identical for every
/// thread count (the [`ThreadPool`] contract).
pub(crate) fn solve_grid(
    solver: &dyn QueueSolver,
    configs: &[SystemConfig],
    pool: &ThreadPool,
) -> Result<Vec<super::SolutionSummary>> {
    pool.try_par_map(configs, |config| {
        let solution = solver.solve(config)?;
        Ok(super::SolutionSummary {
            servers: config.servers(),
            arrival_rate: config.arrival_rate(),
            utilisation: config.utilisation(),
            mean_queue_length: solution.mean_queue_length(),
            mean_response_time: solution.mean_response_time(),
        })
    })
}

/// Cost sweep over server counts (Figure 5); unstable counts are skipped.
pub(crate) fn cost_sweep(
    solver: &dyn QueueSolver,
    base_config: &SystemConfig,
    cost_model: &CostModel,
    counts: &[usize],
    pool: &ThreadPool,
) -> Result<Vec<CostPoint>> {
    let points = pool.try_par_map(counts, |&servers| -> Result<Option<CostPoint>> {
        let config = base_config.with_total_servers(servers)?;
        if !config.is_stable() {
            return Ok(None);
        }
        let l = solver.solve(&config)?.mean_queue_length();
        Ok(Some(CostPoint { servers, mean_queue_length: l, cost: cost_model.evaluate(l, servers) }))
    })?;
    Ok(points.into_iter().flatten().collect())
}

/// Provisioning sweep over server counts (Figure 9); unstable counts are skipped.
pub(crate) fn provisioning_sweep(
    solver: &dyn QueueSolver,
    base_config: &SystemConfig,
    counts: &[usize],
    pool: &ThreadPool,
) -> Result<Vec<ProvisioningPoint>> {
    let points = pool.try_par_map(counts, |&servers| -> Result<Option<ProvisioningPoint>> {
        let config = base_config.with_total_servers(servers)?;
        if !config.is_stable() {
            return Ok(None);
        }
        let solution = solver.solve(&config)?;
        Ok(Some(ProvisioningPoint {
            servers,
            mean_queue_length: solution.mean_queue_length(),
            mean_response_time: solution.mean_response_time(),
        }))
    })?;
    Ok(points.into_iter().flatten().collect())
}

/// Operative-period variability sweep (Figure 6).
pub(crate) fn variability_sweep(
    solver: &dyn QueueSolver,
    base_config: &SystemConfig,
    operative_mean: f64,
    scv_values: &[f64],
    pool: &ThreadPool,
) -> Result<Vec<VariabilityPoint>> {
    let inoperative = base_config.lifecycle().inoperative();
    pool.try_par_map(scv_values, |&scv| {
        let operative = HyperExponential::with_mean_and_scv(operative_mean, scv)?;
        let config =
            base_config.with_lifecycle(ServerLifecycle::new(operative, inoperative.clone()));
        let solution = solver.solve(&config)?;
        Ok(VariabilityPoint { scv, mean_queue_length: solution.mean_queue_length() })
    })
}

/// Repair-time sweep comparing exponential and hyperexponential operative periods
/// (Figure 7).
pub(crate) fn repair_time_sweep(
    solver: &dyn QueueSolver,
    base_config: &SystemConfig,
    hyperexponential_operative: &HyperExponential,
    mean_repair_times: &[f64],
    pool: &ThreadPool,
) -> Result<Vec<RepairTimePoint>> {
    let operative_mean = hyperexponential_operative.mean();
    let exponential_operative = HyperExponential::exponential(1.0 / operative_mean)?;
    pool.try_par_map(mean_repair_times, |&repair_time| {
        let repair = HyperExponential::exponential(1.0 / repair_time)?;
        let exp_config = base_config
            .with_lifecycle(ServerLifecycle::new(exponential_operative.clone(), repair.clone()));
        let hyper_config = base_config
            .with_lifecycle(ServerLifecycle::new(hyperexponential_operative.clone(), repair));
        Ok(RepairTimePoint {
            mean_repair_time: repair_time,
            exponential_operative: solver.solve(&exp_config)?.mean_queue_length(),
            hyperexponential_operative: solver.solve(&hyper_config)?.mean_queue_length(),
        })
    })
}

/// Load sweep comparing two solution methods (Figure 8).
pub(crate) fn load_sweep(
    reference: &dyn QueueSolver,
    comparison: &dyn QueueSolver,
    base_config: &SystemConfig,
    utilisations: &[f64],
    pool: &ThreadPool,
) -> Result<Vec<LoadPoint>> {
    let capacity = base_config.effective_capacity();
    pool.try_par_map(utilisations, |&rho| {
        let arrival_rate = rho * capacity;
        let config = base_config.with_arrival_rate(arrival_rate)?;
        Ok(LoadPoint {
            utilisation: rho,
            arrival_rate,
            reference: reference.solve(&config)?.mean_queue_length(),
            comparison: comparison.solve(&config)?.mean_queue_length(),
        })
    })
}

/// Two-class composition sweep at fixed fleet size; unstable mixes are skipped.
pub(crate) fn class_mix_sweep(
    solver: &dyn QueueSolver,
    arrival_rate: f64,
    primary: &ServerClass,
    secondary: &ServerClass,
    total_servers: usize,
    pool: &ThreadPool,
) -> Result<Vec<ClassMixPoint>> {
    let counts: Vec<usize> = (0..=total_servers).collect();
    let points = pool.try_par_map(&counts, |&k| -> Result<Option<ClassMixPoint>> {
        let mut classes = Vec::with_capacity(2);
        if total_servers - k > 0 {
            classes.push(primary.with_count(total_servers - k)?);
        }
        if k > 0 {
            classes.push(secondary.with_count(k)?);
        }
        let config = SystemConfig::heterogeneous(arrival_rate, classes)?;
        if !config.is_stable() {
            return Ok(None);
        }
        let solution = solver.solve(&config)?;
        Ok(Some(ClassMixPoint {
            secondary_servers: k,
            utilisation: config.utilisation(),
            mean_queue_length: solution.mean_queue_length(),
        }))
    })?;
    Ok(points.into_iter().flatten().collect())
}

/// SLA sweep: analytic response-time percentiles versus fleet size, each analysis
/// from `analyse`; unstable counts are skipped.
pub(crate) fn sla_sweep(
    base_config: &SystemConfig,
    server_counts: &[usize],
    fractions: &[f64],
    analyse: impl Fn(&SystemConfig) -> Result<ResponseAnalysis> + Sync,
    pool: &ThreadPool,
) -> Result<Vec<SlaPoint>> {
    let points = pool.try_par_map(server_counts, |&servers| -> Result<Option<SlaPoint>> {
        let config = base_config.with_servers(servers)?;
        if !config.is_stable() {
            return Ok(None);
        }
        let analysis = analyse(&config)?;
        Ok(Some(SlaPoint {
            servers,
            mean_response_time: analysis.mean_response_time(),
            percentiles: analysis.response_time_percentiles(fractions)?,
        }))
    })?;
    Ok(points.into_iter().flatten().collect())
}
