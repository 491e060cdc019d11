//! Heterogeneous fleets: sweeping the mix of two server classes at fixed fleet size.
//!
//! The paper models `N` i.i.d. servers and flags distinct server classes as future
//! work; this experiment exercises that extension.  A fleet of fixed total size mixes
//! *steady* servers (the paper's fitted lifecycle, µ = 1) with *fast-but-fragile*
//! servers (µ = 1.5, exponential lifecycle with mean operative period 10 and mean
//! repair time 0.5).  For every mix the exact spectral expansion and the geometric
//! approximation solve the product-mode-space model, and one mixed point is
//! cross-checked against the discrete-event simulator's confidence interval.
//!
//! Run with `URS_SMOKE=1` for a CI-sized grid.

use urs_bench::{figure5_lifecycle, print_header, print_row, smoke};
use urs_core::{
    sweeps::queue_length_vs_class_mix, GeometricApproximation, QueueSolver, ServerClass,
    ServerLifecycle, SolverCache, SpectralExpansionSolver, SystemConfig,
};
use urs_sim::{BreakdownQueueSimulation, Replications, SimulationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let total = if smoke() { 5 } else { 8 };
    let lambda = if smoke() { 3.2 } else { 5.5 };
    let steady = ServerClass::new(1, 1.0, figure5_lifecycle())?;
    let fragile_lifecycle = ServerLifecycle::exponential(1.0 / 10.0, 1.0 / 0.5)?;
    let fragile = ServerClass::new(1, 1.5, fragile_lifecycle.clone())?;

    // One cache for both sweeps (and the cross-check below): the approximation reuses
    // every QBD skeleton the exact pass builds instead of rebuilding it.
    let cache = SolverCache::shared();
    let exact = queue_length_vs_class_mix(
        &SpectralExpansionSolver::default().with_cache(cache.clone()),
        lambda,
        &steady,
        &fragile,
        total,
    )?;
    let approx = queue_length_vs_class_mix(
        &GeometricApproximation::default().with_cache(cache.clone()),
        lambda,
        &steady,
        &fragile,
        total,
    )?;

    print_header(
        &format!(
            "Heterogeneous fleet: L vs fast-fragile share (total N = {total}, lambda = {lambda})"
        ),
        &["fragile N", "utilisation", "L exact", "L approx"],
    );
    for (e, a) in exact.iter().zip(&approx) {
        print_row(&[
            e.secondary_servers as f64,
            e.utilisation,
            e.mean_queue_length,
            a.mean_queue_length,
        ]);
    }
    if let Some(best) =
        exact.iter().min_by(|a, b| a.mean_queue_length.total_cmp(&b.mean_queue_length))
    {
        println!(
            "\nbest mix: {} fragile server(s) out of {total} (L = {:.4})",
            best.secondary_servers, best.mean_queue_length
        );
    }

    // Cross-check one mixed point against the simulator.
    let fragile_count = total / 2;
    let config = SystemConfig::heterogeneous(
        lambda,
        vec![steady.with_count(total - fragile_count)?, fragile.with_count(fragile_count)?],
    )?;
    let analytic = SpectralExpansionSolver::default()
        .with_cache(cache.clone())
        .solve(&config)?
        .mean_queue_length();
    let skeletons = cache.stats();
    println!(
        "\ncache: {} skeleton build(s), {} skeleton reuse(s) across {} mixes",
        skeletons.misses,
        skeletons.hits,
        exact.len()
    );
    // Build the simulated classes from the *same* ServerClass objects as the analytic
    // side, so tuning the scenario at the top of main cannot desynchronise the two.
    let mut sim_builder = SimulationConfig::heterogeneous(lambda);
    for class in config.classes() {
        sim_builder = sim_builder.class(
            class.count(),
            class.service_rate(),
            class.lifecycle().operative().clone(),
            class.lifecycle().inoperative().clone(),
        );
    }
    let sim_config = sim_builder
        .warmup(if smoke() { 2_000.0 } else { 20_000.0 })
        .horizon(if smoke() { 20_000.0 } else { 200_000.0 })
        .build()?;
    let replications = if smoke() { 4 } else { 8 };
    let summary =
        Replications::new(replications, 2006).run(&BreakdownQueueSimulation::new(sim_config))?;
    let agrees = summary.mean_queue_length.contains(analytic);
    println!(
        "simulator check at {fragile_count} fragile: L = {:.4} in [{:.4}, {:.4}] (analytic {:.4}) — {}",
        summary.mean_queue_length.mean,
        summary.mean_queue_length.lower(),
        summary.mean_queue_length.upper(),
        analytic,
        if agrees { "inside the 95% CI" } else { "OUTSIDE the 95% CI" }
    );
    if !agrees {
        // Fail the (smoke-)run so CI flags analytic/simulator divergence instead of
        // merely printing it.
        return Err("analytic solution outside the simulated 95% confidence interval".into());
    }
    Ok(())
}
