//! Figure 8: exact solution vs geometric approximation as the load increases.
//!
//! Parameters as in the paper: N = 10, µ = 1, fitted operative-period distribution
//! (α₁ = 0.7246, ξ₁ = 0.1663, ξ₂ = 0.0091) and exponential repairs with η = 25.  The
//! load (utilisation) ranges from 0.89 to very close to 1.

use urs_bench::{figure5_lifecycle, print_header, print_row, smoke, system};
use urs_core::{
    sweeps::queue_length_vs_load, GeometricApproximation, SolverCache, SpectralExpansionSolver,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = system(10, 8.0, figure5_lifecycle());
    // Loads from 0.89 up to 0.995 — the queue must stay strictly stable.
    let mut utilisations: Vec<f64> =
        (0..if smoke() { 3 } else { 11 }).map(|i| 0.89 + i as f64 * 0.01).collect();
    utilisations.push(0.995);
    // Only λ varies along this sweep, and the cache is shared between the two solvers:
    // the QBD skeleton is built once for the whole grid and both solvers reuse it at
    // every point.
    let cache = SolverCache::shared();
    let points = queue_length_vs_load(
        &SpectralExpansionSolver::default().with_cache(cache.clone()),
        &GeometricApproximation::default().with_cache(cache.clone()),
        &base,
        &utilisations,
    )?;

    print_header(
        "Figure 8: exact vs approximate L against the load (N = 10, eta = 25)",
        &["load", "L exact", "L approx", "rel. error"],
    );
    for p in &points {
        let rel_error = (p.comparison - p.reference).abs() / p.reference;
        print_row(&[p.utilisation, p.reference, p.comparison, rel_error]);
    }
    let skeletons = cache.stats();
    println!(
        "\ncache: {} skeleton build(s), {} skeleton reuse(s) across {} grid points",
        skeletons.misses,
        skeletons.hits,
        points.len()
    );
    println!("Paper: the approximation becomes more accurate as the load increases.");
    Ok(())
}
