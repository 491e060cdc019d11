//! Figure 9: average response time against the number of servers, exact and
//! approximate, and the minimum cluster size for a response-time target.
//!
//! Parameters as in the paper: λ = 7.5, µ = 1, fitted operative-period distribution and
//! exponential repairs with η = 25; N ranges from 8 to 13.  The paper's example reads
//! off that at least 9 servers are needed to keep W ≤ 1.5.

use urs_bench::{figure5_lifecycle, print_header, print_row, system};
use urs_core::{GeometricApproximation, ProvisioningSweep, SolverCache, SpectralExpansionSolver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = system(8, 7.5, figure5_lifecycle());
    // The two sweeps visit the same (N, λ) grid, so sharing one cache lets the
    // approximation pass reuse every QBD skeleton the exact pass built — each
    // skeleton is built once, not twice, per server count.
    let cache = SolverCache::shared();
    let exact = ProvisioningSweep::evaluate(
        &SpectralExpansionSolver::default().with_cache(cache.clone()),
        &base,
        8..=13,
    )?;
    let approx = ProvisioningSweep::evaluate(
        &GeometricApproximation::default().with_cache(cache.clone()),
        &base,
        8..=13,
    )?;

    print_header(
        "Figure 9: W vs number of servers (lambda = 7.5, eta = 25)",
        &["N", "W exact", "W approx"],
    );
    for (e, a) in exact.points().iter().zip(approx.points()) {
        print_row(&[e.servers as f64, e.mean_response_time, a.mean_response_time]);
    }
    match exact.min_servers_for_response_time(1.5) {
        Some(n) => println!("\nminimum N with W <= 1.5 (exact): {n}   (paper: at least 9 servers)"),
        None => println!("\nno server count in range meets W <= 1.5"),
    }
    match approx.min_servers_for_response_time(1.5) {
        Some(n) => println!("minimum N with W <= 1.5 (approximation): {n}"),
        None => println!("the approximation finds no feasible count in the range"),
    }
    let skeletons = cache.stats();
    println!(
        "cache: {} skeleton reuse(s) across {} server counts",
        skeletons.hits,
        exact.points().len()
    );
    Ok(())
}
