//! Figure 5: cost `C = 4·L + N` as a function of the number of servers, for
//! λ = 7.0, 8.0 and 8.5.
//!
//! Paper reference: the optimal number of servers is 11 for λ = 7, 12 for λ = 8 and
//! 13 for λ = 8.5.

use urs_bench::{figure5_lifecycle, print_header, print_row, smoke, system};
use urs_core::{CostModel, CostSweep, SolverCache, SpectralExpansionSolver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The three λ sweeps share the same lifecycle and server range, so the cache
    // builds each N's QBD skeleton once instead of three times.
    let cache = SolverCache::shared();
    let solver = SpectralExpansionSolver::default().with_cache(cache.clone());
    let cost_model = CostModel::paper_figure5();
    let base = system(9, 7.0, figure5_lifecycle());
    let lambdas: &[f64] = if smoke() { &[8.0] } else { &[7.0, 8.0, 8.5] };
    let top_n = if smoke() { 13 } else { 17 };
    for &lambda in lambdas {
        let base = base.with_arrival_rate(lambda)?;
        let sweep = CostSweep::evaluate(&solver, &base, &cost_model, 9..=top_n)?;
        print_header(
            &format!("Figure 5: cost vs number of servers (lambda = {lambda}, c1 = 4, c2 = 1)"),
            &["N", "L", "cost C"],
        );
        for point in sweep.points() {
            print_row(&[point.servers as f64, point.mean_queue_length, point.cost]);
        }
        if let Some(best) = sweep.optimum() {
            let expected = match lambda {
                x if (x - 7.0).abs() < 1e-9 => 11,
                x if (x - 8.0).abs() < 1e-9 => 12,
                _ => 13,
            };
            println!(
                "optimal N = {} (cost {:.2}); paper reports optimal N = {expected}",
                best.servers, best.cost
            );
        }
    }
    let skeletons = cache.stats();
    println!(
        "\nsolver cache: {} skeleton builds reused {} times",
        skeletons.misses, skeletons.hits
    );
    Ok(())
}
