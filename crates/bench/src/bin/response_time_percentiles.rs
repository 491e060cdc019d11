//! The paper's open problem, answered and cross-validated: response-time percentiles.
//!
//! Section 5 of the paper notes that the spectral-expansion solution yields the mean
//! response time but not its distribution (e.g. the 90th percentile) and leaves that
//! as future work.  This experiment now answers the question twice for the Figure 9
//! setting (λ = 7.5, fitted lifecycle): **analytically**, via the certified
//! uniformised absorption chain of `urs_core::response` (the `percentile_vs_servers`
//! SLA sweep), and **empirically**, via independent simulation replications with 95%
//! confidence intervals.  Every percentile is printed side by side; if any analytic
//! value falls outside three half-widths of its simulated interval the run reports
//! the divergence and exits non-zero, so this binary doubles as an end-to-end
//! validation gate.

use std::process::ExitCode;

use urs_bench::{figure5_lifecycle, print_header, smoke, system};
use urs_core::sweeps::percentile_vs_servers_with;
use urs_core::{ResponseOptions, SolverCache, ThreadPool};
use urs_dist::Exponential;
use urs_sim::{BreakdownQueueSimulation, Replications, SimulationConfig};

const FRACTIONS: [f64; 3] = [0.90, 0.95, 0.99];

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let lifecycle = figure5_lifecycle();
    let (last_n, warmup, horizon, replications) =
        if smoke() { (10, 2_000.0, 15_000.0, 4) } else { (13, 10_000.0, 120_000.0, 8) };
    let counts: Vec<usize> = (9..=last_n).collect();
    let pool = ThreadPool::default();
    let cache = SolverCache::shared();
    let base = system(counts[0], 7.5, lifecycle.clone());
    let analytic = percentile_vs_servers_with(
        &base,
        &counts,
        &FRACTIONS,
        ResponseOptions::default(),
        &cache,
        &pool,
    )?;

    print_header(
        "Response-time percentiles: certified uniformisation vs simulation (lambda = 7.5)",
        &["N", "W exact", "P90 exact", "P90 sim", "P95 exact", "P95 sim", "P99 exact", "P99 sim"],
    );
    let mut divergences = Vec::new();
    for point in &analytic {
        let sim_config = SimulationConfig::builder(point.servers, 7.5)
            .service(Exponential::new(1.0)?)
            .operative(lifecycle.operative().clone())
            .inoperative(lifecycle.inoperative().clone())
            .warmup(warmup)
            .horizon(horizon)
            .build()?;
        let simulation = BreakdownQueueSimulation::new(sim_config);
        let intervals = Replications::new(replications, 2006).run_percentiles_with(
            &simulation,
            &FRACTIONS,
            &pool,
        )?;
        let mut cells = vec![point.mean_response_time];
        for (exact, ci) in point.percentiles.iter().zip(&intervals) {
            cells.push(*exact);
            cells.push(ci.interval.mean);
            // Three half-widths (like the repo's other simulation validations), with a
            // small relative floor so a freak near-zero variance cannot false-alarm.
            let slack = 3.0 * ci.interval.half_width.max(0.02 * ci.interval.mean.abs());
            if (exact - ci.interval.mean).abs() > slack {
                divergences.push(format!(
                    "N = {}, P{:.0}: analytic {exact:.4} vs simulated {:.4} ± {:.4}",
                    point.servers,
                    100.0 * ci.fraction,
                    ci.interval.mean,
                    ci.interval.half_width
                ));
            }
        }
        let row = cells.iter().map(|v| format!("{v:>14.4}")).collect::<Vec<_>>().join("  ");
        println!("{:>14}  {row}", point.servers);
    }

    if divergences.is_empty() {
        println!(
            "\nAll analytic percentiles fall inside the simulated 95% intervals; every value \
             above was additionally certified by its two-sided CDF bound."
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("\nDIVERGENCE between analytic and simulated percentiles:");
        for line in &divergences {
            eprintln!("  {line}");
        }
        Ok(ExitCode::FAILURE)
    }
}
