//! End-to-end validation of the analytic response-time distribution against the
//! discrete-event simulator, in the paper's Figure 9 setting (λ = 7.5, fitted
//! lifecycle, N around the provisioning knee).
//!
//! The analytic percentiles come from `urs_core::response`: the tagged customer's
//! absorption chain, uniformised, with every value certified by its own two-sided
//! bound.  The simulated percentiles come from independent replications of a
//! simulator that shares nothing with that machinery, summarised as 95% confidence
//! intervals.  Agreement here therefore validates the whole pipeline — QBD
//! construction, stationary solve, absorption chain and percentile search.
//!
//! The load grid below holds the same answers to the Euler inversion of the
//! response-time transform, which shares nothing with the stepping but the QBD
//! blocks and the arrival distribution, and pins a few values to six digits.

use unreliable_servers::core::{
    invert_lst_cdf, InversionOptions, ResponseAnalysis, ResponseOptions, ServerLifecycle,
    SolverCache, SystemConfig,
};
use unreliable_servers::dist::Exponential;
use unreliable_servers::sim::{BreakdownQueueSimulation, Replications, SimulationConfig};
use urs_bench::{figure5_lifecycle, smoke, system};

const FRACTIONS: [f64; 3] = [0.90, 0.95, 0.99];

#[test]
fn analytic_percentiles_fall_inside_simulated_intervals_for_figure9() {
    // Smoke mode trims to the single most-loaded (hence most sensitive) fleet size
    // and a shorter horizon; the full run covers the span of the paper's Figure 9.
    let (server_counts, warmup, horizon, replications): (&[usize], f64, f64, usize) =
        if smoke() { (&[10], 2_000.0, 15_000.0, 4) } else { (&[9, 11, 13], 8_000.0, 80_000.0, 6) };
    let lifecycle = figure5_lifecycle();
    let cache = SolverCache::shared();

    for &servers in server_counts {
        let config = system(servers, 7.5, lifecycle.clone());
        let analysis =
            ResponseAnalysis::with_cache(&config, ResponseOptions::default(), &cache).unwrap();
        // The percentiles are certified internally: each answer's two-sided CDF bound
        // is narrower than the configured tolerance.
        let analytic = analysis.response_time_percentiles(&FRACTIONS).unwrap();

        let sim_config = SimulationConfig::builder(servers, 7.5)
            .service(Exponential::new(1.0).unwrap())
            .operative(lifecycle.operative().clone())
            .inoperative(lifecycle.inoperative().clone())
            .warmup(warmup)
            .horizon(horizon)
            .build()
            .unwrap();
        let intervals = Replications::new(replications, 2006)
            .run_percentiles(&BreakdownQueueSimulation::new(sim_config), &FRACTIONS)
            .unwrap();

        for (exact, ci) in analytic.iter().zip(&intervals) {
            // Three half-widths (with a small relative floor) keeps the test robust
            // against the ~1-in-20 misses of a strict 95% interval, matching the
            // convention of `tests/simulation_validation.rs`.
            let slack = 3.0 * ci.interval.half_width.max(0.02 * ci.interval.mean);
            assert!(
                (exact - ci.interval.mean).abs() < slack,
                "N = {servers}, P{:.0}: analytic {exact} vs simulated {} ± {}",
                100.0 * ci.fraction,
                ci.interval.mean,
                ci.interval.half_width,
            );
        }

        // The percentiles must be strictly ordered and bracket the analytic mean
        // response time the spectral expansion already provides.
        assert!(analytic[0] < analytic[1] && analytic[1] < analytic[2]);
        assert!(analysis.mean_response_time() < analytic[2]);
    }
}

#[test]
fn analytic_percentiles_need_no_simulation() {
    // The acceptance criterion of the feature: percentile queries are answered
    // purely analytically.  This test never constructs a simulator.
    let config = system(10, 7.5, figure5_lifecycle());
    let analysis = ResponseAnalysis::new(&config).unwrap();
    let p = analysis.response_time_percentiles(&FRACTIONS).unwrap();
    for (fraction, t) in FRACTIONS.iter().zip(&p) {
        let cdf = analysis.response_time_cdf(*t).unwrap();
        assert!(
            (cdf - fraction).abs() < 1e-6,
            "round trip failed: F({t}) = {cdf}, expected {fraction}"
        );
    }
}

/// The paper lifecycle at µ = 1 and utilisation `rho` on `servers` servers.
fn paper_at(servers: usize, rho: f64) -> SystemConfig {
    let lifecycle = ServerLifecycle::paper_fitted().unwrap();
    let arrival_rate = rho * servers as f64 * lifecycle.availability();
    SystemConfig::new(servers, arrival_rate, 1.0, lifecycle).unwrap()
}

/// P50 to P999 at every fleet size and load of the grid, up to ρ = 0.95 — the SLA
/// loads.  Every request is answered, and each answer `t` is bracketed by the bounds
/// themselves: `upper(t·(1 − 1e-6)) ≤ q ≤ lower(t·(1 + 1e-6))`.  Up to ρ = 0.8 the
/// uniformised CDF at each answer also equals the Euler inversion of the transform.
#[test]
fn every_load_of_the_sla_grid_is_answered_and_bracketed() {
    const FRACTIONS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
    for servers in [2, 3, 5, 8] {
        for rho in [0.5, 0.7, 0.8, 0.9, 0.95] {
            let analysis = ResponseAnalysis::new(&paper_at(servers, rho)).unwrap();
            let answers = analysis.response_time_percentiles(&FRACTIONS).unwrap_or_else(|e| {
                panic!("N = {servers}, ρ = {rho}: {e}");
            });
            for (&q, &t) in FRACTIONS.iter().zip(&answers) {
                let (_, upper) = analysis.response_time_cdf_bounds(t * (1.0 - 1e-6)).unwrap();
                let (lower, _) = analysis.response_time_cdf_bounds(t * (1.0 + 1e-6)).unwrap();
                assert!(
                    upper <= q && q <= lower,
                    "N = {servers}, ρ = {rho}, q = {q}: t = {t} brackets [{upper}, {lower}]"
                );
                if rho <= 0.8 {
                    let uniformised = analysis.response_time_cdf(t).unwrap();
                    let euler =
                        invert_lst_cdf(|s| analysis.lst(s), t, &InversionOptions::default())
                            .unwrap();
                    assert!(
                        (uniformised - euler).abs() <= 1e-7,
                        "N = {servers}, ρ = {rho}, q = {q}: {uniformised} vs Euler {euler}"
                    );
                }
            }
        }
    }
}

#[test]
fn sla_percentiles_are_pinned_to_six_digits() {
    let pinned: [(usize, f64, f64, f64); 5] = [
        (3, 0.9, 0.99, 15.885203),
        (3, 0.7, 0.99, 6.276755),
        (3, 0.7, 0.999, 9.019050),
        (8, 0.7, 0.99, 4.782358),
        (8, 0.7, 0.999, 7.085139),
    ];
    for (servers, rho, fraction, want) in pinned {
        let got = ResponseAnalysis::new(&paper_at(servers, rho))
            .unwrap()
            .response_time_percentile(fraction)
            .unwrap();
        assert!(
            (got - want).abs() <= 5e-7,
            "N = {servers}, ρ = {rho}, P{}: {got:.6} vs {want:.6}",
            1000.0 * fraction
        );
    }
}
