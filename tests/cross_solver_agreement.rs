//! Cross-validation of the analytic solution methods.
//!
//! The spectral expansion and the matrix-geometric method obtain the repeating-level
//! rate matrix `R` independently — from the eigenpairs of the characteristic
//! polynomial versus cyclic reduction — and share only the boundary elimination
//! that follows; the brute-force truncated CTMC shares nothing with either beyond the
//! generator matrices.  Agreement across all three is strong evidence that each of
//! them is implemented correctly.  The query engine serves the matrix-geometric
//! answers, so its queries are certified here against the spectral expansion too,
//! and its response-time percentiles against the Euler inversion of the transform.

use std::sync::Arc;

use unreliable_servers::core::{
    consistency_violations, invert_lst_cdf, ClassCostModel, CostModel, Engine,
    GeometricApproximation, GeometricSolution, InversionOptions, MatrixGeometricSolver, MixBounds,
    MixCandidate, MixSearch, QbdMatrices, Query, QueryResult, QueueSolution, QueueSolver,
    ResponseAnalysis, ResponseOptions, ServerClass, ServerLifecycle, SolverCache,
    SpectralExpansionSolver, SpectralOptions, SystemConfig, ThreadPool, TruncatedCtmcSolver,
    TruncatedOptions,
};
use unreliable_servers::dist::HyperExponential;
use unreliable_servers::linalg::QuadraticEigenProblem;

fn configs_under_test() -> Vec<(&'static str, SystemConfig)> {
    let paper = ServerLifecycle::paper_fitted().unwrap();
    let exponential = ServerLifecycle::exponential(0.1, 1.0).unwrap();
    let two_phase_repair = ServerLifecycle::new(
        HyperExponential::new(&[0.7246, 0.2754], &[0.1663, 0.0091]).unwrap(),
        HyperExponential::new(&[0.9303, 0.0697], &[25.0043, 1.6346]).unwrap(),
    );
    let mixed_fleet = vec![
        ServerClass::new(2, 1.5, paper.clone()).unwrap(),
        ServerClass::new(2, 1.0, exponential.clone()).unwrap(),
    ];
    vec![
        ("single server", SystemConfig::new(1, 0.5, 1.0, paper.clone()).unwrap()),
        ("paper lifecycle, light load", SystemConfig::new(3, 1.5, 1.0, paper.clone()).unwrap()),
        ("paper lifecycle, heavy load", SystemConfig::new(4, 3.6, 1.0, paper.clone()).unwrap()),
        ("paper lifecycle, N = 12", SystemConfig::new(12, 8.5, 1.0, paper).unwrap()),
        ("exponential lifecycle", SystemConfig::new(3, 2.0, 1.0, exponential).unwrap()),
        (
            "two-phase repairs (n = 2, m = 2)",
            SystemConfig::new(3, 2.2, 1.0, two_phase_repair).unwrap(),
        ),
        ("two-class mixed fleet", SystemConfig::heterogeneous(3.0, mixed_fleet).unwrap()),
    ]
}

#[test]
fn spectral_and_matrix_geometric_agree_on_every_probability() {
    for (name, config) in configs_under_test() {
        let spectral = SpectralExpansionSolver::default().solve(&config).unwrap();
        let matrix_geometric = MatrixGeometricSolver::default().solve(&config).unwrap();
        assert!(
            (spectral.mean_queue_length() - matrix_geometric.mean_queue_length()).abs()
                / spectral.mean_queue_length()
                < 1e-7,
            "{name}: L {} vs {}",
            spectral.mean_queue_length(),
            matrix_geometric.mean_queue_length()
        );
        for level in 0..40 {
            assert!(
                (spectral.level_probability(level) - matrix_geometric.level_probability(level))
                    .abs()
                    < 1e-10,
                "{name}: level {level}"
            );
        }
        for mode in 0..spectral.mode_count() {
            for level in [0, 1, config.servers(), config.servers() + 3] {
                assert!(
                    (spectral.state_probability(mode, level)
                        - matrix_geometric.state_probability(mode, level))
                    .abs()
                        < 1e-10,
                    "{name}: state ({mode}, {level})"
                );
            }
        }
    }
}

#[test]
fn analytic_solutions_match_the_truncated_reference() {
    // Use a light-load configuration so a modest truncation captures essentially all of
    // the probability mass.
    let lifecycle = ServerLifecycle::exponential(0.25, 1.25).unwrap();
    let config = SystemConfig::new(2, 1.0, 1.0, lifecycle).unwrap();
    let spectral = SpectralExpansionSolver::default().solve(&config).unwrap();
    let truncated = TruncatedCtmcSolver::new(TruncatedOptions {
        max_level: 150,
        ..TruncatedOptions::default()
    })
    .solve(&config)
    .unwrap();
    assert!(
        (spectral.mean_queue_length() - truncated.mean_queue_length()).abs() < 1e-4,
        "L {} vs {}",
        spectral.mean_queue_length(),
        truncated.mean_queue_length()
    );
    for level in 0..30 {
        assert!(
            (spectral.level_probability(level) - truncated.level_probability(level)).abs() < 1e-6,
            "level {level}: {} vs {}",
            spectral.level_probability(level),
            truncated.level_probability(level)
        );
    }
}

#[test]
fn every_solver_produces_an_internally_consistent_solution() {
    let lifecycle = ServerLifecycle::paper_fitted().unwrap();
    let config = SystemConfig::new(4, 3.0, 1.0, lifecycle).unwrap();
    let solvers: Vec<Box<dyn QueueSolver>> = vec![
        Box::new(SpectralExpansionSolver::default()),
        Box::new(MatrixGeometricSolver::default()),
        Box::new(TruncatedCtmcSolver::new(TruncatedOptions {
            max_level: 250,
            ..TruncatedOptions::default()
        })),
    ];
    for solver in solvers {
        let solution = solver.solve(&config).unwrap();
        let violations = consistency_violations(solution.as_ref(), 60, 1e-6);
        assert!(violations.is_empty(), "{}: {violations:?}", solver.name());
    }
}

#[test]
fn larger_systems_remain_solvable_and_consistent() {
    // N = 12 with n = 2, m = 1 gives s = 91 operational modes — a realistic size for the
    // paper's figures (which go up to N = 17).
    let lifecycle = ServerLifecycle::paper_fitted().unwrap();
    let config = SystemConfig::new(12, 10.0, 1.0, lifecycle).unwrap();
    let spectral = SpectralExpansionSolver::default().solve(&config).unwrap();
    let mg = MatrixGeometricSolver::default().solve(&config).unwrap();
    assert!(
        (spectral.mean_queue_length() - mg.mean_queue_length()).abs() / mg.mean_queue_length()
            < 1e-6
    );
    assert!(consistency_violations(spectral.as_ref(), 80, 1e-6).is_empty());
}

fn relative_gap(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs()
}

/// The spectral mean queue length of `config` scaled to `servers`.
fn spectral_mean(config: &SystemConfig, servers: usize) -> f64 {
    let scaled = config.with_total_servers(servers).unwrap();
    SpectralExpansionSolver::default().solve(&scaled).unwrap().mean_queue_length()
}

#[test]
fn engine_answers_agree_with_spectral_expansion() {
    let paper = ServerLifecycle::paper_fitted().unwrap();
    let hyperexponential = ServerLifecycle::new(
        HyperExponential::new(&[0.7246, 0.2754], &[0.1663, 0.0091]).unwrap(),
        HyperExponential::new(&[0.9303, 0.0697], &[25.0043, 1.6346]).unwrap(),
    );
    let mixed_fleet = vec![
        ServerClass::new(2, 1.5, paper.clone()).unwrap(),
        ServerClass::new(2, 1.0, ServerLifecycle::exponential(0.1, 1.0).unwrap()).unwrap(),
    ];
    let configs = [
        ("paper lifecycle, N = 3", SystemConfig::new(3, 2.0, 1.0, paper.clone()).unwrap()),
        ("paper lifecycle, N = 6", SystemConfig::new(6, 4.2, 1.0, paper.clone()).unwrap()),
        ("paper lifecycle, N = 12", SystemConfig::new(12, 8.5, 1.0, paper).unwrap()),
        ("hyperexponential lifecycle", SystemConfig::new(4, 2.8, 1.0, hyperexponential).unwrap()),
        ("two-class mixed fleet", SystemConfig::heterogeneous(3.0, mixed_fleet).unwrap()),
    ];
    // The engine's default pool (`URS_THREADS` or every core): its sweeps fan their
    // grid points out across it.
    let engine = Engine::new();
    let tolerance = 1e-10;
    for (name, config) in configs {
        let servers = config.servers();
        let execute = |query: Query| engine.execute(&query).unwrap();

        let QueryResult::Solution(solution) = execute(Query::Solve { config: config.clone() })
        else {
            panic!("{name}: expected a solution")
        };
        let gap = relative_gap(solution.mean_queue_length, spectral_mean(&config, servers));
        assert!(gap < tolerance, "{name}: solve L off by {gap:e}");

        let (min_servers, max_servers) = (servers, servers + 2);
        let QueryResult::CostSweep(sweep) = execute(Query::CostSweep {
            config: config.clone(),
            cost: CostModel::paper_figure5(),
            min_servers,
            max_servers,
        }) else {
            panic!("{name}: expected a cost sweep")
        };
        assert_eq!(sweep.points().len(), 3, "{name}: every count is stable");
        for point in sweep.points() {
            let gap = relative_gap(point.mean_queue_length, spectral_mean(&config, point.servers));
            assert!(
                gap < tolerance,
                "{name}: cost sweep L at N = {} off by {gap:e}",
                point.servers
            );
        }

        let QueryResult::Provisioning(sweep) =
            execute(Query::Provisioning { config: config.clone(), min_servers, max_servers })
        else {
            panic!("{name}: expected a provisioning sweep")
        };
        assert_eq!(sweep.points().len(), 3, "{name}: every count is stable");
        for point in sweep.points() {
            let gap = relative_gap(point.mean_queue_length, spectral_mean(&config, point.servers));
            assert!(
                gap < tolerance,
                "{name}: provisioning L at N = {} off by {gap:e}",
                point.servers
            );
        }

        // The response-time transform requires identical servers (see `response`).
        if !config.is_homogeneous() {
            continue;
        }
        let fractions = vec![0.5, 0.9, 0.99];
        let QueryResult::Percentiles(report) =
            execute(Query::Percentiles { config: config.clone(), fractions: fractions.clone() })
        else {
            panic!("{name}: expected percentiles")
        };
        let spectral = SpectralExpansionSolver::default().solve(&config).unwrap();
        let analysis =
            ResponseAnalysis::from_solution(&config, spectral.as_ref(), ResponseOptions::default())
                .unwrap();
        let reference = analysis.response_time_percentiles(&fractions).unwrap();
        for ((fraction, got), want) in fractions.iter().zip(&report.percentiles).zip(&reference) {
            let gap = relative_gap(*got, *want);
            assert!(gap < 1e-8, "{name}: P{} off by {gap:e}", 100.0 * fraction);
            // The independent certifier: Euler inversion of the response-time
            // transform of the spectral solution reads the fraction back.
            let euler =
                invert_lst_cdf(|s| analysis.lst(s), *got, &InversionOptions::default()).unwrap();
            assert!((euler - fraction).abs() < 1e-7, "{name}: F(P{}) = {euler}", 100.0 * fraction);
        }
    }
}

/// The mode chain is reversible, so the characteristic polynomial is hyperbolic: its
/// in-disk roots are real, lie in `(0, 1)`, and the negative pivots of one unpivoted
/// LU of `−K(z)` count the roots above `z` (see the `spectral` module docs).  On every
/// certifier case spectrum slicing returns `s` distinct roots in `(0, 1)`, each
/// certified against `R` from the matrix-geometric cyclic reduction, which shares no
/// code with slicing: the root's left eigenvector satisfies `u_k·R = z_k·u_k`.  The
/// count at `z = 0.6`, where the hyperexponential lifecycle at ρ = 0.3 meets an exact
/// zero first pivot, still matches the roots above it.
#[test]
fn in_disk_eigenvalues_are_real() {
    let margin = SpectralOptions::default().unit_disk_margin;
    let mg = MatrixGeometricSolver::default();
    let mut worst = 0.0_f64;
    for config in certifier_cases() {
        let qbd = QbdMatrices::new(&config).unwrap();
        let problem = QuadraticEigenProblem::new(qbd.q0(), qbd.q1(), qbd.q2()).unwrap();
        let inside = problem.eigenvalues_inside_unit_disk(margin).unwrap();
        assert_eq!(inside.len(), qbd.order(), "{config:?}: in-disk root count");
        assert!(inside.iter().all(|e| e.z.im == 0.0), "{config:?}: a root is not real");
        let roots: Vec<f64> = inside.iter().map(|e| e.z.re).collect();
        assert!(roots.windows(2).all(|w| w[0] < w[1]), "{config:?}: roots not distinct");
        assert!(roots[0] > 0.0 && roots[roots.len() - 1] < 1.0, "{config:?}: {roots:?}");
        let r = mg.rate_matrix(&qbd).unwrap();
        let scale = r.max_abs().max(1.0);
        for &z in &roots {
            let u = problem.real_left_eigenvector(z).unwrap();
            let residual = r
                .vecmat(&u)
                .unwrap()
                .iter()
                .zip(&u)
                .map(|(ur, u)| (ur - z * u).abs())
                .fold(0.0, f64::max);
            assert!(residual <= 1e-8 * scale, "{config:?}: ‖u·R − z·u‖ = {residual:e} at {z}");
            worst = worst.max(residual / scale);
        }
        // Each root is the upper end of a bracket 4 ulps wide, so one that close to
        // 0.6 may count either way.
        let count = problem.caudal_family().unwrap().roots_above(0.6).unwrap();
        let surely_above = roots.iter().filter(|r| **r * (1.0 - 4.0 * f64::EPSILON) > 0.6).count();
        let above = roots.iter().filter(|r| **r > 0.6).count();
        assert!((surely_above..=above).contains(&count), "{config:?}: {count} roots above 0.6");
    }
    println!("‖u·R − z·u‖∞ ≤ {worst:.1e}·max(1, ‖R‖)");
}

/// The four server classes of the benchmark's `large-fleet` mix search: service rate
/// `1 + 0.3j`, price `1 + 0.4j`, exponential lifecycle with breakdown rate
/// `0.05 + 0.05j` and repair rate 1.
fn large_fleet_classes() -> (Vec<ServerClass>, ClassCostModel) {
    let classes = (0..4)
        .map(|j| {
            let j = f64::from(j);
            let lifecycle = ServerLifecycle::exponential(0.05 + 0.05 * j, 1.0).unwrap();
            ServerClass::new(1, 1.0 + 0.3 * j, lifecycle).unwrap()
        })
        .collect();
    let cost = ClassCostModel::new(4.0, (0..4).map(|j| 1.0 + 0.4 * f64::from(j)).collect());
    (classes, cost.unwrap())
}

/// Every case of the root-search certificate: the paper and a hyperexponential
/// (mean 10, SCV 8) lifecycle at N = 1..16 and ρ ∈ {0.3, 0.7, 0.9, 0.99}, a two-class
/// fleet and the four `large-fleet` classes together.
fn certifier_cases() -> Vec<SystemConfig> {
    let paper = ServerLifecycle::paper_fitted().unwrap();
    let hyper = ServerLifecycle::with_exponential_repair(
        HyperExponential::with_mean_and_scv(10.0, 8.0).unwrap(),
        0.5,
    )
    .unwrap();
    let at_utilisation = |config: SystemConfig, rho: f64| {
        let lambda = rho * config.effective_capacity();
        config.with_arrival_rate(lambda).unwrap()
    };
    let mut cases = Vec::new();
    for lifecycle in [&paper, &hyper] {
        for servers in 1..=16 {
            for rho in [0.3, 0.7, 0.9, 0.99] {
                let config = SystemConfig::new(servers, 1.0, 1.0, lifecycle.clone()).unwrap();
                cases.push(at_utilisation(config, rho));
            }
        }
    }
    let two_class = SystemConfig::heterogeneous(
        1.0,
        vec![
            ServerClass::new(2, 1.5, paper).unwrap(),
            ServerClass::new(3, 1.0, ServerLifecycle::exponential(0.1, 1.0).unwrap()).unwrap(),
        ],
    )
    .unwrap();
    let (large_fleet, _) = large_fleet_classes();
    let large_fleet = SystemConfig::heterogeneous(
        1.0,
        large_fleet.iter().zip([2, 2, 1, 2]).map(|(c, n)| c.with_count(n).unwrap()).collect(),
    )
    .unwrap();
    for rho in [0.3, 0.7, 0.9, 0.99] {
        cases.push(at_utilisation(two_class.clone(), rho));
        cases.push(at_utilisation(large_fleet.clone(), rho));
    }
    cases
}

/// The geometric approximation's root search, certified against `R` from the
/// matrix-geometric cyclic reduction: `R ≥ 0` has Perron root `η`, which by the
/// Collatz–Wielandt formula lies between the smallest and the largest ratio
/// `(u·R)ᵢ/uᵢ` at any positive `u`.  At the search's mode vector `η` lies in that
/// interval to `1e-13·η`, and `‖u·R − η·u‖₁ ≤ 1e-12·η`.  (The interval itself is not
/// narrow: modes with tiny stationary mass carry tiny `uᵢ`, whose relative error in
/// `u` and `R` reaches 1e-9 at N ≥ 7.)  Spectral expansion's dominant root, from
/// spectrum slicing, agrees with `η` to within the two searches' brackets, `8·ε·η`.
#[test]
fn root_search_agrees_with_the_cyclic_reduction() {
    let cases = certifier_cases();
    let cache = SolverCache::shared();
    let approx = GeometricApproximation::default().with_cache(Arc::clone(&cache));
    let solve_all = |threads: usize| -> Vec<GeometricSolution> {
        ThreadPool::new(threads).try_par_map(&cases, |c| approx.solve_detailed(c)).unwrap()
    };
    let serial = solve_all(1);
    let mg = MatrixGeometricSolver::default().with_cache(Arc::clone(&cache));
    let spectral = SpectralExpansionSolver::default().with_cache(Arc::clone(&cache));
    let (mut worst_spectral, mut most_steps) = (0.0_f64, 0);
    let (mut farthest, mut worst_residual) = (0.0_f64, 0.0_f64);
    for (config, solution) in cases.iter().zip(&serial) {
        let name = format!("N = {}, λ = {}", config.servers(), config.arrival_rate());
        let eta = solution.decay_rate();
        let u = solution.mode_marginal();
        assert!(u.iter().all(|p| *p > 0.0), "{name}: {u:?}");
        let qbd = QbdMatrices::new(config).unwrap();
        let ur = mg.rate_matrix(&qbd).unwrap().vecmat(&u).unwrap();
        let ratios = ur.iter().zip(&u).map(|(ur, u)| ur / u);
        let low = ratios.clone().fold(f64::INFINITY, f64::min);
        let high = ratios.fold(0.0, f64::max);
        let outside = (low - eta).max(eta - high).max(0.0) / eta;
        let residual: f64 = ur.iter().zip(&u).map(|(ur, u)| (ur - eta * u).abs()).sum();
        assert!(outside <= 1e-13, "{name}: η {eta} outside [{low}, {high}]");
        assert!(residual <= 1e-12 * eta, "{name}: ‖u·R − η·u‖₁ = {residual:e}");
        farthest = farthest.max(outside);
        worst_residual = worst_residual.max(residual / eta);
        let dominant = spectral.solve_detailed(config).unwrap().dominant_eigenvalue();
        let gap = (dominant - eta).abs();
        assert!(gap <= 8.0 * f64::EPSILON * eta, "{name}: spectral {dominant} vs η {eta}");
        assert!(solution.search_steps() <= 64, "{name}: {} steps", solution.search_steps());
        worst_spectral = worst_spectral.max(gap / eta);
        most_steps = most_steps.max(solution.search_steps());
    }
    let mean_steps =
        serial.iter().map(|s| s.search_steps() as f64).sum::<f64>() / serial.len() as f64;
    println!(
        "{} cases: η outside the Collatz–Wielandt interval by ≤ {farthest:.1e}·η, \
         ‖u·R − η·u‖₁ ≤ {worst_residual:.1e}·η, spectral ≤ {worst_spectral:.1e}·η, \
         steps ≤ {most_steps} (mean {mean_steps:.1})",
        cases.len()
    );
    // The search is serial per configuration and deterministic: any pool, cached or
    // not, reproduces it bit for bit, work counter included.
    for threads in [2, 3, 8] {
        assert_eq!(solve_all(threads), serial, "{threads} threads changed a solution");
    }
    let uncached = GeometricApproximation::default();
    for (config, cached) in cases.iter().zip(&serial).step_by(7) {
        assert_eq!(&uncached.solve_detailed(config).unwrap(), cached);
    }
}

#[test]
fn pruned_mix_search_returns_the_exhaustive_optimum() {
    // `Debug` prints every f64 in its shortest round-trip form, so equal strings mean
    // equal counts, L bits and cost bits.
    let (classes, cost) = large_fleet_classes();
    for arrival_rate in [3.5, 4.0, 4.5] {
        let bounds = MixBounds::up_to(7).unwrap();
        let search = MixSearch::new(arrival_rate, classes.clone(), cost.clone(), bounds).unwrap();
        let cache = SolverCache::shared();
        let result = search.clone().with_cache(Arc::clone(&cache)).run().unwrap();
        let exhaustive = search.run_exhaustive().unwrap();
        let name = format!("λ = {arrival_rate}");
        assert!(result.was_screened(), "{name}: {} candidates", result.candidates());
        assert_eq!(format!("{:?}", result.optimum()), format!("{:?}", exhaustive.optimum()));
        let optimum = result.optimum().expect("a stable mix exists");
        assert!(arrival_rate != 4.0 || optimum.counts() == [1, 0, 1, 3], "{name}");
        // The bound holds on every stable candidate, and the pruned ranking is the
        // exhaustive one cut to the candidates the bound could not rule out.
        let bound = |c: &&MixCandidate| {
            let l_rel = search.queue_length_bound(c.counts());
            assert!(l_rel <= c.mean_queue_length(), "{name} {:?}: {l_rel}", c.counts());
            search.cost_model().evaluate(l_rel, c.counts()) <= optimum.cost()
        };
        let expected: Vec<&MixCandidate> = exhaustive.ranked().iter().filter(bound).collect();
        assert_eq!(format!("{:?}", result.ranked()), format!("{expected:?}"), "{name}");
        let stable = result.candidates() - result.skipped_unstable();
        // One skeleton per composition, built once per exact solve.
        let skeletons = cache.stats();
        assert_eq!(skeletons.hits, 0, "{name}");
        let solves = skeletons.misses;
        println!("{name}: {solves} of {stable} stable candidates solved, optimum {optimum:?}");
    }
}
