//! Cross-validation of the analytic solution methods.
//!
//! The spectral expansion and the matrix-geometric method obtain the repeating-level
//! rate matrix `R` independently — from the eigenpairs of the characteristic
//! polynomial versus logarithmic reduction — and share only the boundary elimination
//! that follows; the brute-force truncated CTMC shares nothing with either beyond the
//! generator matrices.  Agreement across all three is strong evidence that each of
//! them is implemented correctly.  The query engine serves the matrix-geometric
//! answers, so its queries are certified here against the spectral expansion too.

use unreliable_servers::core::{
    consistency_violations, CostModel, Engine, MatrixGeometricSolver, Query, QueryResult,
    QueueSolver, ResponseAnalysis, ResponseOptions, ServerClass, ServerLifecycle, SolverCache,
    SpectralExpansionSolver, SystemConfig, ThreadPool, TruncatedCtmcSolver, TruncatedOptions,
};
use unreliable_servers::dist::HyperExponential;

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
    let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
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
        let reference =
            ResponseAnalysis::from_solution(&config, spectral.as_ref(), ResponseOptions::default())
                .unwrap()
                .response_time_percentiles(&fractions)
                .unwrap();
        for ((fraction, got), want) in fractions.iter().zip(&report.percentiles).zip(&reference) {
            let gap = relative_gap(*got, *want);
            assert!(gap < 1e-8, "{name}: P{} off by {gap:e}", 100.0 * fraction);
        }
    }
}
