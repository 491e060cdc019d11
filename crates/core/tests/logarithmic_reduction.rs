//! Equivalence guarantees for the cyclic-reduction `R`-matrix solver.
//!
//! [`MatrixGeometricSolver`] computes `R` by symmetric cyclic reduction (it replaced
//! Latouche–Ramaswamy logarithmic reduction, which replaced the natural fixed-point
//! iteration).  Each rewrite must be a pure speed change: the `R` matrix, and
//! everything derived from it, has to agree with the fixed-point iteration (retained
//! as [`MatrixGeometricSolver::rate_matrix_fixed_point`]) to solver tolerance on
//! arbitrary stable configurations — homogeneous and heterogeneous, hyperexponential
//! on both periods, and loads up to `ρ = 0.999` — must satisfy the defining equation
//! `λI + R·Q1 + R²·C = 0` to rounding level, and the full solution has to keep
//! matching the spectral expansion, including at the `N = 24` heterogeneous scale.

use proptest::prelude::*;
use urs_core::{
    MatrixGeometricOptions, MatrixGeometricSolver, QbdMatrices, QueueSolution, ServerClass,
    ServerLifecycle, SpectralExpansionSolver, SystemConfig, ThreadPool,
};
use urs_dist::HyperExponential;

fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
    SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
}

/// A genuinely mixed two-class fleet of `2·half` servers with exponential lifecycles
/// (small per-class phase spaces, so the product mode space stays `(half+1)²`).
fn mixed_fleet(half: usize, lambda: f64) -> SystemConfig {
    SystemConfig::heterogeneous(
        lambda,
        vec![
            ServerClass::new(half, 1.4, ServerLifecycle::exponential(0.05, 1.0).unwrap()).unwrap(),
            ServerClass::new(half, 0.8, ServerLifecycle::exponential(0.02, 0.5).unwrap()).unwrap(),
        ],
    )
    .unwrap()
}

#[test]
fn reduction_and_fixed_point_agree_on_the_paper_model() {
    for (servers, lambda) in [(2usize, 1.0), (3, 2.0), (4, 3.3), (5, 2.5)] {
        let qbd = QbdMatrices::new(&paper_config(servers, lambda)).unwrap();
        let solver = MatrixGeometricSolver::default();
        let (lr, depth) = solver.rate_matrix_with_depth(&qbd).unwrap();
        let (fp, iterations) = solver.rate_matrix_fixed_point(&qbd).unwrap();
        let diff = (&lr - &fp).max_abs();
        assert!(diff < 1e-10, "N={servers}, λ={lambda}: |R_lr − R_fp| = {diff}");
        assert!(
            depth <= iterations,
            "cyclic reduction ({depth}) must not need more steps than \
             the fixed point ({iterations})"
        );
    }
}

#[test]
fn reduction_and_fixed_point_agree_on_mixed_fleets() {
    let qbd = QbdMatrices::new(&mixed_fleet(3, 4.0)).unwrap();
    let solver = MatrixGeometricSolver::default();
    let (lr, _) = solver.rate_matrix_with_depth(&qbd).unwrap();
    let (fp, _) = solver.rate_matrix_fixed_point(&qbd).unwrap();
    assert!((&lr - &fp).max_abs() < 1e-10);
    // Both must satisfy the defining quadratic to solver accuracy.
    let residual = &(&qbd.q0() + &lr.matmul(&qbd.q1()).unwrap())
        + &lr.matmul(&lr).unwrap().matmul(&qbd.q2()).unwrap();
    assert!(residual.max_abs() < 1e-10, "residual {}", residual.max_abs());
}

/// `‖λI + R·Q1 + R²·C‖∞`, the residual of the equation `R` solves.
fn quadratic_residual(qbd: &QbdMatrices, r: &urs_linalg::Matrix) -> f64 {
    let residual = &(&qbd.q0() + &r.matmul(&qbd.q1()).unwrap())
        + &r.matmul(r).unwrap().matmul(&qbd.q2()).unwrap();
    residual.inf_norm()
}

#[test]
fn reduction_is_exact_near_saturation_on_every_lifecycle_and_fleet() {
    let paper = ServerLifecycle::paper_fitted().unwrap();
    let h2h2 = ServerLifecycle::new(
        HyperExponential::new(&[0.7246, 0.2754], &[0.1663, 0.0091]).unwrap(),
        HyperExponential::new(&[0.9303, 0.0697], &[25.0043, 1.6346]).unwrap(),
    );
    // The reference iteration converges linearly, at a rate that tends to 1 with
    // the load: a per-step change below 1e-16 keeps its own error under 1e-12.
    // Near saturation the equation itself is ill-conditioned — at ρ = 0.999 on the
    // mixed fleet, matrices with residuals of 4e-15 lie 4e-12 apart, and the
    // fixed point and the parent logarithmic reduction differ by 3.7e-12 — so the
    // agreement bound grows as 1/(1 − ρ) beyond ρ = 0.99.
    let reference = MatrixGeometricSolver::new(MatrixGeometricOptions {
        tolerance: 1e-16,
        max_iterations: 100_000,
    });
    let solver = MatrixGeometricSolver::default();
    // `ThreadPool::default()` reads URS_THREADS, so CI runs this at 1 and 4 workers.
    let pooled = MatrixGeometricSolver::default().with_pool(ThreadPool::default());
    let bits =
        |m: &urs_linalg::Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for rho in [0.9, 0.99, 0.999] {
        let mut configs = Vec::new();
        for servers in [3usize, 5] {
            let lambda = rho * servers as f64 * paper.availability();
            configs.push(SystemConfig::new(servers, lambda, 1.0, paper.clone()).unwrap());
        }
        let lambda = rho * 3.0 * h2h2.availability();
        configs.push(SystemConfig::new(3, lambda, 1.0, h2h2.clone()).unwrap());
        // Capacity of the mixed fleet: Σ count·µ·availability over its two classes.
        let capacity = 2.0 * 1.4 / 1.05 + 2.0 * 0.8 * 0.5 / 0.52;
        configs.push(mixed_fleet(2, rho * capacity));
        for config in configs {
            let qbd = QbdMatrices::new(&config).unwrap();
            let (r, depth) = solver.rate_matrix_with_depth(&qbd).unwrap();
            let residual = quadratic_residual(&qbd, &r);
            let label = format!("s = {}, ρ = {rho}, depth {depth}", qbd.order());
            let (pooled_r, pooled_depth) = pooled.rate_matrix_with_depth(&qbd).unwrap();
            assert_eq!((bits(&r), depth), (bits(&pooled_r), pooled_depth), "{label}: pooled");
            assert!(residual <= 1e-13, "{label}: residual {residual:e}");
            if let Ok((fixed_point, _)) = reference.rate_matrix_fixed_point(&qbd) {
                let gap = (&r - &fixed_point).max_abs();
                let bound = 1e-12 * (0.01 / (1.0 - rho)).max(1.0);
                assert!(gap <= bound, "{label}: |R − R_fp| = {gap:e}");
            }
        }
    }
}

/// Mean number in an M/M/c queue with offered load `a = λ/µ` (Erlang C).
fn erlang_c_mean_number(servers: usize, load: f64) -> f64 {
    let mut blocking = 1.0;
    for k in 1..=servers {
        blocking = load * blocking / (k as f64 + load * blocking);
    }
    let rho = load / servers as f64;
    let waiting = blocking / (1.0 - rho * (1.0 - blocking));
    load + waiting * rho / (1.0 - rho)
}

#[test]
fn reduction_symmetrises_stationary_distributions_spanning_hundreds_of_decades() {
    // Servers that fail 1e12 times less often than they are repaired: with 60 of
    // them the all-down mode has probability ~1e-720, and with 120 the symmetrising
    // weights span e^1658 — beyond the floating-point range, yet the reduction,
    // which only forms weight ratios from their logarithms, maps back exactly, and
    // the queue is M/N/N to within the breakdowns' effect.
    let lifecycle = ServerLifecycle::exponential(1e-9, 1e3).unwrap();
    for servers in [60, 120] {
        let load = 0.7 * servers as f64 * lifecycle.availability();
        let config = SystemConfig::new(servers, load, 1.0, lifecycle.clone()).unwrap();
        let solution = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
        let expected = erlang_c_mean_number(servers, load);
        let gap = (solution.mean_queue_length() - expected).abs() / expected;
        assert!(
            gap < 1e-9,
            "N = {servers}: L = {} vs M/M/{servers} {expected}: {gap:e}",
            solution.mean_queue_length()
        );
    }
}

#[test]
fn cross_solver_agreement_at_n24_heterogeneous() {
    // 24 servers in two classes: a 13×13 = 169-mode product space.  The point of the
    // kernel rewrite is that *both* exact solvers handle this comfortably and still
    // agree with each other.
    let config = mixed_fleet(12, 18.0);
    assert_eq!(config.servers(), 24);
    let mg = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
    let spectral = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
    let rel = (mg.mean_queue_length() - spectral.mean_queue_length()).abs()
        / spectral.mean_queue_length();
    assert!(rel < 1e-7, "mean queue length disagreement: {rel}");
    for level in 0..40 {
        assert!(
            (mg.level_probability(level) - spectral.level_probability(level)).abs() < 1e-8,
            "level {level}"
        );
    }
    // Observability: the reduction depth is reported and small (quadratic convergence).
    assert!(mg.reduction_depth() > 0 && mg.reduction_depth() < 64);
    // At s = 169 the kernels split into bands on a multi-worker pool, and the
    // pooled reduction must still reproduce the serial one bit for bit.
    let qbd = QbdMatrices::new(&config).unwrap();
    let pooled = MatrixGeometricSolver::default().with_pool(ThreadPool::default());
    let (r, depth) = pooled.rate_matrix_with_depth(&qbd).unwrap();
    assert_eq!(depth, mg.reduction_depth());
    let bits =
        |m: &urs_linalg::Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r), bits(mg.rate_matrix()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On random stable homogeneous configurations the two R algorithms coincide and
    /// the reduction is never slower (in iteration count) than the fixed point.
    #[test]
    fn reduction_matches_fixed_point_on_random_configs(
        servers in 1usize..5,
        utilisation in 0.2_f64..0.9,
    ) {
        let lifecycle = ServerLifecycle::paper_fitted().unwrap();
        let lambda = utilisation * servers as f64 * lifecycle.availability();
        let config = SystemConfig::new(servers, lambda, 1.0, lifecycle).unwrap();
        let qbd = QbdMatrices::new(&config).unwrap();
        let solver = MatrixGeometricSolver::default();
        let (lr, depth) = solver.rate_matrix_with_depth(&qbd).unwrap();
        let (fp, iterations) = solver.rate_matrix_fixed_point(&qbd).unwrap();
        prop_assert!((&lr - &fp).max_abs() < 1e-9);
        prop_assert!(depth <= iterations);
    }
}
