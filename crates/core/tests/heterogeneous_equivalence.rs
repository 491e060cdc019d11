//! Heterogeneous-server-class equivalence and cache-sharing guarantees.
//!
//! 1. Splitting a homogeneous fleet into several classes with *identical* parameters
//!    must reproduce the homogeneous solution **bit for bit** for every solver: the
//!    canonicalisation in [`SystemConfig::heterogeneous`] merges equal classes, so the
//!    solvers see exactly the homogeneous model.
//! 2. Genuinely mixed classes must agree *across* solvers (spectral vs
//!    matrix-geometric vs truncated CTMC) and with the product-form environment
//!    distribution.
//! 3. Sharing one [`SolverCache`] between the spectral solver and the geometric
//!    approximation must build each QBD skeleton once between them (the fig8/fig9
//!    pattern), bit-identically.

use std::sync::Arc;

use urs_core::{
    consistency_violations, sweeps::queue_length_vs_load_with, GeometricApproximation,
    MatrixGeometricSolver, ModeSpace, QbdMatrices, QueueSolution, ServerClass, ServerLifecycle,
    SolverCache, SpectralExpansionSolver, SystemConfig, ThreadPool, TruncatedCtmcSolver,
    TruncatedOptions,
};

fn paper_lifecycle() -> ServerLifecycle {
    ServerLifecycle::paper_fitted().unwrap()
}

/// A 6-server homogeneous configuration and the same fleet split into three
/// equal-parameter classes.
fn split_pair(lambda: f64) -> (SystemConfig, SystemConfig) {
    let homogeneous = SystemConfig::new(6, lambda, 1.0, paper_lifecycle()).unwrap();
    let split = SystemConfig::heterogeneous(
        lambda,
        vec![
            ServerClass::new(2, 1.0, paper_lifecycle()).unwrap(),
            ServerClass::new(1, 1.0, paper_lifecycle()).unwrap(),
            ServerClass::new(3, 1.0, paper_lifecycle()).unwrap(),
        ],
    )
    .unwrap();
    (homogeneous, split)
}

/// A genuinely mixed two-class configuration with a small product mode space.
fn mixed_config(lambda: f64) -> SystemConfig {
    SystemConfig::heterogeneous(
        lambda,
        vec![
            ServerClass::new(3, 1.5, ServerLifecycle::exponential(0.05, 1.0).unwrap()).unwrap(),
            ServerClass::new(3, 1.0, ServerLifecycle::exponential(0.02, 0.5).unwrap()).unwrap(),
        ],
    )
    .unwrap()
}

#[test]
fn equal_parameter_classes_canonicalise_to_the_homogeneous_config() {
    let (homogeneous, split) = split_pair(4.0);
    assert_eq!(homogeneous, split, "equal classes must merge into the homogeneous config");
    assert!(split.is_homogeneous());
    assert_eq!(split.servers(), 6);
    assert_eq!(split.environment_states(), homogeneous.environment_states());
}

#[test]
fn equal_rate_classes_bit_match_homogeneous_spectral() {
    let (homogeneous, split) = split_pair(4.5);
    let solver = SpectralExpansionSolver::default();
    let a = solver.solve_detailed(&homogeneous).unwrap();
    let b = solver.solve_detailed(&split).unwrap();
    assert_eq!(a.mean_queue_length().to_bits(), b.mean_queue_length().to_bits());
    assert_eq!(a.dominant_eigenvalue().to_bits(), b.dominant_eigenvalue().to_bits());
    for level in 0..40 {
        assert_eq!(
            a.level_probability(level).to_bits(),
            b.level_probability(level).to_bits(),
            "level {level}"
        );
    }
}

#[test]
fn equal_rate_classes_bit_match_homogeneous_matrix_geometric() {
    let (homogeneous, split) = split_pair(4.5);
    let solver = MatrixGeometricSolver::default();
    let a = solver.solve_detailed(&homogeneous).unwrap();
    let b = solver.solve_detailed(&split).unwrap();
    assert_eq!(a.mean_queue_length().to_bits(), b.mean_queue_length().to_bits());
    for level in 0..40 {
        assert_eq!(
            a.level_probability(level).to_bits(),
            b.level_probability(level).to_bits(),
            "level {level}"
        );
    }
}

#[test]
fn equal_rate_classes_bit_match_homogeneous_approximation() {
    let (homogeneous, split) = split_pair(5.2);
    let solver = GeometricApproximation::default();
    let a = solver.solve_detailed(&homogeneous).unwrap();
    let b = solver.solve_detailed(&split).unwrap();
    assert_eq!(a.decay_rate().to_bits(), b.decay_rate().to_bits());
    let (ma, mb) = (a.mode_marginal(), b.mode_marginal());
    assert_eq!(ma.len(), mb.len());
    for (x, y) in ma.iter().zip(&mb) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn product_mode_space_has_the_expected_structure() {
    let config = mixed_config(4.0);
    let modes = ModeSpace::for_classes(config.classes()).unwrap();
    // Exponential lifecycles: n = m = 1 per class, so each class contributes
    // C(3+1, 1) = 4 occupancy vectors and the product space has 16 modes.
    assert_eq!(modes.len(), 16);
    assert_eq!(modes.len(), config.environment_states());
    assert_eq!(modes.class_count(), 2);
    assert_eq!(modes.class_servers(0) + modes.class_servers(1), 6);
    for (i, mode) in modes.iter().enumerate() {
        assert_eq!(mode.total_servers(), 6);
        let per_class: usize = (0..2).map(|c| modes.class_operative_count(i, c)).sum::<usize>();
        assert_eq!(per_class, mode.operative_count());
    }
    // The stationary distribution is the product of per-class multinomials: it must
    // sum to 1 and reproduce Σ_c N_c·a_c.
    let pi = modes.stationary_distribution_classes(config.classes());
    assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    let expected_operative: f64 =
        pi.iter().enumerate().map(|(i, p)| p * modes.mode(i).operative_count() as f64).sum();
    assert!((expected_operative - config.effective_servers()).abs() < 1e-9);
}

#[test]
fn mixed_classes_agree_across_all_solvers() {
    let config = mixed_config(5.0);
    assert!(config.is_stable());
    let spectral = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
    assert!(consistency_violations(&spectral, 60, 1e-7).is_empty());

    let mg = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
    assert!(
        (spectral.mean_queue_length() - mg.mean_queue_length()).abs()
            / spectral.mean_queue_length()
            < 1e-8,
        "spectral {} vs matrix-geometric {}",
        spectral.mean_queue_length(),
        mg.mean_queue_length()
    );
    for level in 0..30 {
        assert!(
            (spectral.level_probability(level) - mg.level_probability(level)).abs() < 1e-9,
            "level {level}"
        );
    }

    let truncated = TruncatedCtmcSolver::new(TruncatedOptions {
        max_level: 250,
        ..TruncatedOptions::default()
    })
    .solve_detailed(&config)
    .unwrap();
    assert!(
        (spectral.mean_queue_length() - truncated.mean_queue_length()).abs()
            / spectral.mean_queue_length()
            < 1e-5,
        "spectral {} vs truncated {}",
        spectral.mean_queue_length(),
        truncated.mean_queue_length()
    );

    // The environment marginal is the product-form multinomial distribution.
    let qbd = QbdMatrices::new(&config).unwrap();
    let expected = qbd.modes().stationary_distribution_classes(config.classes());
    for (got, want) in spectral.mode_marginal().iter().zip(&expected) {
        assert!((got - want).abs() < 1e-6, "mode marginal {got} vs {want}");
    }
}

#[test]
fn faster_servers_first_beats_reversed_class_order() {
    // The greedy fastest-first allocation is what the canonical order encodes; a
    // hand-built skeleton with the classes reversed (slow servers first) must yield a
    // *larger* mean queue, confirming the allocation matters and is applied.
    let fast = ServerClass::new(2, 2.0, ServerLifecycle::exponential(0.05, 1.0).unwrap()).unwrap();
    let slow = ServerClass::new(2, 0.5, ServerLifecycle::exponential(0.05, 1.0).unwrap()).unwrap();
    let lambda = 2.0;
    let canonical = SystemConfig::heterogeneous(lambda, vec![slow.clone(), fast.clone()]).unwrap();
    assert_eq!(canonical.classes()[0].service_rate(), 2.0, "canonical order is fastest-first");
    let l_fast_first =
        SpectralExpansionSolver::default().solve_detailed(&canonical).unwrap().mean_queue_length();

    // Build the reversed allocation directly through the skeleton API.
    let reversed = urs_core::QbdSkeleton::for_classes(&[slow, fast]).unwrap();
    let qbd = urs_core::QbdMatrices::with_skeleton(Arc::new(reversed), lambda);
    // Mean departure rate at level 1 (one job) differs: canonical serves it at the
    // fast rate in every mode where a fast server is up.
    let canonical_qbd = QbdMatrices::new(&canonical).unwrap();
    let canonical_total: f64 = canonical_qbd.c_level(1).iter().sum();
    let reversed_total: f64 = qbd.c_level(1).iter().sum();
    assert!(
        canonical_total > reversed_total,
        "fastest-first must serve a lone job faster: {canonical_total} vs {reversed_total}"
    );
    assert!(l_fast_first > 0.0);
}

#[test]
fn shared_cache_builds_one_skeleton_for_both_solvers() {
    // The fig8 pattern: one cache shared by the exact solver and the approximation
    // over a λ-only load sweep.
    let cache = SolverCache::shared();
    let spectral = SpectralExpansionSolver::default().with_cache(Arc::clone(&cache));
    let approx = GeometricApproximation::default().with_cache(Arc::clone(&cache));
    let base = SystemConfig::new(5, 3.0, 1.0, paper_lifecycle()).unwrap();
    let utilisations = [0.80, 0.85, 0.90, 0.95];
    // A serial sweep: the cache checks, builds and then inserts, so concurrent
    // workers may each miss the same skeleton; the counts below are exact only
    // when the grid points run one after another.
    let points =
        queue_length_vs_load_with(&spectral, &approx, &base, &utilisations, &ThreadPool::serial())
            .unwrap();
    assert_eq!(points.len(), 4);

    let stats = cache.stats();
    // Two solvers at four grid points make eight skeleton lookups: the first builds
    // the skeleton and the other seven — the approximation's four included — find it.
    assert_eq!(stats.misses, 1, "stats: {stats:?}");
    assert_eq!(stats.hits, 7, "stats: {stats:?}");

    // Bit-identical to the uncached approximation at every grid point.
    for point in &points {
        let config = base.with_arrival_rate(point.arrival_rate).unwrap();
        let uncached = GeometricApproximation::default().solve_detailed(&config).unwrap();
        let cached = approx.solve_detailed(&config).unwrap();
        assert_eq!(cached.decay_rate().to_bits(), uncached.decay_rate().to_bits());
        assert_eq!(cached.mean_queue_length().to_bits(), uncached.mean_queue_length().to_bits());
    }
    assert_eq!(cache.stats().hits, 11, "each re-solve is one more skeleton hit");
}

#[test]
fn approximation_reuses_its_cached_skeleton() {
    // Approximation-first order (the fig9 pattern run in reverse): the first solve
    // builds the skeleton, the second finds it and reproduces the fresh solve.
    let cache = SolverCache::shared();
    let approx = GeometricApproximation::default().with_cache(Arc::clone(&cache));
    let config = SystemConfig::new(4, 2.5, 1.0, paper_lifecycle()).unwrap();
    let first = approx.solve_detailed(&config).unwrap();
    let second = approx.solve_detailed(&config).unwrap();
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "stats: {stats:?}");
    let fresh = GeometricApproximation::default().solve_detailed(&config).unwrap();
    assert_eq!(first, fresh);
    assert_eq!(second, fresh);
    assert_eq!(second.decay_rate().to_bits(), fresh.decay_rate().to_bits());
}

#[test]
fn spectral_reuses_the_approximations_skeleton_bit_identically() {
    // Approximation-first order, the reverse of the Figure 8 and 9 sweeps.  The
    // spectral solve must find the skeleton the approximation built (one skeleton
    // hit, no second build) and still produce the bit-identical solution.
    let cache = SolverCache::shared();
    let approx = GeometricApproximation::default().with_cache(Arc::clone(&cache));
    let spectral = SpectralExpansionSolver::default().with_cache(Arc::clone(&cache));
    let config = SystemConfig::new(4, 3.1, 1.0, paper_lifecycle()).unwrap();
    approx.solve_detailed(&config).unwrap();
    assert_eq!(cache.stats().misses, 1);
    let cached = spectral.solve_detailed(&config).unwrap();
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "stats: {stats:?}");
    let fresh = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
    assert_eq!(cached.mean_queue_length().to_bits(), fresh.mean_queue_length().to_bits());
    assert_eq!(cached.boundary_levels(), fresh.boundary_levels());
    assert_eq!(cached.eigenvalues(), fresh.eigenvalues());
}

#[test]
fn approximation_holds_at_near_saturation() {
    // ρ = 0.999: the root search must still close its bracket strictly inside (0, 1)
    // and return a probability vector over the modes.
    for config in [SystemConfig::new(6, 1.0, 1.0, paper_lifecycle()).unwrap(), mixed_config(1.0)] {
        let config = config.with_arrival_rate(0.999 * config.effective_capacity()).unwrap();
        let solution = GeometricApproximation::default().solve_detailed(&config).unwrap();
        let eta = solution.decay_rate();
        assert!(eta > 0.0 && eta < 1.0, "η = {eta}");
        let marginal = solution.mode_marginal();
        assert_eq!(marginal.len(), config.environment_states());
        assert!(marginal.iter().all(|p| *p >= 0.0), "{marginal:?}");
        assert!((marginal.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(solution.mean_queue_length() > 100.0, "L = {}", solution.mean_queue_length());
    }
}

#[test]
fn with_servers_refuses_heterogeneous_configs() {
    let config = mixed_config(4.0);
    assert!(config.with_servers(8).is_err());
    let (homogeneous, _) = split_pair(4.0);
    assert_eq!(homogeneous.with_servers(8).unwrap().servers(), 8);
}

#[test]
fn class_mix_sweep_connects_the_homogeneous_endpoints() {
    use urs_core::sweeps::queue_length_vs_class_mix;
    let lifecycle = ServerLifecycle::exponential(0.05, 1.0).unwrap();
    let primary = ServerClass::new(1, 1.0, lifecycle.clone()).unwrap();
    let secondary = ServerClass::new(1, 1.5, lifecycle.clone()).unwrap();
    let solver = SpectralExpansionSolver::default();
    let points = queue_length_vs_class_mix(&solver, 2.5, &primary, &secondary, 4).unwrap();
    // λ = 2.5 against 4 servers at µ = 1 with availability ≈ 0.952: the all-primary
    // endpoint is stable, so every mix (which only adds capacity) appears.
    assert_eq!(points.len(), 5);
    // Endpoint 0 is the homogeneous primary fleet.
    let homogeneous = SystemConfig::new(4, 2.5, 1.0, lifecycle.clone()).unwrap();
    let direct = solver.solve_detailed(&homogeneous).unwrap().mean_queue_length();
    assert_eq!(points[0].mean_queue_length.to_bits(), direct.to_bits());
    // Replacing servers with strictly faster ones shortens the queue monotonically.
    for pair in points.windows(2) {
        assert!(
            pair[1].mean_queue_length < pair[0].mean_queue_length + 1e-12,
            "faster mix must not lengthen the queue: {pair:?}"
        );
    }
}
