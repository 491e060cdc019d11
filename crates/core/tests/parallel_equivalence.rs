//! Parallel-vs-serial and cached-vs-uncached equivalence.
//!
//! The performance subsystem promises that neither the [`ThreadPool`] nor the
//! [`SolverCache`] changes any result: every parallelised sweep must return exactly —
//! bit for bit — what the serial path returns, in the same order, and a cached solver
//! must reproduce the uncached solution.  These tests pin that contract, including
//! property tests over randomly drawn configurations.

use std::sync::Arc;

use proptest::prelude::*;
use urs_core::sweeps::{
    percentile_vs_servers_with, queue_length_vs_load_with, queue_length_vs_operative_scv_with,
    queue_length_vs_repair_time_with,
};
use urs_core::{
    ClassCostModel, CostModel, CostSweep, GeometricApproximation, MatrixGeometricSolver, MixBounds,
    MixSearch, ProvisioningSweep, QueueSolution, ResponseAnalysis, ResponseOptions, ServerClass,
    ServerLifecycle, SolverCache, SpectralExpansionSolver, SystemConfig, ThreadPool,
    TruncatedCtmcSolver,
};
use urs_dist::HyperExponential;
use urs_linalg::{LuDecomposition, Matrix, RealBlockTridiagonal, Workspace};

fn paper_base(servers: usize, lambda: f64, repair_rate: f64) -> SystemConfig {
    let operative = HyperExponential::with_mean_and_scv(34.62, 4.6).unwrap();
    let lifecycle = ServerLifecycle::with_exponential_repair(operative, repair_rate).unwrap();
    SystemConfig::new(servers, lambda, 1.0, lifecycle).unwrap()
}

fn pools() -> Vec<ThreadPool> {
    vec![ThreadPool::new(2), ThreadPool::new(4), ThreadPool::new(7)]
}

#[test]
fn scv_sweep_is_thread_count_invariant() {
    let solver = SpectralExpansionSolver::default();
    let base = paper_base(5, 4.2, 0.2);
    let grid = [1.0, 2.0, 4.0, 8.0, 12.0];
    let serial =
        queue_length_vs_operative_scv_with(&solver, &base, 34.62, &grid, &ThreadPool::serial())
            .unwrap();
    for pool in pools() {
        let parallel =
            queue_length_vs_operative_scv_with(&solver, &base, 34.62, &grid, &pool).unwrap();
        assert_eq!(serial, parallel, "{} threads changed the sweep", pool.threads());
    }
}

#[test]
fn repair_sweep_is_thread_count_invariant() {
    let solver = SpectralExpansionSolver::default();
    let operative = HyperExponential::with_mean_and_scv(34.62, 4.6).unwrap();
    let base = paper_base(5, 3.5, 1.0);
    let grid = [0.5, 1.0, 1.5, 2.0];
    let serial =
        queue_length_vs_repair_time_with(&solver, &base, &operative, &grid, &ThreadPool::serial())
            .unwrap();
    for pool in pools() {
        let parallel =
            queue_length_vs_repair_time_with(&solver, &base, &operative, &grid, &pool).unwrap();
        assert_eq!(serial, parallel);
    }
}

#[test]
fn load_sweep_is_thread_count_invariant() {
    let exact = SpectralExpansionSolver::default();
    let approx = GeometricApproximation::default();
    let base = paper_base(5, 3.0, 25.0);
    let grid = [0.85, 0.9, 0.93, 0.96];
    let serial =
        queue_length_vs_load_with(&exact, &approx, &base, &grid, &ThreadPool::serial()).unwrap();
    for pool in pools() {
        let parallel = queue_length_vs_load_with(&exact, &approx, &base, &grid, &pool).unwrap();
        assert_eq!(serial, parallel);
    }
}

#[test]
fn cost_sweep_is_thread_count_invariant_and_skips_unstable_counts() {
    let solver = SpectralExpansionSolver::default();
    let cost = CostModel::paper_figure5();
    // λ = 7 makes N = 5..=7 unstable: the skip logic must also be order-preserving.
    let base = paper_base(5, 7.0, 25.0);
    let serial =
        CostSweep::evaluate_with(&solver, &base, &cost, 5..=12, &ThreadPool::serial()).unwrap();
    assert!(serial.points().iter().all(|p| p.servers >= 8));
    for pool in pools() {
        let parallel = CostSweep::evaluate_with(&solver, &base, &cost, 5..=12, &pool).unwrap();
        assert_eq!(serial, parallel);
    }
}

#[test]
fn provisioning_sweep_is_thread_count_invariant() {
    let solver = SpectralExpansionSolver::default();
    let base = paper_base(8, 6.0, 25.0);
    let serial =
        ProvisioningSweep::evaluate_with(&solver, &base, 7..=12, &ThreadPool::serial()).unwrap();
    for pool in pools() {
        let parallel = ProvisioningSweep::evaluate_with(&solver, &base, 7..=12, &pool).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.min_servers_for_response_time(2.0),
            parallel.min_servers_for_response_time(2.0)
        );
    }
}

#[test]
fn cached_solver_is_bit_identical_to_uncached() {
    // Both exact solvers reuse cached skeletons.
    let plain = SpectralExpansionSolver::default();
    let cached = SpectralExpansionSolver::default().with_cache(SolverCache::shared());
    let mg_plain = MatrixGeometricSolver::default();
    let mg_cache = SolverCache::shared();
    let mg_cached = MatrixGeometricSolver::default().with_cache(Arc::clone(&mg_cache));
    let base = paper_base(4, 2.5, 25.0);
    for lambda in [1.0, 2.5, 3.5] {
        let config = base.with_arrival_rate(lambda).unwrap();
        let expected = plain.solve_detailed(&config).unwrap();
        let mg_expected = mg_plain.solve_detailed(&config).unwrap();
        // The first call builds the skeleton at λ = 1.0 and every later call reuses
        // it; all must match the uncached bits.
        for _ in 0..2 {
            let got = cached.solve_detailed(&config).unwrap();
            assert_eq!(expected.mean_queue_length().to_bits(), got.mean_queue_length().to_bits());
            assert_eq!(expected.boundary_levels(), got.boundary_levels());
            assert_eq!(expected.eigenvalues(), got.eigenvalues());
            let got = mg_cached.solve_detailed(&config).unwrap();
            assert_eq!(
                mg_expected.mean_queue_length().to_bits(),
                got.mean_queue_length().to_bits()
            );
            assert_eq!(bits(mg_expected.rate_matrix()), bits(got.rate_matrix()));
            for level in 0..=config.servers() + 3 {
                assert_eq!(
                    vec_bits(&mg_expected.level_vector(level)),
                    vec_bits(&got.level_vector(level))
                );
            }
        }
    }
    let stats = cached.cache().unwrap().stats();
    assert_eq!(stats.misses, 1, "one lifecycle, one skeleton build");
    let stats = mg_cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, 5), "every re-solve reuses the skeleton");
}

#[test]
fn cached_sweep_matches_uncached_sweep() {
    let plain = SpectralExpansionSolver::default();
    let cached = SpectralExpansionSolver::default().with_cache(SolverCache::shared());
    let approx = GeometricApproximation::default();
    let base = paper_base(5, 3.0, 25.0);
    let grid = [0.85, 0.9, 0.95];
    let without =
        queue_length_vs_load_with(&plain, &approx, &base, &grid, &ThreadPool::serial()).unwrap();
    let with =
        queue_length_vs_load_with(&cached, &approx, &base, &grid, &ThreadPool::new(3)).unwrap();
    assert_eq!(without, with);
    // The whole sweep shares one skeleton.  (Assert on the cache contents, not the
    // miss counter: threads racing through the empty-cache window each count a miss.)
    assert_eq!(cached.cache().unwrap().stats().entries, 1);
}

#[test]
fn shared_cache_works_across_solvers_and_threads() {
    let cache = SolverCache::shared();
    let solver_a = MatrixGeometricSolver::default().with_cache(Arc::clone(&cache));
    let solver_b = MatrixGeometricSolver::default().with_cache(Arc::clone(&cache));
    let base = paper_base(6, 4.0, 25.0);
    let grid: Vec<f64> = (0..8).map(|i| 0.80 + i as f64 * 0.02).collect();
    let a = queue_length_vs_load_with(
        &solver_a,
        &SpectralExpansionSolver::default(),
        &base,
        &grid,
        &ThreadPool::new(4),
    )
    .unwrap();
    let b = queue_length_vs_load_with(
        &solver_b,
        &SpectralExpansionSolver::default(),
        &base,
        &grid,
        &ThreadPool::serial(),
    )
    .unwrap();
    assert_eq!(a, b);
    // One skeleton in the cache (the miss counter can exceed 1 when threads race
    // through the empty-cache window, so assert on the contents).
    assert_eq!(cache.stats().entries, 1);
    // The second, serial sweep re-solves the identical configurations on the cached
    // skeleton: all hits.
    assert!(cache.stats().hits >= grid.len() as u64);
}

// ---------------------------------------------------------------------------
// Thread-matrix suite: every intra-solve parallel kernel and every pooled
// solver must be bit-identical — compared through `f64::to_bits`, not `==` —
// across worker counts {1, 2, 3, 8}.  Pools are injected directly so the
// tests never mutate `URS_THREADS`.
// ---------------------------------------------------------------------------

const THREAD_MATRIX: [usize; 4] = [1, 2, 3, 8];

/// Deterministic pseudo-random stream in `[-0.5, 0.5)` (PCG-style LCG step).
fn lcg(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / (1u64 << 53) as f64 - 0.5
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| lcg(&mut state))
}

/// A diagonally dominant (hence comfortably non-singular) random matrix.
fn dominant_matrix(n: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(n, n, |i, j| {
        let v = lcg(&mut state);
        if i == j {
            v + n as f64
        } else {
            v
        }
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn vec_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn gemm_is_bit_identical_across_the_thread_matrix() {
    // 97·61·83 ≈ 491k flops: well past the parallel cut-over, with every
    // dimension deliberately off the KB = 64 / JB = 256 tile boundaries.
    let a = random_matrix(97, 61, 11);
    let b = random_matrix(61, 83, 12);
    let initial = random_matrix(97, 83, 13);
    let mut expected = initial.clone();
    expected.gemm(0.75, &a, &b, -0.25).unwrap();
    for threads in THREAD_MATRIX {
        let pool = ThreadPool::new(threads);
        let mut c = initial.clone();
        c.gemm_with(0.75, &a, &b, -0.25, &pool).unwrap();
        assert_eq!(bits(&expected), bits(&c), "{threads} threads changed gemm");
    }
}

#[test]
fn blocked_lu_is_bit_identical_across_the_thread_matrix() {
    // n = 137 crosses the 48-column panel boundary twice, with a ragged tail.
    let n = 137;
    let a = dominant_matrix(n, 21);
    let rhs = random_matrix(64, n, 22);
    let serial = LuDecomposition::from_matrix(a.clone()).unwrap();
    let serial_packed = LuDecomposition::from_matrix(a.clone()).unwrap().into_matrix();
    let mut ws = Workspace::new();
    let mut serial_right = Matrix::zeros(64, n);
    serial.solve_right_matrix_into(&rhs, &mut serial_right, &mut ws).unwrap();
    for threads in THREAD_MATRIX {
        let pool = ThreadPool::new(threads);
        let lu = LuDecomposition::from_matrix_with(a.clone(), &pool).unwrap();
        let packed = LuDecomposition::from_matrix_with(a.clone(), &pool).unwrap().into_matrix();
        assert_eq!(bits(&serial_packed), bits(&packed), "{threads} threads changed the LU factor");
        assert_eq!(serial.determinant().to_bits(), lu.determinant().to_bits());
        let mut right = Matrix::zeros(64, n);
        lu.solve_right_matrix_into_with(&rhs, &mut right, &mut ws, &pool).unwrap();
        assert_eq!(bits(&serial_right), bits(&right), "{threads} threads changed the right-solve");
    }
}

#[test]
fn block_tridiagonal_solve_is_bit_identical_across_the_thread_matrix() {
    // Block size 40 puts the per-block right-solve and LU work past the parallel
    // cut-over, so the pooled path genuinely fans out; the couplings are packed
    // diagonals, the shape of the QBD boundary.
    let (rows, s) = (4, 40);
    let mut system = RealBlockTridiagonal::new(rows, s).unwrap();
    let diagonal = |seed: u64| {
        let mut state = seed;
        (0..s).map(|_| lcg(&mut state)).collect::<Vec<f64>>()
    };
    for i in 0..rows {
        system.set_diagonal(i, dominant_matrix(s, 100 + i as u64)).unwrap();
        if i > 0 {
            system.set_lower_diagonal(i, diagonal(200 + i as u64)).unwrap();
        }
        if i + 1 < rows {
            system.set_upper_diagonal(i, diagonal(300 + i as u64)).unwrap();
        }
        system.set_rhs(i, diagonal(400 + i as u64)).unwrap();
    }
    let serial = system.clone().solve().unwrap();
    for threads in THREAD_MATRIX {
        let parallel = system.clone().solve_with(&ThreadPool::new(threads)).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (xs, ys) in serial.iter().zip(&parallel) {
            assert_eq!(vec_bits(xs), vec_bits(ys), "{threads} threads changed the block solve");
        }
    }
}

#[test]
fn spectral_solver_is_bit_identical_across_the_thread_matrix() {
    // At N = 12 (91 modes) spectrum slicing keeps dozens of isolation intervals and
    // root refinements in flight at once across the pool.
    for config in [paper_base(5, 4.2, 0.2), paper_base(12, 8.5, 0.2)] {
        let serial = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
        for threads in THREAD_MATRIX {
            let solver = SpectralExpansionSolver::default().with_pool(ThreadPool::new(threads));
            let got = solver.solve_detailed(&config).unwrap();
            assert_eq!(serial.mean_queue_length().to_bits(), got.mean_queue_length().to_bits());
            assert_eq!(serial.boundary_levels(), got.boundary_levels());
            assert_eq!(serial.eigenvalues(), got.eigenvalues());
            assert_eq!(vec_bits(&serial.mode_marginal()), vec_bits(&got.mode_marginal()));
        }
    }
}

#[test]
fn matrix_geometric_solver_is_bit_identical_across_the_thread_matrix() {
    // 7 servers with a 2-phase operative + 1-phase repair lifecycle give
    // C(9,2) = 36 modes, so the 36×36 gemm of the cyclic reduction and the
    // boundary kernels are past the parallel cut-over and actually split into bands.
    let config = paper_base(7, 4.0, 25.0);
    let serial = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
    for threads in THREAD_MATRIX {
        let solver = MatrixGeometricSolver::default().with_pool(ThreadPool::new(threads));
        let got = solver.solve_detailed(&config).unwrap();
        assert_eq!(serial.mean_queue_length().to_bits(), got.mean_queue_length().to_bits());
        assert_eq!(bits(serial.rate_matrix()), bits(got.rate_matrix()));
        assert_eq!(serial.reduction_depth(), got.reduction_depth());
        assert_eq!(vec_bits(&serial.mode_marginal()), vec_bits(&got.mode_marginal()));
        assert_eq!(serial.tail_probability(12).to_bits(), got.tail_probability(12).to_bits());
        for level in [0, 1, 7, 20] {
            assert_eq!(
                vec_bits(&serial.level_vector(level)),
                vec_bits(&got.level_vector(level)),
                "{threads} threads changed level {level}",
            );
        }
    }
}

#[test]
fn truncated_solver_is_bit_identical_across_the_thread_matrix() {
    let config = paper_base(5, 4.0, 25.0);
    let serial = TruncatedCtmcSolver::default().solve_detailed(&config).unwrap();
    for threads in THREAD_MATRIX {
        let solver = TruncatedCtmcSolver::default().with_pool(ThreadPool::new(threads));
        let got = solver.solve_detailed(&config).unwrap();
        assert_eq!(serial.mean_queue_length().to_bits(), got.mean_queue_length().to_bits());
        assert_eq!(serial.max_level(), got.max_level());
        assert_eq!(serial.truncation_mass().to_bits(), got.truncation_mass().to_bits());
        for level in 0..10 {
            assert_eq!(
                serial.level_probability(level).to_bits(),
                got.level_probability(level).to_bits(),
            );
        }
    }
}

#[test]
fn response_time_percentile_is_bit_identical_across_the_thread_matrix() {
    // The analysis steps its absorption chain serially; an SLA sweep fans its server
    // counts out across the pool, each with its own cursor.  Neither the pool nor a
    // shared cache may move a bit.
    let config = paper_base(5, 4.2, 25.0);
    let serial = ResponseAnalysis::new(&config).unwrap();
    let p95 = serial.response_time_percentile(0.95).unwrap();
    let mean = serial.mean_response_time();
    let cdf = serial.response_time_cdf(2.0 * mean).unwrap();
    let fractions = [0.9, 0.95, 0.99];
    let sweep = |pool: &ThreadPool| {
        let cache = SolverCache::shared();
        percentile_vs_servers_with(
            &config,
            &[5, 6, 7, 8],
            &fractions,
            Default::default(),
            &cache,
            pool,
        )
        .unwrap()
    };
    let reference = sweep(&ThreadPool::serial());
    let at_five = reference.first().expect("N = 5 is stable");
    assert_eq!(at_five.percentiles, serial.response_time_percentiles(&fractions).unwrap());
    for threads in THREAD_MATRIX {
        let pool = ThreadPool::new(threads);
        let cached = ResponseAnalysis::with_cache(
            &config,
            ResponseOptions::default(),
            &SolverCache::shared(),
        )
        .unwrap();
        assert_eq!(p95.to_bits(), cached.response_time_percentile(0.95).unwrap().to_bits());
        assert_eq!(mean.to_bits(), cached.mean_response_time().to_bits());
        assert_eq!(cdf.to_bits(), cached.response_time_cdf(2.0 * mean).unwrap().to_bits());
        assert_eq!(reference, sweep(&pool), "{threads} threads changed the SLA sweep");
    }
}

#[test]
fn mix_search_is_bit_identical_across_pools() {
    // The `large-fleet` space: four classes, at most seven servers, 329 compositions.
    // The pruned path solves in waves of one composition per worker, so how far it
    // gets past the optimum depends on the pool — the reported result must not.
    let classes = (0..4)
        .map(|j| {
            let j = f64::from(j);
            let lifecycle = ServerLifecycle::exponential(0.05 + 0.05 * j, 1.0).unwrap();
            ServerClass::new(1, 1.0 + 0.3 * j, lifecycle).unwrap()
        })
        .collect();
    let cost = ClassCostModel::new(4.0, (0..4).map(|j| 1.0 + 0.4 * f64::from(j)).collect());
    let search = MixSearch::new(4.0, classes, cost.unwrap(), MixBounds::up_to(7).unwrap()).unwrap();
    let pruned = search.run_with(&ThreadPool::serial()).unwrap();
    let exhaustive = search.run_exhaustive_with(&ThreadPool::serial()).unwrap();
    assert!(pruned.was_screened(), "329 compositions exceed the exhaustive limit");
    assert_eq!(pruned.optimum(), exhaustive.optimum(), "pruning changed the optimum");
    // `Debug` prints every f64 in its shortest round-trip form, so equal strings
    // mean equal bits in the optimum, every ranked candidate and every counter.
    for threads in THREAD_MATRIX {
        let pool = ThreadPool::new(threads);
        let (p, e) = (search.run_with(&pool).unwrap(), search.run_exhaustive_with(&pool).unwrap());
        assert_eq!(format!("{p:?}"), format!("{pruned:?}"), "{threads} threads changed pruning");
        assert_eq!(format!("{e:?}"), format!("{exhaustive:?}"), "{threads} threads: exhaustive");
    }
}

/// Strategy: a stable paper-like configuration with 2–5 servers and varied lifecycle.
fn config_strategy() -> impl Strategy<Value = SystemConfig> {
    (2_usize..=5, 1.5_f64..8.0, 0.3_f64..0.9, 0.3_f64..30.0).prop_map(
        |(servers, scv, utilisation, repair_rate)| {
            let operative = HyperExponential::with_mean_and_scv(34.62, scv).unwrap();
            let lifecycle =
                ServerLifecycle::with_exponential_repair(operative, repair_rate).unwrap();
            let base = SystemConfig::new(servers, 1.0, 1.0, lifecycle).unwrap();
            let arrival = (utilisation * base.effective_servers()).max(1e-3);
            base.with_arrival_rate(arrival).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random configurations, random utilisation grids: parallel load sweeps are
    /// bit-identical to serial ones, cached or not.
    #[test]
    fn random_load_sweeps_are_thread_and_cache_invariant(
        config in config_strategy(),
        threads in 2_usize..6,
    ) {
        let grid = [0.75, 0.85, 0.92];
        let exact = SpectralExpansionSolver::default();
        let cached = SpectralExpansionSolver::default().with_cache(SolverCache::shared());
        let approx = GeometricApproximation::default();
        let serial =
            queue_length_vs_load_with(&exact, &approx, &config, &grid, &ThreadPool::serial())
                .unwrap();
        let parallel =
            queue_length_vs_load_with(&exact, &approx, &config, &grid, &ThreadPool::new(threads))
                .unwrap();
        let parallel_cached =
            queue_length_vs_load_with(&cached, &approx, &config, &grid, &ThreadPool::new(threads))
                .unwrap();
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(&serial, &parallel_cached);
    }

    /// Random provisioning sweeps: same contract for the server-count grids of
    /// Figures 5 and 9.
    #[test]
    fn random_provisioning_sweeps_are_thread_invariant(
        config in config_strategy(),
        threads in 2_usize..6,
    ) {
        let lo = config.servers();
        let solver = SpectralExpansionSolver::default();
        let serial =
            ProvisioningSweep::evaluate_with(&solver, &config, lo..=lo + 4, &ThreadPool::serial())
                .unwrap();
        let parallel = ProvisioningSweep::evaluate_with(
            &solver,
            &config,
            lo..=lo + 4,
            &ThreadPool::new(threads),
        )
        .unwrap();
        prop_assert_eq!(serial, parallel);
    }
}
