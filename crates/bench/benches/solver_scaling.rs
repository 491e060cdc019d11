//! Criterion benchmarks of the analytic solvers as the system grows, plus the raw
//! linear-algebra kernels they stand on.
//!
//! Measures the wall-clock cost of the exact spectral expansion, the matrix-geometric
//! method (cyclic reduction) and the geometric approximation for increasing
//! numbers of servers (and hence operational modes), quantifying the complexity
//! argument behind the paper's recommendation of the approximation for large systems.
//! The `kernels` group pins the blocked/tiled production kernels against naive
//! reference implementations so a kernel regression fails loudly in CI (the bench
//! smoke step runs `kernels`, `sweeps`, `mix` and `response`); under `URS_SMOKE`
//! every group shrinks to CI-sized instances.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use urs_bench::{figure5_lifecycle, smoke, system};
use urs_core::engine::Query;
use urs_core::sweeps::queue_length_vs_load_with;
use urs_core::{
    ClassCostModel, CostModel, CostSweep, Engine, GeometricApproximation, MatrixGeometricSolver,
    MixBounds, MixSearch, MixSearchOptions, QueueSolver, ResponseAnalysis, ServerClass,
    ServerLifecycle, SolverCache, SpectralExpansionSolver, ThreadPool,
};
use urs_linalg::{BandedLu, BandedMatrix, Cholesky, LuDecomposition, Matrix, Workspace};

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    // The reduction rewrites pushed the practical range of both exact
    // solvers to N = 32 (561 modes); smoke runs keep the historical small sizes.
    let sizes: &[usize] = if smoke() { &[4, 8] } else { &[4, 8, 12, 16, 24, 32] };
    for &servers in sizes {
        let lifecycle = figure5_lifecycle();
        let config = system(servers, 0.85 * servers as f64 * lifecycle.availability(), lifecycle);
        group.bench_with_input(
            BenchmarkId::new("spectral_expansion", servers),
            &config,
            |b, cfg| b.iter(|| SpectralExpansionSolver::default().solve(cfg).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("matrix_geometric", servers), &config, |b, cfg| {
            b.iter(|| MatrixGeometricSolver::default().solve(cfg).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("geometric_approximation", servers),
            &config,
            |b, cfg| b.iter(|| GeometricApproximation::default().solve(cfg).unwrap()),
        );
    }
    group.finish();
}

/// Naive reference kernels: the pre-refactor triple-loop product and unblocked,
/// index-addressed LU elimination.  Benchmarked against the production kernels so the
/// old-vs-new ratio is regenerated on every bench run.
mod naive {
    use urs_linalg::Matrix;

    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let aik = a[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        out
    }

    /// Unblocked LU with partial pivoting; returns the packed factors.
    pub fn lu(a: &Matrix) -> Matrix {
        let n = a.rows();
        let mut lu = a.clone();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                if lu[(i, k)].abs() > pivot_val {
                    pivot_val = lu[(i, k)].abs();
                    pivot_row = i;
                }
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        lu
    }
}

/// Deterministic pseudo-random test matrix with a boosted diagonal.
fn kernel_matrix(n: usize, mut seed: u64) -> Matrix {
    let mut next = || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut m = Matrix::from_fn(n, n, |_, _| next());
    for i in 0..n {
        m[(i, i)] += 4.0;
    }
    m
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    // 91 and 231 are the paper lifecycle's block sizes at N = 12 and 20, so each
    // kernel's rate relative to `gemm_blocked` at solver shapes reads off one run;
    // 6 is a small-fleet block size (N = 2), where the LU runs its unblocked loop
    // and the right division mostly its scalar steps.
    let sizes: &[usize] = if smoke() { &[6, 48, 96] } else { &[6, 64, 91, 128, 231, 256] };
    let naive_sizes: &[usize] = if smoke() { &[48, 96] } else { &[64, 128, 256] };
    for &n in sizes {
        let a = kernel_matrix(n, 7);
        let b = kernel_matrix(n, 11);
        // The boundary elimination's right division `W = diag(l)·A⁻¹`, on the
        // factors of `a`.
        let lu = LuDecomposition::new(&a).unwrap();
        let coupling: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut w = Matrix::zeros(n, n);
        let mut right_ws = Workspace::new();
        let serial = ThreadPool::serial();
        group.bench_with_input(BenchmarkId::new("right_divide", n), &coupling, |bench, l| {
            bench.iter(|| {
                lu.solve_right_diagonal_into_with(l, &mut w, &mut right_ws, &serial).unwrap()
            })
        });
        if n < 8 {
            continue;
        }
        if naive_sizes.contains(&n) {
            group.bench_with_input(
                BenchmarkId::new("gemm_naive", n),
                &(&a, &b),
                |bench, (a, b)| bench.iter(|| black_box(naive::matmul(a, b))),
            );
        }
        group.bench_with_input(BenchmarkId::new("gemm_blocked", n), &(&a, &b), |bench, (a, b)| {
            bench.iter(|| black_box(a.matmul(b).unwrap()))
        });
        if naive_sizes.contains(&n) {
            group.bench_with_input(BenchmarkId::new("lu_naive", n), &a, |bench, a| {
                bench.iter(|| black_box(naive::lu(a)))
            });
        }
        group.bench_with_input(BenchmarkId::new("lu_blocked", n), &a, |bench, a| {
            bench.iter(|| black_box(LuDecomposition::new(a).unwrap()))
        });
        // The cyclic-reduction step's own kernels on a symmetric positive-definite
        // `A·Aᵀ`: the Cholesky factor and the lower solve `L⁻¹·B` with `n` columns.
        let spd = a.matmul(&a.transpose()).unwrap();
        group.bench_with_input(BenchmarkId::new("cholesky_blocked", n), &spd, |bench, spd| {
            bench.iter(|| black_box(Cholesky::new(spd).unwrap()))
        });
        let cholesky = Cholesky::new(&spd).unwrap();
        let mut ws = Workspace::new();
        let mut z = Matrix::zeros(n, n);
        group.bench_with_input(BenchmarkId::new("trsm_lower", n), &b, |bench, b| {
            bench.iter(|| cholesky.solve_lower_into(b, &mut z, &mut ws).unwrap())
        });
    }
    group.finish();
}

/// Serial versus pooled production kernels at s = 561 — the QBD block size of the
/// largest benchmarked system (N = 32 servers ⇒ 561 modes), i.e. the matrix shape
/// the spectral and matrix-geometric solvers actually multiply and factorise.
/// Bit-identity across thread counts is pinned by the equivalence suites; this
/// group only reports the intra-solve speed-up of `gemm_with`/`from_matrix_with`
/// over the serial path (the pool comes from `ThreadPool::default()`, so the CI
/// thread matrix exercises it at both one and several workers).
fn bench_kernels_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels-par");
    group.sample_size(10);
    let n = if smoke() { 192 } else { 561 };
    let a = kernel_matrix(n, 17);
    let b = kernel_matrix(n, 19);
    let pool = ThreadPool::default();
    group.bench_with_input(BenchmarkId::new("gemm_serial", n), &(&a, &b), |bench, (a, b)| {
        bench.iter(|| {
            let mut c = Matrix::zeros(n, n);
            c.gemm(1.0, a, b, 0.0).unwrap();
            black_box(c)
        })
    });
    group.bench_with_input(BenchmarkId::new("gemm_pooled", n), &(&a, &b), |bench, (a, b)| {
        bench.iter(|| {
            let mut c = Matrix::zeros(n, n);
            c.gemm_with(1.0, a, b, 0.0, &pool).unwrap();
            black_box(c)
        })
    });
    group.bench_with_input(BenchmarkId::new("lu_serial", n), &a, |bench, a| {
        bench.iter(|| black_box(LuDecomposition::from_matrix((*a).clone()).unwrap()))
    });
    group.bench_with_input(BenchmarkId::new("lu_pooled", n), &a, |bench, a| {
        bench.iter(|| black_box(LuDecomposition::from_matrix_with((*a).clone(), &pool).unwrap()))
    });
    group.finish();
}

/// Deterministic banded test matrix (boosted diagonal) with the given bandwidths.
fn kernel_banded(n: usize, kl: usize, ku: usize, mut seed: u64) -> BandedMatrix {
    let mut next = || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    BandedMatrix::from_fn(n, kl, ku, |i, j| {
        let v = next();
        if i == j {
            v + 4.0
        } else {
            v
        }
    })
}

/// Dense versus packed-banded kernels at QBD-realistic shapes.  At N servers the
/// repeat block is s = (N+1)(N+2)/2 with bandwidth N+1, so (153, 17) is N = 16 and
/// (561, 33) is N = 32 — the shapes the structured solver paths actually factor.
/// The extra (153, 38) point sits at the `banded_profitable` crossover boundary
/// (band width ≈ n/2); this group is the measurement that rule cites.  Bit-identity
/// of banded vs dense on the same pattern is pinned by the property suite; this
/// group only reports the speed ratio.
fn bench_kernels_banded(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels-banded");
    group.sample_size(10);
    let shapes: &[(usize, usize)] =
        if smoke() { &[(96, 9)] } else { &[(153, 17), (153, 38), (561, 33)] };
    for &(n, half_band) in shapes {
        let banded = kernel_banded(n, half_band, half_band, 23);
        let dense = banded.to_dense();
        let rhs = kernel_matrix(n, 29);
        let id = format!("{n}x{half_band}");
        group.bench_with_input(BenchmarkId::new("gemm_dense", &id), &(), |bench, ()| {
            bench.iter(|| {
                let mut c = Matrix::zeros(n, n);
                c.gemm(1.0, &dense, &rhs, 0.0).unwrap();
                black_box(c)
            })
        });
        group.bench_with_input(BenchmarkId::new("gemm_banded", &id), &(), |bench, ()| {
            bench.iter(|| {
                let mut c = Matrix::zeros(n, n);
                banded.gemm_into(1.0, &rhs, 0.0, &mut c).unwrap();
                black_box(c)
            })
        });
        group.bench_with_input(BenchmarkId::new("lu_dense", &id), &(), |bench, ()| {
            bench.iter(|| black_box(LuDecomposition::new(&dense).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("lu_banded", &id), &(), |bench, ()| {
            bench.iter(|| black_box(BandedLu::new(&banded).unwrap()))
        });
        let blu = BandedLu::new(&banded).unwrap();
        let dlu = LuDecomposition::new(&dense).unwrap();
        let rhs8 = Matrix::from_fn(n, 8, |i, j| rhs[(i, j)]);
        group.bench_with_input(BenchmarkId::new("solve_dense", &id), &(), |bench, ()| {
            bench.iter(|| {
                let mut out = Matrix::zeros(n, 8);
                dlu.solve_matrix_into(&rhs8, &mut out).unwrap();
                black_box(out)
            })
        });
        group.bench_with_input(BenchmarkId::new("solve_banded", &id), &(), |bench, ()| {
            bench.iter(|| {
                let mut out = Matrix::zeros(n, 8);
                blu.solve_matrix_into(&rhs8, &mut out).unwrap();
                black_box(out)
            })
        });
    }
    group.finish();
}

/// The Figure 8 load sweep (12 arrival rates, one lifecycle) under the three execution
/// strategies introduced by the performance subsystem:
///
/// * `load_sweep_serial` — the pre-existing one-thread path;
/// * `load_sweep_parallel` — the default worker pool (the win scales with cores);
/// * `load_sweep_cached` — a *fresh* cache per iteration, so what is measured is
///   genuine within-sweep skeleton reuse, not memoisation of a previous iteration.
fn bench_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweeps");
    group.sample_size(10);
    let (servers, points, cost_range) = if smoke() { (6, 4, 5..=8) } else { (10, 12, 9..=14) };
    let base = system(servers, 0.8 * servers as f64, figure5_lifecycle());
    let utilisations: Vec<f64> = (0..points).map(|i| 0.89 + i as f64 * 0.009).collect();
    let approx = GeometricApproximation::default();

    group.bench_function("load_sweep_serial", |b| {
        let solver = SpectralExpansionSolver::default();
        b.iter(|| {
            queue_length_vs_load_with(&solver, &approx, &base, &utilisations, &ThreadPool::serial())
                .unwrap()
        })
    });
    group.bench_function("load_sweep_parallel", |b| {
        let solver = SpectralExpansionSolver::default();
        let pool = ThreadPool::default();
        b.iter(|| queue_length_vs_load_with(&solver, &approx, &base, &utilisations, &pool).unwrap())
    });
    group.bench_function("load_sweep_cached", |b| {
        b.iter(|| {
            let solver = SpectralExpansionSolver::default().with_cache(SolverCache::shared());
            queue_length_vs_load_with(&solver, &approx, &base, &utilisations, &ThreadPool::serial())
                .unwrap()
        })
    });

    // Re-running a cost sweep with a different cost model re-solves the identical
    // configurations: sent as two queries of one engine batch, the second sweep is
    // answered from the plan's shared solutions.
    group.bench_function("cost_resweep_uncached", |b| {
        let solver = MatrixGeometricSolver::default();
        b.iter(|| {
            for cost in [CostModel::new(4.0, 1.0).unwrap(), CostModel::new(2.0, 1.0).unwrap()] {
                CostSweep::evaluate_with(
                    &solver,
                    &base,
                    &cost,
                    cost_range.clone(),
                    &ThreadPool::serial(),
                )
                .unwrap();
            }
        })
    });
    group.bench_function("cost_resweep_cached", |b| {
        let queries: Vec<Query> =
            [CostModel::new(4.0, 1.0).unwrap(), CostModel::new(2.0, 1.0).unwrap()]
                .into_iter()
                .map(|cost| Query::CostSweep {
                    config: base.clone(),
                    cost,
                    min_servers: *cost_range.start(),
                    max_servers: *cost_range.end(),
                })
                .collect();
        b.iter(|| {
            let engine = Engine::with_parts(SolverCache::shared(), ThreadPool::serial());
            for result in engine.execute_batch(&queries) {
                black_box(result.unwrap());
            }
        })
    });
    group.finish();
}

/// The fleet-mix search of `urs_core::mix` under its two execution strategies on the
/// identical candidate space: the all-exact exhaustive path versus branch and bound,
/// which solves compositions in order of a closed-form cost bound and stops once no
/// remaining bound can beat the best exact cost.  Both return the same optimum; the
/// bound costs O(n) per candidate, so the gap is the exact solves it rules out.  The
/// full run uses a three-class fleet (285 compositions) while the smoke run shrinks to
/// a CI-sized two-class space.
fn bench_mix(c: &mut Criterion) {
    let mut group = c.benchmark_group("mix");
    group.sample_size(10);
    let fast = ServerClass::new(1, 1.5, ServerLifecycle::exponential(0.1, 2.0).unwrap()).unwrap();
    let steady =
        ServerClass::new(1, 1.0, ServerLifecycle::exponential(0.01, 5.0).unwrap()).unwrap();
    let budget =
        ServerClass::new(1, 0.75, ServerLifecycle::exponential(0.02, 4.0).unwrap()).unwrap();
    let (classes, prices, max_servers) = if smoke() {
        (vec![fast, steady], vec![1.4, 1.0], 4)
    } else {
        (vec![fast, steady, budget], vec![1.4, 1.0, 0.6], 10)
    };
    let search = MixSearch::new(
        2.5,
        classes,
        ClassCostModel::new(4.0, prices).unwrap(),
        MixBounds::up_to(max_servers).unwrap(),
    )
    .unwrap();
    group.bench_function("search_exhaustive", |b| {
        b.iter(|| black_box(search.run_exhaustive().unwrap()))
    });
    let pruned =
        search.clone().with_options(MixSearchOptions { exhaustive_limit: 0, ..Default::default() });
    group.bench_function("search_pruned", |b| b.iter(|| black_box(pruned.run().unwrap())));
    group.finish();
}

/// The response-time distribution pipeline of `urs_core::response`: building the
/// absorption chain from a solved model, one certified CDF evaluation (a fresh
/// cursor stepped to the Poisson window plus its two-sided bound), and a certified
/// three-percentile query.
fn bench_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("response");
    group.sample_size(10);
    let servers = if smoke() { 6 } else { 10 };
    let lifecycle = figure5_lifecycle();
    let config = system(servers, 0.75 * servers as f64 * lifecycle.availability(), lifecycle);
    let fractions = [0.9, 0.95, 0.99];

    group.bench_function("build_transform", |b| {
        b.iter(|| black_box(ResponseAnalysis::new(&config).unwrap()))
    });
    let analysis = ResponseAnalysis::new(&config).unwrap();
    let t = 2.0 * analysis.mean_response_time();
    group.bench_function("certified_cdf", |b| {
        b.iter(|| black_box(analysis.response_time_cdf(black_box(t)).unwrap()))
    });
    group.bench_function("percentiles", |b| {
        b.iter(|| black_box(analysis.response_time_percentiles(&fractions).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solvers,
    bench_kernels,
    bench_kernels_par,
    bench_kernels_banded,
    bench_sweeps,
    bench_mix,
    bench_response
);
criterion_main!(benches);
