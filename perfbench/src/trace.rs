//! The traced in-process replay: per-layer timings taken from outside, by timing
//! calls into each module's public functions.  Nothing inside the program is
//! instrumented.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use urs_core::engine::{self, Query};
use urs_core::{
    Engine, GeometricApproximation, MatrixGeometricSolver, MixSearch, QbdMatrices, QbdSkeleton,
    ResponseAnalysis, ServerLifecycle, SolverCache, SpectralExpansionSolver, SystemConfig,
    ThreadPool,
};
use urs_linalg::{BandedLu, BandedMatrix, LuDecomposition, Matrix, QuadraticEigenProblem};
use urs_server::Server;

use crate::{stats, workload};

/// Threads of the pooled stage rows (`nproc` of the reference machine).
pub const POOLED_THREADS: usize = 2;

/// Utilisation at which the solver stages are timed.
const STAGE_UTILISATION: f64 = 0.7;

/// Time after which a stage row stops repeating its calls.
const STAGE_BUDGET: Duration = Duration::from_millis(300);

/// Most calls a stage row makes.
const STAGE_REPS: usize = 15;

/// Runs `f` once, returning its result and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// The protocol name of a query's type.
pub fn query_type(query: &Query) -> &'static str {
    match query {
        Query::Solve { .. } => "solve",
        Query::CostSweep { .. } => "cost_sweep",
        Query::Provisioning { .. } => "provisioning",
        Query::Percentiles { .. } => "percentiles",
        Query::SlaSweep { .. } => "sla_sweep",
        Query::MixSearch { .. } => "mix_search",
        Query::Stats => "stats",
    }
}

/// The in-process answer time of each line, from `Server::respond_batch`.
#[derive(Debug)]
pub struct Replay {
    /// Groups replayed (a prefix of the input).
    pub groups: usize,
    /// Lines replayed.
    pub lines: usize,
    /// Total seconds inside `respond_batch`.
    pub total: f64,
    /// Per line, the wall time of the batch that answered it, ascending.
    pub sorted_line_times: Vec<f64>,
}

/// Replays `groups` through a fresh serial [`Server`], one `respond_batch` per
/// group, stopping after the group that crosses `budget`.
pub fn replay(groups: &[Vec<String>], budget: Duration) -> Replay {
    let server = Server::with_engine(fresh_engine());
    let started = Instant::now();
    let mut replay = Replay { groups: 0, lines: 0, total: 0.0, sorted_line_times: Vec::new() };
    for group in groups {
        if started.elapsed() >= budget {
            break;
        }
        let (_, seconds) = timed(|| server.respond_batch(group));
        replay.groups += 1;
        replay.lines += group.len();
        replay.total += seconds;
        replay.sorted_line_times.extend(std::iter::repeat_n(seconds, group.len()));
    }
    replay.sorted_line_times.sort_by(f64::total_cmp);
    replay
}

fn fresh_engine() -> Engine {
    Engine::with_parts(SolverCache::shared(), ThreadPool::serial())
}

/// Seconds spent in each engine piece of `respond_batch`, summed over a replay.
#[derive(Debug, Default)]
pub struct Pieces {
    /// `Query::parse_line`, over every line.
    pub parse: f64,
    /// `Query::canonical_key`, over every parsed query.
    pub key: f64,
    /// `engine::plan`, over every batch.
    pub plan: f64,
    /// `QueryResult::to_json` plus serialisation, over every computed result.
    pub render: f64,
    /// `Engine::execute` per query type: (queries, seconds).
    pub execute: BTreeMap<&'static str, (usize, f64)>,
    /// Lines replayed.
    pub lines: usize,
    /// Batches replayed.
    pub batches: usize,
    /// Results rendered (memo hits are not re-rendered).
    pub rendered: usize,
    /// Lines a response memo would have answered.
    pub memo_hits: usize,
}

impl Pieces {
    /// Seconds attributed to a named piece.
    pub fn attributed(&self) -> f64 {
        self.parse
            + self.key
            + self.plan
            + self.render
            + self.execute.values().map(|v| v.1).sum::<f64>()
    }
}

/// Replays `groups` piece by piece on a fresh serial engine, mirroring what
/// `respond_batch` does per batch: parse and key every line, skip lines an
/// earlier batch already answered (the memo), plan the rest, execute them group by
/// group, render each result.
pub fn pieces(groups: &[Vec<String>]) -> Pieces {
    let engine = fresh_engine();
    let mut memo: BTreeSet<u64> = BTreeSet::new();
    let mut pieces = Pieces::default();
    for group in groups {
        let mut pending: Vec<(Query, Option<u64>)> = Vec::with_capacity(group.len());
        for line in group {
            let (query, seconds) = timed(|| Query::parse_line(line));
            pieces.parse += seconds;
            pieces.lines += 1;
            let Ok(query) = query else { continue };
            let (key, seconds) = timed(|| query.canonical_key().ok().map(|k| k.digest()));
            pieces.key += seconds;
            if key.is_some_and(|k| memo.contains(&k)) {
                pieces.memo_hits += 1;
                continue;
            }
            pending.push((query, key));
        }
        let queries: Vec<Query> = pending.iter().map(|(q, _)| q.clone()).collect();
        let (plan, seconds) = timed(|| engine::plan(&queries));
        pieces.plan += seconds;
        pieces.batches += 1;
        for index in plan.groups().iter().flat_map(|g| g.indices().iter().copied()) {
            let Some((query, key)) = pending.get(index) else { continue };
            let (result, seconds) = timed(|| engine.execute(query));
            let slot = pieces.execute.entry(query_type(query)).or_default();
            slot.0 += 1;
            slot.1 += seconds;
            if let Ok(result) = result {
                let (_, seconds) = timed(|| result.to_json().serialise());
                pieces.render += seconds;
                pieces.rendered += 1;
                if let Some(key) = key {
                    memo.insert(*key);
                }
            }
        }
    }
    pieces
}

/// One named stage measurement: a value with its unit.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name, `<module>.<metric>`.
    pub name: String,
    /// Unit (`ms`, `count`, `flop`, `B`, …).
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// A note printed beside the value (e.g. "computed").
    pub note: &'static str,
    /// Whether the row is a per-layer metric of the result line.  Rows fixed by
    /// the problem's shape (mode counts, computed flops and bytes, per-N rows)
    /// are only printed.
    pub reported: bool,
}

fn row(name: impl Into<String>, unit: &'static str, value: f64) -> Row {
    Row { name: name.into(), unit, value, note: "", reported: true }
}

fn label(name: impl Into<String>, unit: &'static str, value: f64) -> Row {
    Row { reported: false, ..row(name, unit, value) }
}

/// Median wall time in milliseconds of repeated calls of `f`: at least one call,
/// then more while the calls so far took under [`STAGE_BUDGET`], up to
/// [`STAGE_REPS`].
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || (times.len() < STAGE_REPS && started.elapsed() < STAGE_BUDGET) {
        times.push(timed(|| std::hint::black_box(f())).1 * 1e3);
    }
    stats::median(&times)
}

/// The paper-lifecycle configuration at `servers` and the stage utilisation.
fn paper_config(servers: usize) -> SystemConfig {
    let lifecycle = ServerLifecycle::paper_fitted().expect("the paper lifecycle is valid");
    let capacity = servers as f64 * lifecycle.availability();
    SystemConfig::new(servers, STAGE_UTILISATION * capacity, 1.0, lifecycle)
        .expect("stage configurations are valid")
}

/// Times the solver stages (skeleton, spectral, matrix-geometric, approximation)
/// at `servers` on the paper lifecycle, serially and on a `POOLED_THREADS` pool.
pub fn solver_stages(fleet_sizes: &[usize], servers: usize) -> Result<Vec<Row>, String> {
    let err = |e: urs_core::ModelError| e.to_string();
    let mut rows = Vec::new();
    for &n in fleet_sizes {
        let config = paper_config(n);
        let modes = QbdSkeleton::for_classes(config.classes()).map_err(err)?.order();
        let ms = median_ms(|| QbdSkeleton::for_classes(config.classes()));
        rows.push(label(format!("qbd.skeleton_ms.n{n}"), "ms", ms));
        rows.push(label(format!("qbd.modes.n{n}"), "count", modes as f64));
        if n == servers {
            rows.push(row("qbd.skeleton_ms", "ms", ms));
            rows.push(label("qbd.modes", "count", modes as f64));
        }
    }

    let config = paper_config(servers);
    let pool = ThreadPool::new(POOLED_THREADS);
    let serial = SpectralExpansionSolver::default();
    let pooled = SpectralExpansionSolver::default().with_pool(pool.clone());
    serial.solve_detailed(&config).map_err(err)?;
    let solve_ms = median_ms(|| serial.solve_detailed(&config));
    let solve_pooled_ms = median_ms(|| pooled.solve_detailed(&config));
    let qbd_ms = median_ms(|| QbdMatrices::new(&config));
    let qbd = QbdMatrices::new(&config).map_err(err)?;
    let problem =
        QuadraticEigenProblem::new(qbd.q0(), qbd.q1(), qbd.q2()).map_err(|e| e.to_string())?;
    let margin = urs_core::SpectralOptions::default().unit_disk_margin;
    let inside: Vec<_> = problem
        .eigenvalues_inside_unit_disk(margin)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|e| e.z)
        .collect();
    let eigenvalues_ms = median_ms(|| {
        QuadraticEigenProblem::new(qbd.q0(), qbd.q1(), qbd.q2())
            .and_then(|p| p.eigenvalues_inside_unit_disk(margin))
    });
    let eigenvectors_ms =
        median_ms(|| inside.iter().map(|&z| problem.left_eigenvector(z)).collect::<Vec<_>>());
    let eigenvectors_pooled_ms =
        median_ms(|| pool.par_map(&inside, |&z| problem.left_eigenvector(z)));
    rows.extend([
        row("spectral.solve_ms", "ms", solve_ms),
        row("spectral.solve_ms.pooled", "ms", solve_pooled_ms),
        row("spectral.eigenvalues_ms", "ms", eigenvalues_ms),
        row("spectral.eigenvectors_ms", "ms", eigenvectors_ms),
        row("spectral.eigenvectors_ms.pooled", "ms", eigenvectors_pooled_ms),
        row("spectral.post_eigen_ms", "ms", solve_ms - qbd_ms - eigenvalues_ms - eigenvectors_ms),
        label("spectral.eigenvalue_count", "count", inside.len() as f64),
    ]);

    let mg = MatrixGeometricSolver::default();
    let mg_pooled = MatrixGeometricSolver::default().with_pool(pool.clone());
    let mg_solve_ms = median_ms(|| mg.solve_detailed(&config));
    let mg_solve_pooled_ms = median_ms(|| mg_pooled.solve_detailed(&config));
    let reduction_ms = median_ms(|| mg.rate_matrix_with_depth(&qbd));
    let reduction_pooled_ms = median_ms(|| mg_pooled.rate_matrix_with_depth(&qbd));
    let depth = mg.rate_matrix_with_depth(&qbd).map_err(err)?.1;
    let approx = GeometricApproximation::default();
    let approx_ms = median_ms(|| approx.solve_detailed(&config));
    rows.extend([
        row("mg.solve_ms", "ms", mg_solve_ms),
        row("mg.solve_ms.pooled", "ms", mg_solve_pooled_ms),
        row("mg.reduction_ms", "ms", reduction_ms),
        row("mg.reduction_ms.pooled", "ms", reduction_pooled_ms),
        row("mg.reduction_depth", "count", depth as f64),
        row("mg.boundary_ms", "ms", mg_solve_ms - qbd_ms - reduction_ms),
        row("approx.solve_ms", "ms", approx_ms),
    ]);
    rows.extend(linalg_kernels(&qbd)?);
    Ok(rows)
}

/// The `urs-linalg` kernels on the solver's own blocks at this fleet size: a dense
/// s×s gemm, a dense LU of −Q1 and the packed banded LU of the same matrix.
/// Flops and bytes are *computed* from the shapes (compulsory traffic only).
fn linalg_kernels(qbd: &QbdMatrices) -> Result<Vec<Row>, String> {
    let s = qbd.order();
    let q0 = qbd.q0();
    let q2 = qbd.q2();
    let mut neg_q1 = qbd.q1();
    neg_q1.scale_mut(-1.0);
    let (kl, ku) = qbd.q1_bandwidths();
    let banded = BandedMatrix::from_dense(&neg_q1, kl, ku).map_err(|e| e.to_string())?;
    let mut out = Matrix::zeros(s, s);
    let gemm_ms = median_ms(|| out.gemm(1.0, &q0, &q2, 0.0));
    let lu_ms = median_ms(|| LuDecomposition::new(&neg_q1));
    let banded_ms = median_ms(|| BandedLu::new(&banded));
    let (n, kl, ku) = (s as f64, kl as f64, ku as f64);
    let computed = |name: &str, value: f64, unit: &'static str| Row {
        note: "computed",
        ..label(name, unit, value)
    };
    Ok(vec![
        label("linalg.s", "count", n),
        row("linalg.gemm_ms", "ms", gemm_ms),
        computed("linalg.gemm.flops", 2.0 * n * n * n, "flop"),
        computed("linalg.gemm.bytes", 3.0 * n * n * 8.0, "B"),
        row("linalg.lu_ms", "ms", lu_ms),
        computed("linalg.lu.flops", 2.0 / 3.0 * n * n * n, "flop"),
        computed("linalg.lu.bytes", 2.0 * n * n * 8.0, "B"),
        row("linalg.banded_lu_ms", "ms", banded_ms),
        // Partial pivoting widens U to kl + ku; each of the n columns eliminates kl
        // rows of that width.
        computed("linalg.banded_lu.flops", 2.0 * n * kl * (kl + ku + 1.0), "flop"),
        computed("linalg.banded_lu.bytes", 2.0 * n * (2.0 * kl + ku + 1.0) * 8.0, "B"),
    ])
}

/// Times the response-time analysis at `servers`: building the transform (which
/// includes its spectral solve) and certified P90/P99, serially and pooled.
pub fn response_stage(servers: usize) -> Result<Vec<Row>, String> {
    let config = paper_config(servers);
    let fractions = [0.9, 0.99];
    let analysis = ResponseAnalysis::new(&config).map_err(|e| e.to_string())?;
    let transform_ms = median_ms(|| ResponseAnalysis::new(&config));
    let percentiles_ms = median_ms(|| analysis.response_time_percentiles(&fractions));
    let pooled = analysis.clone().with_pool(ThreadPool::new(POOLED_THREADS));
    let pooled_ms = median_ms(|| pooled.response_time_percentiles(&fractions));
    Ok(vec![
        label("response.n", "count", servers as f64),
        row("response.transform_ms", "ms", transform_ms),
        row("response.percentiles_ms", "ms", percentiles_ms),
        row("response.percentiles_ms.pooled", "ms", pooled_ms),
        row("response.truncation_levels", "count", analysis.transform().truncation_levels() as f64),
    ])
}

/// Times the `large-fleet` mix search at λ = 4, serially and pooled.
pub fn mix_stage() -> Result<Vec<Row>, String> {
    let err = |e: urs_core::ModelError| e.to_string();
    let line = workload::mix_search_line(4.0);
    let Ok(Query::MixSearch { arrival_rate, classes, cost, bounds }) = Query::parse_line(&line)
    else {
        return Err(format!("the mix search line does not parse: {line}"));
    };
    let search = MixSearch::new(arrival_rate, classes, cost, bounds).map_err(err)?;
    // A fresh private cache per run, as each distinct query would see.
    let run =
        |pool: &ThreadPool| search.clone().with_cache(Arc::new(SolverCache::new())).run_with(pool);
    let result = run(&ThreadPool::serial()).map_err(err)?;
    let serial_ms = median_ms(|| run(&ThreadPool::serial()));
    let pooled_ms = median_ms(|| run(&ThreadPool::new(POOLED_THREADS)));
    Ok(vec![
        row("mix.search_ms", "ms", serial_ms),
        row("mix.search_ms.pooled", "ms", pooled_ms),
        label("mix.candidates", "count", result.candidates() as f64),
        label("mix.screened", "bool", f64::from(u8::from(result.was_screened()))),
    ])
}
