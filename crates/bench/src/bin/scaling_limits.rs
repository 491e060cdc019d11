//! Section 4's closing remark: the exact spectral expansion starts to struggle for
//! large N while the geometric approximation remains robust.
//!
//! Sweeps the number of servers at a fixed utilisation, reporting for each N the number
//! of operational modes, how the methods' queue-length estimates compare, and the
//! wall-clock time of each solve — once on a single thread and once with the intra-solve
//! worker pool (`ThreadPool::default()`, i.e. `URS_THREADS` or the core count).  The
//! pooled solve is asserted **bit-identical** to the serial one (the determinism
//! contract of the parallel kernels); any mismatch exits non-zero, which is what the
//! CI thread-matrix leg runs this binary for under `URS_SMOKE=1`.  Each solver is
//! retired from the sweep once it fails or its faster execution exceeds a per-solve
//! time budget, and the run closes with the **maximum practical N** reached by every
//! solver — the headline number the reduction and blocked-kernel rewrites
//! moved (both exact solvers now clear N = 32; see README "Performance").
//!
//! Usage: `scaling_limits [max_n] [budget_seconds]`.  `URS_SMOKE=1` shrinks the sweep
//! to CI size.
//!
//! Besides the human-readable table, the run writes `BENCH_scaling.json` to the
//! working directory: per solver the maximum practical N, every per-N wall time
//! (serial and pooled), and the worker count — machine-readable so CI can upload the
//! artifact and regressions can be diffed without parsing the table.

use std::time::Instant;

use urs_bench::{figure5_lifecycle, smoke, system};
use urs_core::engine::json::{self, Value};
use urs_core::{
    GeometricApproximation, MatrixGeometricSolver, QueueSolver, SpectralExpansionSolver, ThreadPool,
};

/// One tracked solver: its display name, a serial and (optionally) a pooled instance,
/// and sweep state.
struct Tracked {
    name: &'static str,
    serial: Box<dyn QueueSolver>,
    /// The same method with a multi-worker pool injected; `None` for methods with no
    /// dense kernels worth parallelising (the geometric approximation).
    pooled: Option<Box<dyn QueueSolver>>,
    /// Largest N this solver completed within the budget.
    max_practical: Option<usize>,
    /// Set once the solver fails or blows the budget; it is then skipped.
    retired: Option<String>,
    /// Per-N measurements for the JSON artifact:
    /// `(n, modes, mean_queue_length, serial_seconds, pooled_seconds)`.
    runs: Vec<(usize, usize, f64, f64, Option<f64>)>,
}

/// The JSON artifact: the sweep's settings, then per solver its maximum practical
/// N, why it was retired and every per-N measurement.
fn scaling_json(solvers: &[Tracked], budget: f64, workers: usize) -> String {
    let optional = |value: Option<f64>| value.map_or(Value::Null, Value::Number);
    let solver_json = |tracked: &Tracked| {
        let runs = tracked.runs.iter().map(|&(n, modes, mean, serial, pooled)| {
            json::object([
                ("n", Value::Number(n as f64)),
                ("modes", Value::Number(modes as f64)),
                ("mean_queue_length", Value::Number(mean)),
                ("serial_seconds", Value::Number(serial)),
                ("pooled_seconds", optional(pooled)),
            ])
        });
        json::object([
            ("name", Value::String(tracked.name.to_string())),
            ("max_practical_n", optional(tracked.max_practical.map(|n| n as f64))),
            ("retired", tracked.retired.clone().map_or(Value::Null, Value::String)),
            ("runs", Value::Array(runs.collect())),
        ])
    };
    let artifact = json::object([
        ("utilisation", Value::Number(0.9)),
        ("budget_seconds", Value::Number(budget)),
        ("threads", Value::Number(workers as f64)),
        ("solvers", Value::Array(solvers.iter().map(solver_json).collect())),
    ]);
    artifact.serialise() + "\n"
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (default_max, default_budget) = if smoke() { (8, 5.0) } else { (48, 60.0) };
    let mut args = std::env::args().skip(1);
    let max_n: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(default_max);
    let budget: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(default_budget);
    let pool = ThreadPool::default();
    let workers = pool.threads();

    let mut solvers = vec![
        Tracked {
            name: "spectral expansion",
            serial: Box::new(SpectralExpansionSolver::default()),
            pooled: Some(Box::new(SpectralExpansionSolver::default().with_pool(pool.clone()))),
            max_practical: None,
            retired: None,
            runs: Vec::new(),
        },
        Tracked {
            name: "matrix geometric",
            serial: Box::new(MatrixGeometricSolver::default()),
            pooled: Some(Box::new(MatrixGeometricSolver::default().with_pool(pool.clone()))),
            max_practical: None,
            retired: None,
            runs: Vec::new(),
        },
        Tracked {
            name: "geometric approximation",
            serial: Box::new(GeometricApproximation::default()),
            pooled: None,
            max_practical: None,
            retired: None,
            runs: Vec::new(),
        },
    ];

    println!(
        "Solver scaling at utilisation 0.9 (per-solve budget {budget:.0}s, pool: {workers} workers)"
    );
    println!(
        "{:>4}  {:>6}  {:>23}  {:>12}  {:>10}  {:>10}",
        "N", "modes", "solver", "L", "1 thread", "pooled"
    );
    for n in (4..=max_n).step_by(2) {
        let lifecycle = figure5_lifecycle();
        let base = system(n, 0.9 * n as f64 * lifecycle.availability(), lifecycle);
        let modes = base.environment_states();
        for tracked in &mut solvers {
            if tracked.retired.is_some() {
                continue;
            }
            let start = Instant::now();
            let outcome = tracked.serial.solve(&base);
            let serial_elapsed = start.elapsed().as_secs_f64();
            let solution = match outcome {
                Ok(solution) => solution,
                Err(err) => {
                    println!(
                        "{:>4}  {:>6}  {:>23}  {:>12}  {:>9.3}s  {:>10}   failed: {err}",
                        n, modes, tracked.name, "-", serial_elapsed, "-"
                    );
                    tracked.retired = Some(format!("failed at N = {n}: {err}"));
                    continue;
                }
            };
            let mean = solution.mean_queue_length();
            let mut best_elapsed = serial_elapsed;
            let mut pooled_seconds = None;
            let pooled_cell = match &tracked.pooled {
                Some(pooled) => {
                    let start = Instant::now();
                    let pooled_solution = pooled.solve(&base)?;
                    let pooled_elapsed = start.elapsed().as_secs_f64();
                    best_elapsed = best_elapsed.min(pooled_elapsed);
                    // The determinism contract: the pool changes wall time, never bits.
                    let pooled_mean = pooled_solution.mean_queue_length();
                    if mean.to_bits() != pooled_mean.to_bits() {
                        return Err(format!(
                            "bit-identity violation: {} at N = {n}: serial L = {mean:e} \
                             vs pooled L = {pooled_mean:e}",
                            tracked.name
                        )
                        .into());
                    }
                    for level in 0..=n {
                        let (s, p) = (
                            solution.level_probability(level),
                            pooled_solution.level_probability(level),
                        );
                        if s.to_bits() != p.to_bits() {
                            return Err(format!(
                                "bit-identity violation: {} at N = {n}, level {level}: \
                                 serial {s:e} vs pooled {p:e}",
                                tracked.name
                            )
                            .into());
                        }
                    }
                    pooled_seconds = Some(pooled_elapsed);
                    format!("{pooled_elapsed:>9.3}s")
                }
                None => format!("{:>10}", "-"),
            };
            println!(
                "{:>4}  {:>6}  {:>23}  {:>12.4}  {:>9.3}s  {pooled_cell}",
                n, modes, tracked.name, mean, serial_elapsed
            );
            tracked.runs.push((n, modes, mean, serial_elapsed, pooled_seconds));
            if best_elapsed <= budget {
                tracked.max_practical = Some(n);
            } else {
                tracked.retired = Some(format!("exceeded {budget:.0}s budget at N = {n}"));
            }
        }
    }

    println!("\nMaximum practical N per solver (within the {budget:.0}s budget):");
    for tracked in &solvers {
        let reached =
            tracked.max_practical.map(|n| n.to_string()).unwrap_or_else(|| "none".to_string());
        match &tracked.retired {
            Some(reason) => println!("  {:<24} N = {reached}  ({reason})", tracked.name),
            None => println!("  {:<24} N = {reached}  (sweep limit reached)", tracked.name),
        }
    }
    std::fs::write("BENCH_scaling.json", scaling_json(&solvers, budget, workers))?;
    println!("\nWrote machine-readable sweep results to BENCH_scaling.json.");
    println!("Every pooled solve above was verified bit-identical to its serial run.");
    println!("\nPaper: for N greater than about 24 the exact solution warns of ill-conditioned");
    println!("matrices while the approximation shows no such problems; with the blocked");
    println!("kernels and cyclic reduction both exact solvers now clear the sweep.");
    Ok(())
}
