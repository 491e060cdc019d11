//! Analytic response-time distribution by uniformising the tagged customer's
//! absorption chain.
//!
//! Section 5 of the paper stops at the *mean* response time `W = L/λ`; the
//! distribution — the quantity an SLA is actually written against (P99 of response
//! time versus fleet size) — is left open, and until this module existed the repository
//! answered it only by simulation.  The analytic path has three stages:
//!
//! 1. **The absorption chain** ([`AbsorptionChain`]).  By PASTA, an arriving customer
//!    sees the stationary state `(mode m, level j)`.  Under FCFS with homogeneous
//!    servers and preempted jobs resuming in their original queue position, the tagged
//!    customer's remaining response time depends only on the jobs *ahead* of it, so it
//!    is the absorption time of a continuous-time chain on `(a ahead, mode m)`:
//!
//!    - the mode changes at the rates of `A`, leaving `a` alone;
//!    - a job ahead departs at rate `C_{min(a, N)}[m]`, moving the chain to `a − 1`;
//!    - for `a < N` the tagged customer itself completes at rate
//!      `(C_{a+1} − C_a)[m]` (non-zero exactly when a server is free for it), and the
//!      chain is absorbed.
//!
//!    Equivalently, the conditional Laplace–Stieltjes transform
//!    `φ_a[m] = E[e^{−sT} | a ahead, mode m]` satisfies the first-step recursion
//!
//!    ```text
//!    (sI + Dᴬ + C_{a+1} − A) φ_a = C_a φ_{a−1} + diag(C_{a+1} − C_a) · 1,   a < N
//!    (sI + Dᴬ + C_N    − A) φ_a = C_N φ_{a−1},                              a ≥ N
//!    ```
//!
//!    The chain starts from the arrival distribution `π(m, j)`, truncated where the
//!    stationary tail mass drops below [`ResponseOptions::tail_epsilon`].  The jobs
//!    ahead only ever decrease, so no level above the truncation is ever entered and
//!    the truncation loses exactly the tail mass, never more.  The chain — its
//!    per-level transition probabilities and the truncated arrival distribution — is
//!    immutable, so the queries of one engine plan share it.
//!
//! 2. **Uniformisation** (Jensen 1953; Grassmann 1977).  With
//!    `γ = maxₘ (Dᴬ − Aₘₘ + C_N)[m]` the chain becomes a discrete one stepped at the
//!    events of a Poisson process of rate `γ`.  One step keeps the fraction
//!    `1 − (Dᴬ − Aₘₘ + C_{min(a+1,N)})/γ` of each level's mass, moves mass between
//!    modes through `A`'s off-diagonals `/ γ`, brings mass down from level `a + 1` at
//!    `C_{min(a+1,N)}/γ`, and absorbs `(C_{a+1} − C_a)/γ` for `a < N`.  With `B_k` the
//!    mass absorbed within `k` steps,
//!
//!    ```text
//!    F(t) = Σ_k Pois(k; γt) · B_k,      f(t) = γ · Σ_k Pois(k; γt) · (B_{k+1} − B_k)
//!    ```
//!
//!    so one `B` sequence serves every `t` and every percentile fraction.  Every
//!    term is non-negative, which makes the evaluation **two-sided**: the lower bound
//!    sums the Poisson weights outward from the mode (Fox & Glynn 1988) until they
//!    fall below `1e-16`; the upper bound adds the Poisson mass left out (bounded by a
//!    geometric tail), the stationary mass lost to the truncation and the mass of the
//!    drained top levels the stepping stopped carrying (each dropped once its mass
//!    falls below `tail_epsilon / levels`, so at most `tail_epsilon` in all).  A value
//!    is **certified** when `upper − lower ≤`
//!    [`agreement_tolerance`](ResponseOptions::agreement_tolerance); a wider bracket
//!    is the deterministic error [`ModelError::BoundViolation`].  Each query steps a
//!    private cursor that extends `B` only as far as the Poisson window it needs; the
//!    stepping is serial, so every value is bit-identical on every pool and
//!    independent of what the cursor computed before.
//!
//! 3. **Percentiles** by bracket expansion from the mean plus a safeguarded Newton
//!    iteration on the lower bound, whose density is a by-product of the same window;
//!    ascending fractions share one cursor, and each answer is certified by its own
//!    bracket.
//!
//! **The independent certifier.**  The transform of stage 1 can also be evaluated
//! directly ([`ResponseAnalysis::lst`]) and inverted by Euler summation on the
//! Bromwich line (Abate & Whitt, ORSA J. Computing 7, 1995) through the generic
//! [`invert_lst`] / [`invert_lst_cdf`].  That path shares nothing with the stepping
//! but the QBD blocks and the arrival distribution, and the test suites hold the
//! uniformised values to it; the engine never runs it.  It rests on one structural
//! fact: each server's phase chain is a star (exponential repair) or a complete
//! bipartite graph with product-form rates (hyperexponential periods), so Kolmogorov's
//! criterion makes it reversible, and independent servers, lumped into occupancy
//! counts, keep it so — the mode chain `A` satisfies detailed balance
//! `π_i·A_ij = π_j·A_ji`.  With `W = diag(√π)` every resolvent base is similar to the
//! real symmetric `W·(Dᴬ + C − A)·W⁻¹ = diag(Dᴬ + C) − S`, `S_ij = √(A_ij·A_ji)`
//! ([`QbdSkeleton::symmetric_generator`], weights cached with the skeleton), with
//! a real orthonormal eigenbasis `V` and eigenvalues `λ_k ≥ 0`.  The transform
//! diagonalises the `N` distinct bases once with [`urs_linalg::symmetric_eigen`] and
//! runs the recursion in the eigen-coordinates `χ_a = Vᵀ·W·φ_a`:
//!
//! ```text
//! χ_a = (sI + Λ_a)⁻¹ · (V_aᵀ C_a V_{a−1} · χ_{a−1} + V_aᵀ W diag(C_{a+1} − C_a) 1)
//! W*(s) = Σ_a (V_aᵀ W⁻¹ π_a) · χ_a
//! ```
//!
//! — one real [`Matrix::gemm`] per level and no factorisation at any node.  It is
//! assembled on the first [`ResponseAnalysis::lst`] call and kept by that analysis
//! only.  The property-based round-trip suite in `tests/` pins the Euler inverter against
//! the closed-form distributions of `urs_dist`.
//!
//! Heterogeneous fleets are rejected: with class-dependent service rates the jobs
//! *behind* the tagged customer influence which server it eventually obtains, the
//! ahead-count chain above no longer closes, and the conditioning needs the full
//! order of the queue.  Extending the analysis to that case is tracked in the
//! ROADMAP.

use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

use urs_linalg::{symmetric_eigen, Complex, LinalgError, Matrix, Workspace};

use crate::cache::{allocation_bytes, qbd_matrices, SolverCache};
use crate::config::{ServerClass, SystemConfig};
use crate::error::ModelError;
use crate::matrix_geometric::{MatrixGeometricOptions, MatrixGeometricSolver};
use crate::parallel::ThreadPool;
use crate::qbd::QbdSkeleton;
use crate::solution::QueueSolution;
use crate::Result;

/// Tuning knobs of the Euler inversion quadrature.
///
/// The defaults reproduce the standard published parameter choices and give roughly
/// ten significant digits for the smooth, bounded transforms this crate produces;
/// they rarely need changing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InversionOptions {
    /// Bromwich-line offset `A` of the Euler method.  The discretisation error is
    /// approximately `e^{−A}`, so the default `ln(10¹⁰)` targets `1e-10`.
    pub euler_decay: f64,
    /// Terms summed verbatim before Euler acceleration starts.
    pub euler_burn_in: usize,
    /// Partial sums combined by the binomial (Euler) average.
    pub euler_average: usize,
}

impl Default for InversionOptions {
    fn default() -> Self {
        InversionOptions {
            // ln(1e10), written out so the default is a compile-time constant.
            euler_decay: 23.025_850_929_940_457,
            euler_burn_in: 21,
            euler_average: 13,
        }
    }
}

impl InversionOptions {
    fn validate(&self) -> Result<()> {
        if !(self.euler_decay.is_finite() && self.euler_decay > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "euler_decay",
                value: self.euler_decay,
                constraint: "the Bromwich offset must be positive and finite",
            });
        }
        if self.euler_average == 0 {
            return Err(ModelError::InvalidParameter {
                name: "euler_average",
                value: 0.0,
                constraint: "at least one partial sum must enter the Euler average",
            });
        }
        Ok(())
    }

    /// The Euler quadrature rule at time `t`: pairs `(sₖ, wₖ)` on the Bromwich line
    /// `Re s = A/(2t)` such that `f(t) ≈ Σₖ Re(wₖ · F(sₖ))`.
    fn quadrature(&self, t: f64) -> Vec<(Complex, Complex)> {
        let a = self.euler_decay;
        let n = self.euler_burn_in;
        let m = self.euler_average;
        // Binomial weights C(m, j)/2^m of the Euler average of S_n..S_{n+m}.
        let mut binom = vec![0.0; m + 1];
        // urs-analyze: allow(slice_index, reason = "binom has m + 1 entries; j ranges over 0..=m")
        binom[0] = 0.5f64.powi(m as i32);
        for j in 1..=m {
            // urs-analyze: allow(slice_index, reason = "binom has m + 1 entries; j ranges over 0..=m")
            binom[j] = binom[j - 1] * (m - j + 1) as f64 / j as f64;
        }
        // Collapsing the averaged partial sums into one weighted sum over terms:
        // term k carries full weight while every averaged sum includes it, then the
        // binomial tail mass Σ_{j ≥ k−n} C(m,j)/2^m.
        let prefactor = (a / 2.0).exp() / t;
        let mut nodes = Vec::with_capacity(n + m + 1);
        let mut tail = 1.0;
        for k in 0..=(n + m) {
            let coefficient = if k <= n {
                1.0
            } else {
                tail -= binom.get(k - n - 1).copied().unwrap_or(0.0);
                tail
            };
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            let half = if k == 0 { 0.5 } else { 1.0 };
            let node = Complex::new(a / (2.0 * t), k as f64 * PI / t);
            nodes.push((node, Complex::from_real(prefactor * sign * half * coefficient)));
        }
        nodes
    }
}

fn validate_time(t: f64) -> Result<()> {
    if !(t.is_finite() && t > 0.0) {
        return Err(ModelError::InvalidParameter {
            name: "t",
            value: t,
            constraint: "response-time evaluation requires a finite time t > 0",
        });
    }
    Ok(())
}

/// Inverts a Laplace transform `F(s) = ∫ e^{−st} f(t) dt` at `t > 0` by Euler
/// summation on the Bromwich line (Abate–Whitt), evaluating the transform through the
/// supplied closure.
///
/// The closure may fail (a resolvent solve hitting a singular matrix, say); the error
/// is propagated unchanged.
///
/// # Errors
///
/// Rejects non-positive or non-finite `t` and invalid options, and propagates
/// evaluation failures.
pub fn invert_lst<F>(mut transform: F, t: f64, options: &InversionOptions) -> Result<f64>
where
    F: FnMut(Complex) -> Result<Complex>,
{
    validate_time(t)?;
    options.validate()?;
    let mut value = 0.0;
    for (s, w) in options.quadrature(t) {
        value += (w * transform(s)?).re;
    }
    Ok(value)
}

/// Inverts the Laplace–*Stieltjes* transform `E[e^{−sX}]` of a non-negative random
/// variable into its CDF at `t`, i.e. inverts `F(s)/s`.
///
/// Values are clamped to `[0, 1]`: the quadrature error can push an exact 0 or 1
/// slightly outside the unit interval.  `t ≤ 0` returns 0 without evaluating the
/// transform.
///
/// # Errors
///
/// Rejects non-finite `t` and invalid options, and propagates evaluation failures.
pub fn invert_lst_cdf<F>(mut transform: F, t: f64, options: &InversionOptions) -> Result<f64>
where
    F: FnMut(Complex) -> Result<Complex>,
{
    if t <= 0.0 {
        if t.is_nan() {
            return Err(ModelError::InvalidParameter {
                name: "t",
                value: t,
                constraint: "the CDF argument must not be NaN",
            });
        }
        return Ok(0.0);
    }
    let raw = invert_lst(|s| Ok(transform(s)? * s.recip()), t, options)?;
    Ok(raw.clamp(0.0, 1.0))
}

/// Options of the response-time analysis: the certification and percentile
/// tolerances, the stationary-tail truncation and the options of the
/// matrix-geometric solve that yields the arrival-state distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseOptions {
    /// Largest width `upper − lower` of the two-sided CDF bound at which a value is
    /// certified; a wider bound raises [`ModelError::BoundViolation`].  The width is
    /// the truncated and dropped mass (at most `2·tail_epsilon`) plus the Poisson
    /// mass left out of the window (below `1e-15`), so the default `1e-7` leaves
    /// orders of magnitude of slack at the default `tail_epsilon`.
    pub agreement_tolerance: f64,
    /// Relative width at which the percentile bracket is considered converged.
    pub percentile_tolerance: f64,
    /// Stationary tail mass at which the arrival-state distribution is truncated;
    /// the truncated mass enters the upper bound of every CDF value.
    pub tail_epsilon: f64,
    /// Options of the matrix-geometric solve producing the stationary distribution.
    pub matrix_geometric: MatrixGeometricOptions,
}

impl Default for ResponseOptions {
    fn default() -> Self {
        ResponseOptions {
            agreement_tolerance: 1e-7,
            percentile_tolerance: 1e-10,
            tail_epsilon: 1e-12,
            matrix_geometric: MatrixGeometricOptions::default(),
        }
    }
}

impl ResponseOptions {
    fn validate(&self) -> Result<()> {
        if !(self.agreement_tolerance.is_finite() && self.agreement_tolerance > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "agreement_tolerance",
                value: self.agreement_tolerance,
                constraint: "the certification tolerance must be positive and finite",
            });
        }
        if !(self.percentile_tolerance.is_finite() && self.percentile_tolerance > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "percentile_tolerance",
                value: self.percentile_tolerance,
                constraint: "the percentile tolerance must be positive and finite",
            });
        }
        if !(self.tail_epsilon > 0.0 && self.tail_epsilon < 1.0) {
            return Err(ModelError::InvalidParameter {
                name: "tail_epsilon",
                value: self.tail_epsilon,
                constraint: "the tail truncation mass must lie strictly between 0 and 1",
            });
        }
        Ok(())
    }
}

/// Poisson weights below this are left out of a window; the mass beyond the cut is
/// bounded by a geometric tail and added to the upper bound.
const POISSON_CUTOFF: f64 = 1e-16;

/// Most uniformised steps one evaluation may need (`γt` stays below it), and the
/// most level-mode updates one cursor may make: a CDF asked for further out, or of a
/// chain too large to step that far, is a deterministic error, not an unbounded
/// loop.  Legitimate SLA questions stay far below both (P999 at N = 8, ρ = 0.95
/// takes ~3,600 steps and ~10⁸ updates).
const MAX_STEPS: usize = 1 << 20;
const MAX_UPDATES: u64 = 1 << 32;

/// Below this mode the Poisson weight is computed as a direct product; from it on,
/// through Stirling's series, whose truncation error is then below `1e-16`.
const STIRLING_FROM: usize = 64;

/// The tagged customer's absorption chain of one configuration, uniformised (stages 1
/// and 2 of the module docs): per-level step probabilities, the mode changes gathered
/// by destination, and the truncated arrival-state distribution.
///
/// Immutable and shared: the engine's plan store holds it for the queries of one
/// plan, charged at its real heap size.  Queries step private cursors over it, so
/// it never grows.
#[derive(Debug)]
pub struct AbsorptionChain {
    order: usize,
    servers: usize,
    mean_response_time: f64,
    /// The uniformisation rate `γ`.
    rate: f64,
    /// Per mode, `N` entries for the levels `a = 0..N−1`:
    /// `1 − (Dᴬ − Aₘₘ + C_{a+1})/γ`, the chance of staying put.  The last entry also
    /// serves every level above.
    stay: Vec<f64>,
    /// Per mode, `C_{a+1}/γ` for `a = 0..N−1`: the chance that a job ahead departs
    /// and brings mass from level `a + 1` down to `a`.  The last entry also serves
    /// every level above.
    down: Vec<f64>,
    /// Per mode, `(C_{a+1} − C_a)/γ` for `a = 0..N−1`: the chance that the tagged
    /// customer completes.
    absorb: Vec<f64>,
    /// The mode changes `(m, i, A_im/γ)` for every `i ≠ m` moving into `m`,
    /// ascending in `m`, then in `i`.
    moves: Vec<(usize, usize, f64)>,
    /// The truncated arrival-state distribution `π(m, a)`, level-major, `s` per level.
    arrivals: Vec<f64>,
    residual_mass: f64,
    /// Largest mass of a drained top level the stepping may drop.
    drop_mass: f64,
}

impl AbsorptionChain {
    /// Builds the chain from a QBD skeleton and any stationary solution of the same
    /// model (matrix-geometric or spectral).
    pub(crate) fn build(
        skeleton: &QbdSkeleton,
        solution: &dyn QueueSolution,
        tail_epsilon: f64,
    ) -> Result<Self> {
        let order = skeleton.order();
        if solution.mode_count() != order {
            return Err(ModelError::InvalidParameter {
                name: "mode_count",
                value: solution.mode_count() as f64,
                constraint: "the solution must describe the same mode space as the skeleton",
            });
        }
        let servers = skeleton.servers();
        let a = skeleton.a();
        let rate_of = |i: usize, j: usize| a.get(i, j).unwrap_or(0.0);
        let outflow: Vec<f64> =
            skeleton.da().iter().enumerate().map(|(m, d)| d - rate_of(m, m)).collect();
        let rate = outflow
            .iter()
            .zip(skeleton.c())
            .fold(0.0_f64, |largest, (out, departures)| largest.max(out + departures));
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ModelError::Internal("the absorption chain has no positive event rate"));
        }
        let departures =
            |level: usize, m: usize| skeleton.c_level(level).get(m).copied().unwrap_or(0.0);
        let capacity = order * servers;
        let (mut stay, mut down, mut absorb) = (
            Vec::with_capacity(capacity),
            Vec::with_capacity(capacity),
            Vec::with_capacity(capacity),
        );
        for (m, out) in outflow.iter().enumerate() {
            for level in 0..servers {
                let (here, next) = (departures(level, m), departures(level + 1, m));
                stay.push(1.0 - (out + next) / rate);
                down.push(next / rate);
                absorb.push((next - here) / rate);
            }
        }
        let moves = (0..order)
            .flat_map(|m| (0..order).map(move |i| (m, i)))
            .filter(|&(m, i)| i != m && rate_of(i, m) > 0.0)
            .map(|(m, i)| (m, i, rate_of(i, m) / rate))
            .collect();
        // Always keep at least one repeating level so the shared repeating rows are
        // exercised even when the boundary already holds nearly all the mass.
        let (levels, residual_mass) =
            solution.arrival_state_distribution(tail_epsilon, servers + 1)?;
        let drop_mass = tail_epsilon / levels.len() as f64;
        Ok(AbsorptionChain {
            order,
            servers,
            mean_response_time: solution.mean_response_time(),
            rate,
            stay,
            down,
            absorb,
            moves,
            arrivals: levels.concat(),
            residual_mass,
            drop_mass,
        })
    }

    /// Number of stationary levels retained by the tail truncation.
    pub fn truncation_levels(&self) -> usize {
        self.arrivals.len() / self.order.max(1)
    }

    /// Stationary mass beyond the truncation; it enters every upper bound.
    pub fn residual_mass(&self) -> f64 {
        self.residual_mass
    }

    /// Mean response time of the underlying solution (Little's law), used to seed
    /// the percentile bracket.
    pub fn mean_response_time(&self) -> f64 {
        self.mean_response_time
    }

    /// Heap footprint the engine's plan store charges for this chain: the struct,
    /// the step probabilities, the mode-change lists and the arrival distribution.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of::<Self>()
            + allocation_bytes(&self.stay)
            + allocation_bytes(&self.down)
            + allocation_bytes(&self.absorb)
            + allocation_bytes(&self.moves)
            + allocation_bytes(&self.arrivals)
    }

    /// One uniformised step of the levels `0..top` from `mass` into `next`, both
    /// mode-major with `levels` entries per mode; returns the mass absorbed by it.
    ///
    /// Each pass runs along the levels of one mode, so every term is a contiguous
    /// multiply-add, and every entry receives its terms in a fixed order: staying
    /// put, the mode changes (ascending `(to, from)`), arrival from above.
    fn step(&self, mass: &[f64], next: &mut [f64], levels: usize, top: usize) -> f64 {
        let servers = self.servers;
        let span = |m: usize, lo: usize, hi: usize| m * levels + lo..m * levels + hi;
        // urs-analyze: begin(no_alloc)
        for (m, stay) in self.stay.chunks_exact(servers).enumerate() {
            if let (Some(out), Some(here)) =
                (next.get_mut(span(m, 0, top)), mass.get(span(m, 0, top)))
            {
                per_level(out, here, stay, |x, c, y| *x = c * y);
            }
        }
        for &(to, from, p) in &self.moves {
            if let (Some(out), Some(here)) =
                (next.get_mut(span(to, 0, top)), mass.get(span(from, 0, top)))
            {
                for (x, h) in out.iter_mut().zip(here) {
                    *x += p * h;
                }
            }
        }
        // Every level but the top receives mass from the level above it.
        let below = top - 1;
        for (m, down) in self.down.chunks_exact(servers).enumerate() {
            if let (Some(out), Some(above)) =
                (next.get_mut(span(m, 0, below)), mass.get(span(m, 1, top)))
            {
                per_level(out, above, down, |x, c, y| *x += c * y);
            }
        }
        let mut absorbed = 0.0;
        for level in 0..top.min(servers) {
            for (row, completions) in
                mass.chunks_exact(levels).zip(self.absorb.chunks_exact(servers))
            {
                if let (Some(x), Some(p)) = (row.get(level), completions.get(level)) {
                    absorbed += p * x;
                }
            }
        }
        // urs-analyze: end(no_alloc)
        absorbed
    }
}

/// Applies `apply(out[a], c_a, src[a])` along the levels `a` of one mode, where `c_a`
/// is entry `a` of `coefficients` (one per level below `N`, the last also serving
/// every level above).  Splitting the run at `N` up front keeps both loops plain
/// element-wise passes.
fn per_level(
    out: &mut [f64],
    src: &[f64],
    coefficients: &[f64],
    apply: impl Fn(&mut f64, f64, f64),
) {
    let (near, far) = out.split_at_mut(coefficients.len().min(out.len()));
    for ((x, &y), &c) in near.iter_mut().zip(src).zip(coefficients) {
        apply(x, c, y);
    }
    let c = coefficients.last().copied().unwrap_or(0.0);
    for (x, &y) in far.iter_mut().zip(src.get(near.len()..).unwrap_or_default()) {
        apply(x, c, y);
    }
}

/// Two-sided bounds on the response-time CDF at one `t`, with the density of the
/// lower bound.
struct Bounds {
    lower: f64,
    upper: f64,
    density: f64,
}

/// A query's private walk over an [`AbsorptionChain`]: the level masses after the
/// steps taken so far and, after each of them, the mass absorbed and the mass
/// dropped with drained top levels.
///
/// It only ever extends, so every value it returns is a function of the chain and the
/// argument alone, never of what the cursor computed before.
struct Cursor<'a> {
    chain: &'a AbsorptionChain,
    /// Retained levels: `mass` and `next` hold this many entries per mode.
    levels: usize,
    mass: Vec<f64>,
    next: Vec<f64>,
    /// Levels still carried; the ones above were drained and dropped.
    top: usize,
    /// `(B_k, dropped mass)` after `k = 0..` steps.
    history: Vec<(f64, f64)>,
    /// Level-mode updates made so far, against [`MAX_UPDATES`].
    updates: u64,
    /// Scratch for the Poisson window of one evaluation.
    weights: Vec<f64>,
}

impl<'a> Cursor<'a> {
    fn new(chain: &'a AbsorptionChain) -> Self {
        let levels = chain.truncation_levels();
        let mut mass = vec![0.0; chain.arrivals.len()];
        for (level, probabilities) in chain.arrivals.chunks_exact(chain.order).enumerate() {
            for (m, p) in probabilities.iter().enumerate() {
                if let Some(x) = mass.get_mut(m * levels + level) {
                    *x = *p;
                }
            }
        }
        let mut cursor = Cursor {
            chain,
            levels,
            next: vec![0.0; mass.len()],
            mass,
            top: levels,
            history: Vec::new(),
            updates: 0,
            weights: Vec::new(),
        };
        let dropped = cursor.drop_drained(0.0);
        cursor.history.push((0.0, dropped));
        cursor
    }

    /// Drops top levels whose mass fell to `drop_mass`; nothing re-enters them, as
    /// mass only moves down.  Returns the running dropped mass.
    fn drop_drained(&mut self, mut dropped: f64) -> f64 {
        while let Some(level) = self.top.checked_sub(1) {
            let mass: f64 =
                self.mass.chunks_exact(self.levels).map(|row| row.get(level).unwrap_or(&0.0)).sum();
            if mass > self.chain.drop_mass {
                break;
            }
            dropped += mass;
            self.top = level;
        }
        dropped
    }

    /// Steps until `B_k` is known, or every level has drained (`B` is then constant).
    fn extend_to(&mut self, k: usize) -> Result<()> {
        while self.history.len() <= k && self.top > 0 {
            self.updates += (self.top * self.chain.order) as u64;
            if self.updates > MAX_UPDATES {
                return Err(ModelError::NoConvergence {
                    algorithm: "uniformised absorption stepping",
                    iterations: self.history.len(),
                });
            }
            let absorbed = self.chain.step(&self.mass, &mut self.next, self.levels, self.top);
            std::mem::swap(&mut self.mass, &mut self.next);
            let (total, dropped) = self.history.last().copied().unwrap_or_default();
            let dropped = self.drop_drained(dropped);
            self.history.push((total + absorbed, dropped));
        }
        Ok(())
    }

    /// `(B_k, dropped mass)` after `k` steps; past a full drain both stay constant.
    fn after(&self, k: usize) -> (f64, f64) {
        self.history.get(k).or(self.history.last()).copied().unwrap_or((0.0, 0.0))
    }

    /// The two-sided bounds of the module docs at `t > 0`.
    fn bounds(&mut self, t: f64) -> Result<Bounds> {
        validate_time(t)?;
        let x = self.chain.rate * t;
        if x >= MAX_STEPS as f64 {
            return Err(ModelError::NoConvergence {
                algorithm: "uniformised absorption stepping",
                iterations: MAX_STEPS,
            });
        }
        let (first, omitted) = poisson_window(x, &mut self.weights);
        let last = first + self.weights.len().saturating_sub(1);
        self.extend_to(last + 1)?;
        let (mut lower, mut density) = (0.0, 0.0);
        for (k, w) in (first..).zip(&self.weights) {
            let (b, _) = self.after(k);
            let (b_next, _) = self.after(k + 1);
            lower += w * b;
            density += w * (b_next - b);
        }
        let (_, dropped) = self.after(last);
        let upper = lower + omitted + self.chain.residual_mass + dropped;
        Ok(Bounds { lower, upper, density: self.chain.rate * density })
    }
}

/// The Poisson weights `Pois(k; x)` from the mode outward until they fall below
/// [`POISSON_CUTOFF`], written to `weights` in ascending `k`; returns the first `k`
/// and a bound on the mass left out on both sides.
fn poisson_window(x: f64, weights: &mut Vec<f64>) -> (usize, f64) {
    // x < MAX_STEPS, so the mode fits a usize exactly.
    let mode = x.floor() as usize;
    let peak = poisson_mode_weight(x, mode);
    weights.clear();
    let (mut k, mut w, mut omitted) = (mode, peak, 0.0);
    // Left of the mode the ratio p_{j−1}/p_j = j/x falls as j falls, so the mass
    // below the cut is at most p_{k−1}/(1 − (k−1)/x).
    while k > 0 {
        let below = w * k as f64 / x;
        if below < POISSON_CUTOFF {
            omitted += below / (1.0 - (k - 1) as f64 / x);
            break;
        }
        weights.push(below);
        w = below;
        k -= 1;
    }
    let first = k;
    weights.reverse();
    weights.push(peak);
    // Right of the mode p_{j+1}/p_j = x/(j+1) falls too: the mass above the cut is at
    // most p_{k+1}/(1 − x/(k+2)).
    let (mut k, mut w) = (mode, peak);
    loop {
        let above = w * x / (k + 1) as f64;
        if above < POISSON_CUTOFF {
            omitted += above / (1.0 - x / (k + 2) as f64);
            break;
        }
        weights.push(above);
        w = above;
        k += 1;
    }
    (first, omitted)
}

/// `Pois(mode; x)` for `mode = ⌊x⌋`, computed in log space for large modes:
/// `m·ln(1 + δ/m) − δ − ½ln(2πm) − (1/(12m) − 1/(360m³) + 1/(1260m⁵))` with
/// `δ = x − m`, which never forms the huge `e^{−x}` or `x^m/m!`.
fn poisson_mode_weight(x: f64, mode: usize) -> f64 {
    if mode < STIRLING_FROM {
        return (1..=mode).fold((-x).exp(), |p, k| p * x / k as f64);
    }
    let m = mode as f64;
    let delta = x - m;
    let inverse = 1.0 / m;
    let squared = inverse * inverse;
    let series = inverse * (1.0 / 12.0 - squared * (1.0 / 360.0 - squared / 1260.0));
    (m * (delta / m).ln_1p() - delta - 0.5 * (2.0 * PI * m).ln() - series).exp()
}

/// The transform of the module docs in the eigenbases of the symmetrised resolvents —
/// eigenvalues per distinct base, transfer matrices between consecutive bases,
/// completion vectors and the projected arrival-state distribution, all real.
///
/// The independent certifier's half of the analysis: assembled on the first
/// [`ResponseAnalysis::lst`] call, never on the percentile path.
#[derive(Debug)]
pub(crate) struct ResponseTransform {
    order: usize,
    servers: usize,
    /// Eigenvalues `λ_k` of the symmetrised base of levels `a = 0..N−1`, `s` per
    /// level; the last base `Dᴬ + C_N − A` also serves every repeating level.
    eigenvalues: Vec<f64>,
    /// Transposed transfer matrices `(V_aᵀ C_a V_{a−1})ᵀ` for `a = 1..N−1`, then the
    /// repeating-level one `(V_{N−1}ᵀ C_N V_{N−1})ᵀ`.
    transfers: Vec<Matrix>,
    /// `V_aᵀ W diag(C_{a+1} − C_a) 1` for `a = 0..N−1`, `s` per level: the tagged
    /// job's completion rates in eigen-coordinates.
    completions: Vec<f64>,
    /// Row `a` is `V_aᵀ W⁻¹ π_a` for each retained level `a`: the truncated
    /// arrival-state distribution (PASTA) projected onto the level's eigenbasis.
    arrival_levels: Matrix,
}

impl ResponseTransform {
    /// Assembles the transform from a QBD skeleton and the truncated arrival-state
    /// distribution `arrivals` (level-major, `s` per level) of the same model.
    fn assemble(skeleton: &QbdSkeleton, arrivals: &[f64]) -> Result<Self> {
        let order = skeleton.order();
        let servers = skeleton.servers();
        // The weights themselves, largest 1; a distribution spanning more than the
        // floating-point range underflows some of them, and the transform, which
        // scales by them directly, rules that out.
        let log_weights = skeleton.log_weights()?;
        let weights: Vec<f64> = log_weights.iter().map(|l| l.exp()).collect();
        if let Some((&log, _)) = log_weights.iter().zip(&weights).find(|(_, w)| **w <= 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "mode_chain",
                value: log,
                constraint: "the response-time transform needs symmetrising weights \
                             within the floating-point range",
            });
        }
        // One symmetric eigensystem per distinct base `diag(Dᴬ + C_{a+1}) − S`.
        let mut eigenvalues = Vec::with_capacity(servers * order);
        let mut bases = Vec::with_capacity(servers);
        for level in 1..=servers {
            let base = skeleton.symmetric_generator(skeleton.c_level(level))?;
            let eigen = symmetric_eigen(&base)?;
            eigenvalues.extend(eigen.values);
            bases.push(eigen.vectors);
        }
        let basis = |level: usize| bases.get(level.min(servers - 1));
        let missing = || ModelError::Internal("transform is missing a level eigenbasis");
        // Per level a < N: the completion vector `V_aᵀ W (C_{a+1} − C_a) 1` and the
        // transposed transfer `V_aᵀ C_{a+1} V_{a+1}` into level a + 1; the last one,
        // between two copies of the repeating base, serves every level from N on.
        let mut transfers = Vec::with_capacity(servers);
        let mut completions = Vec::with_capacity(servers * order);
        for level in 0..servers {
            let (Some(current), Some(next)) = (basis(level), basis(level + 1)) else {
                return Err(missing());
            };
            let departures = skeleton.c_level(level + 1);
            let weighted: Vec<f64> = departures
                .iter()
                .zip(skeleton.c_level(level))
                .zip(&weights)
                .map(|((after, before), w)| w * (after - before))
                .collect();
            completions.extend(current.vecmat(&weighted)?);
            let mut left = current.transpose();
            left.scale_columns(departures)?;
            let mut transfer = Matrix::zeros(order, order);
            transfer.gemm(1.0, &left, next, 0.0)?;
            transfers.push(transfer);
        }
        let mut arrival_levels = Vec::with_capacity(arrivals.len());
        for (level, probabilities) in arrivals.chunks_exact(order).enumerate() {
            let weighted: Vec<f64> =
                probabilities.iter().zip(&weights).map(|(p, w)| p / w).collect();
            arrival_levels.extend(basis(level).ok_or_else(missing)?.vecmat(&weighted)?);
        }
        let arrival_levels = Matrix::from_vec(arrivals.len() / order, order, arrival_levels)?;
        Ok(ResponseTransform {
            order,
            servers,
            eigenvalues,
            transfers,
            completions,
            arrival_levels,
        })
    }

    /// Evaluates the unconditional response-time LST `W*(s) = E[e^{−sT}]` with
    /// scratch storage drawn from `workspace`.
    ///
    /// The level recursion runs in the eigen-coordinates of the module docs: per
    /// level one real product of the `2 × s` block `[Re χ; Im χ]` with the level's
    /// transfer matrix, then a diagonal complex scaling by `1/(s + λ_k)`.  Every
    /// buffer is recycled through the workspace pool, so repeated evaluations (one
    /// per quadrature node) allocate nothing after the first.
    ///
    /// # Errors
    ///
    /// [`ModelError::Linalg`] when `s` hits a singularity `s = −λ_k` of a resolvent
    /// (only possible on the negative real axis, which no quadrature node visits).
    fn lst_with(&self, s: Complex, workspace: &mut Workspace) -> Result<Complex> {
        let mut inverse = workspace.real_buffer(2 * self.eigenvalues.len());
        let mut chi = workspace.real_matrix(2, self.order);
        let mut next = workspace.real_matrix(2, self.order);
        let result = self.recurse(s, &mut inverse, &mut chi, &mut next);
        workspace.release_real_matrix(chi);
        workspace.release_real_matrix(next);
        workspace.release_real_buffer(inverse);
        result
    }

    /// The level recursion behind [`lst_with`](Self::lst_with); `inverse` receives
    /// `1/(s + λ_k)` for every distinct base as interleaved `(re, im)` pairs, and
    /// `chi` and `next` are zeroed `2 × s` scratch blocks.
    fn recurse(
        &self,
        s: Complex,
        inverse: &mut [f64],
        chi: &mut Matrix,
        next: &mut Matrix,
    ) -> Result<Complex> {
        let order = self.order;
        for (k, (pair, &lambda)) in inverse.chunks_exact_mut(2).zip(&self.eigenvalues).enumerate() {
            let shifted = s + lambda;
            if shifted.abs() <= f64::EPSILON * (s.abs() + lambda.abs()) {
                return Err(LinalgError::Singular { pivot: k % order }.into());
            }
            let value = shifted.recip();
            pair.copy_from_slice(&[value.re, value.im]);
        }
        let mut total = Complex::ZERO;
        for (level, arrivals) in self.arrival_levels.as_slice().chunks_exact(order).enumerate() {
            if level > 0 {
                let transfer = self
                    .transfers
                    .get(level.min(self.servers) - 1)
                    .ok_or(ModelError::Internal("transform is missing a transfer matrix"))?;
                next.gemm(1.0, chi, transfer, 0.0)?;
                std::mem::swap(chi, next);
            }
            let (re, im) = chi.as_mut_slice().split_at_mut(order);
            if let Some(completion) = self.completions.get(level * order..(level + 1) * order) {
                for (x, c) in re.iter_mut().zip(completion) {
                    *x += c;
                }
            }
            let base = level.min(self.servers - 1);
            let scales = inverse.chunks_exact(2).skip(base * order);
            for (((x, y), scale), p) in re.iter_mut().zip(im.iter_mut()).zip(scales).zip(arrivals) {
                let &[scale_re, scale_im] = scale else { continue };
                let value = Complex::new(*x, *y) * Complex::new(scale_re, scale_im);
                *x = value.re;
                *y = value.im;
                total += value * *p;
            }
        }
        Ok(total)
    }
}

/// The analytic response-time distribution of one system configuration.
///
/// Construction solves the stationary model once and builds the
/// [`AbsorptionChain`]; afterwards every query — [`response_time_cdf`], a
/// [`response_time_percentile`], the raw [`lst`] — is pure numerics with no further
/// stationary solves.  Use [`with_cache`] to reuse the QBD skeleton across
/// configurations and threads.
///
/// [`response_time_cdf`]: Self::response_time_cdf
/// [`response_time_percentile`]: Self::response_time_percentile
/// [`lst`]: Self::lst
/// [`with_cache`]: Self::with_cache
#[derive(Debug, Clone)]
pub struct ResponseAnalysis {
    chain: Arc<AbsorptionChain>,
    options: ResponseOptions,
    /// The fleet, kept to rebuild the skeleton for the transform on demand.
    classes: Vec<ServerClass>,
    /// The eigen-basis transform, assembled by the first [`lst`](Self::lst) call.
    transform: OnceLock<Arc<ResponseTransform>>,
}

impl ResponseAnalysis {
    /// Analyses `config` with default options, solving it with the
    /// [`MatrixGeometricSolver`].
    ///
    /// # Errors
    ///
    /// Rejects unstable and heterogeneous configurations (the absorption chain
    /// requires identical servers; see the module docs) and propagates solver
    /// failures.
    pub fn new(config: &SystemConfig) -> Result<Self> {
        Self::with_options(config, ResponseOptions::default())
    }

    /// Analyses `config` with explicit options.
    ///
    /// # Errors
    ///
    /// As [`ResponseAnalysis::new`], plus invalid options.
    pub fn with_options(config: &SystemConfig, options: ResponseOptions) -> Result<Self> {
        Self::build(config, options, None)
    }

    /// Analyses `config` on the QBD skeleton from `cache` (built and cached on first
    /// use).
    ///
    /// # Errors
    ///
    /// As [`ResponseAnalysis::with_options`].
    pub fn with_cache(
        config: &SystemConfig,
        options: ResponseOptions,
        cache: &Arc<SolverCache>,
    ) -> Result<Self> {
        Self::build(config, options, Some(cache))
    }

    /// Builds the analysis from an externally computed stationary solution — any
    /// [`QueueSolution`] of the same model, e.g. from the spectral expansion —
    /// instead of solving it with the [`MatrixGeometricSolver`].
    ///
    /// # Errors
    ///
    /// As [`ResponseAnalysis::with_options`], plus a mode-count mismatch between
    /// `config` and `solution`.
    pub fn from_solution(
        config: &SystemConfig,
        solution: &dyn QueueSolution,
        options: ResponseOptions,
    ) -> Result<Self> {
        Self::validate_config(config)?;
        options.validate()?;
        let skeleton = QbdSkeleton::for_classes(config.classes())?;
        let chain = Arc::new(AbsorptionChain::build(&skeleton, solution, options.tail_epsilon)?);
        Ok(Self::around(chain, config, options))
    }

    /// Accepts a worker pool for API compatibility.  The uniformised stepping is
    /// serial — which is what makes every value bit-identical on every pool — so
    /// the pool changes nothing; fan whole analyses out instead, as the SLA sweep
    /// does with its server counts.
    pub fn with_pool(self, _pool: ThreadPool) -> Self {
        self
    }

    fn around(
        chain: Arc<AbsorptionChain>,
        config: &SystemConfig,
        options: ResponseOptions,
    ) -> Self {
        ResponseAnalysis {
            chain,
            options,
            classes: config.classes().to_vec(),
            transform: OnceLock::new(),
        }
    }

    fn validate_config(config: &SystemConfig) -> Result<()> {
        if !config.is_homogeneous() {
            return Err(ModelError::InvalidParameter {
                name: "classes",
                value: config.classes().len() as f64,
                constraint: "the response-time analysis requires homogeneous servers \
                             (heterogeneous conditioning is a tracked follow-up)",
            });
        }
        config.ensure_stable()
    }

    fn build(
        config: &SystemConfig,
        options: ResponseOptions,
        cache: Option<&Arc<SolverCache>>,
    ) -> Result<Self> {
        Self::with_chain(config, options, |config, options| {
            let qbd = qbd_matrices(cache, config)?;
            let solution =
                MatrixGeometricSolver::new(options.matrix_geometric).solve_qbd(config, &qbd)?;
            Ok(Arc::new(AbsorptionChain::build(qbd.skeleton(), &solution, options.tail_epsilon)?))
        })
    }

    /// Analyses `config` on the chain `chain` supplies once the configuration and the
    /// options are validated — the engine's plan store passes the chain it shares.
    pub(crate) fn with_chain(
        config: &SystemConfig,
        options: ResponseOptions,
        chain: impl FnOnce(&SystemConfig, &ResponseOptions) -> Result<Arc<AbsorptionChain>>,
    ) -> Result<Self> {
        Self::validate_config(config)?;
        options.validate()?;
        let chain = chain(config, &options)?;
        Ok(Self::around(chain, config, options))
    }

    /// The absorption chain behind every answer (levels kept, residual mass, …) —
    /// the object the engine's plan store shares between the queries of a plan.
    pub fn transform(&self) -> &AbsorptionChain {
        &self.chain
    }

    /// The options this analysis was built with.
    pub fn options(&self) -> &ResponseOptions {
        &self.options
    }

    /// Mean response time of the underlying stationary solution (Little's law).
    pub fn mean_response_time(&self) -> f64 {
        self.chain.mean_response_time()
    }

    /// Evaluates the response-time LST `W*(s) = E[e^{−sT}]` directly, through the
    /// eigen-basis transform of the module docs (assembled on the first call and kept
    /// by this analysis).  Inverting it with [`invert_lst_cdf`] is the independent
    /// check on the uniformised CDF.
    ///
    /// # Errors
    ///
    /// Propagates the assembly's failures (an irreversible mode chain, an
    /// eigensolver failure) and resolvent singularities; `s` in the right half-plane
    /// always evaluates.
    pub fn lst(&self, s: Complex) -> Result<Complex> {
        self.eigen_transform()?.lst_with(s, &mut Workspace::new())
    }

    fn eigen_transform(&self) -> Result<&ResponseTransform> {
        if let Some(transform) = self.transform.get() {
            return Ok(transform);
        }
        let skeleton = QbdSkeleton::for_classes(&self.classes)?;
        let transform = Arc::new(ResponseTransform::assemble(&skeleton, &self.chain.arrivals)?);
        // A concurrent caller may have won the race; both assembled the same value.
        Ok(self.transform.get_or_init(|| transform))
    }

    /// The CDF `P(T ≤ t)` of response time, **certified**: the lower bound of the
    /// uniformised evaluation, returned only when the upper bound lies within
    /// [`agreement_tolerance`](ResponseOptions::agreement_tolerance) of it.
    ///
    /// # Errors
    ///
    /// [`ModelError::BoundViolation`] when the bounds are wider than the tolerance —
    /// the value cannot be trusted and no number is returned.  `t ≤ 0` yields 0.
    pub fn response_time_cdf(&self, t: f64) -> Result<f64> {
        if Self::before_arrival(t)? {
            return Ok(0.0);
        }
        let bounds = Cursor::new(&self.chain).bounds(t)?;
        self.certify(t, &bounds)
    }

    /// Two-sided bounds `(lower, upper)` on `P(T ≤ t)`, uncertified and clamped to
    /// `[0, 1]`: the true CDF lies between them (up to rounding) however wide they
    /// are.
    ///
    /// # Errors
    ///
    /// Rejects a NaN `t` and a `t` beyond the stepping budget; `t ≤ 0` yields
    /// `(0, 0)`.
    pub fn response_time_cdf_bounds(&self, t: f64) -> Result<(f64, f64)> {
        if Self::before_arrival(t)? {
            return Ok((0.0, 0.0));
        }
        let bounds = Cursor::new(&self.chain).bounds(t)?;
        Ok((bounds.lower.clamp(0.0, 1.0), bounds.upper.clamp(0.0, 1.0)))
    }

    /// `true` for `t ≤ 0`, where the CDF is 0; an error for NaN.
    fn before_arrival(t: f64) -> Result<bool> {
        if t.is_nan() {
            return Err(ModelError::InvalidParameter {
                name: "t",
                value: t,
                constraint: "the CDF argument must not be NaN",
            });
        }
        Ok(t <= 0.0)
    }

    /// The certified (clamped) lower bound, or the bound violation.
    fn certify(&self, t: f64, bounds: &Bounds) -> Result<f64> {
        let tolerance = self.options.agreement_tolerance;
        let width = bounds.upper - bounds.lower;
        if width.is_nan() || width > tolerance {
            return Err(ModelError::BoundViolation {
                time: t,
                lower: bounds.lower,
                upper: bounds.upper,
                tolerance,
            });
        }
        Ok(bounds.lower.clamp(0.0, 1.0))
    }

    /// The `fraction`-percentile of response time (`fraction = 0.99` for P99): the
    /// root of `P(T ≤ t) = fraction` on the lower bound, located by bracket
    /// expansion from the mean plus a safeguarded Newton iteration (the density is a
    /// by-product of each evaluation), and certified by the bounds at the answer.
    ///
    /// # Errors
    ///
    /// Rejects fractions outside `(0, 1)`; propagates
    /// [`ModelError::BoundViolation`] from the final certification and
    /// [`ModelError::NoConvergence`] if bracketing or refinement stalls or the
    /// answer lies beyond the stepping budget.
    pub fn response_time_percentile(&self, fraction: f64) -> Result<f64> {
        self.percentile_with(fraction, None, &mut Cursor::new(&self.chain))
    }

    /// Several percentiles in one call, ascending ones warm-starting from their
    /// predecessors and sharing one cursor; results are returned in the order of
    /// `fractions`.
    ///
    /// # Errors
    ///
    /// As [`ResponseAnalysis::response_time_percentile`].
    pub fn response_time_percentiles(&self, fractions: &[f64]) -> Result<Vec<f64>> {
        let mut order: Vec<(usize, f64)> = fractions.iter().copied().enumerate().collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut results = vec![0.0; fractions.len()];
        let mut warm: Option<(f64, f64)> = None;
        let mut cursor = Cursor::new(&self.chain);
        for &(index, fraction) in &order {
            let t = self.percentile_with(fraction, warm, &mut cursor)?;
            if let Some(slot) = results.get_mut(index) {
                *slot = t;
            }
            warm = Some((t, fraction));
        }
        Ok(results)
    }

    fn percentile_with(
        &self,
        fraction: f64,
        warm: Option<(f64, f64)>,
        cursor: &mut Cursor<'_>,
    ) -> Result<f64> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(ModelError::InvalidParameter {
                name: "fraction",
                value: fraction,
                constraint: "percentile fractions must lie strictly between 0 and 1",
            });
        }
        // Bracket the root, starting from the warm point (a lower percentile of the
        // same distribution) or the mean response time.
        let (mut lo, mut f_lo) = match warm {
            Some((t, f)) if f < fraction && t > 0.0 => (t, f),
            _ => (0.0, 0.0),
        };
        let mut hi = if lo > 0.0 { lo * 1.5 } else { self.chain.mean_response_time() };
        if hi.is_nan() || hi <= 0.0 {
            hi = 1.0;
        }
        let mut f_hi = cursor.bounds(hi)?.lower;
        let mut expansions = 0usize;
        while f_hi < fraction {
            lo = hi;
            f_lo = f_hi;
            hi *= 2.0;
            f_hi = cursor.bounds(hi)?.lower;
            expansions += 1;
            if expansions > 200 {
                return Err(ModelError::NoConvergence {
                    algorithm: "percentile bracket expansion",
                    iterations: expansions,
                });
            }
        }
        // Safeguarded Newton: each iteration costs one window of the lower bound,
        // yielding both its value and its density, and the bracket guarantees
        // progress when the Newton step misbehaves.
        let tolerance = self.options.percentile_tolerance;
        let span = f_hi - f_lo;
        let mut x = if span > 0.0 {
            lo + (hi - lo) * ((fraction - f_lo) / span).clamp(0.05, 0.95)
        } else {
            0.5 * (lo + hi)
        };
        for _ in 0..128 {
            let bounds = cursor.bounds(x)?;
            let f = bounds.lower;
            if f >= fraction {
                hi = x;
            } else {
                lo = x;
            }
            if (f - fraction).abs() <= 1e-13 || hi - lo <= tolerance * hi.max(tolerance) {
                // Certify the answer: its bracket must be narrow (and the clamp
                // cannot move an interior CDF value).
                self.certify(x, &bounds)?;
                return Ok(x);
            }
            let newton = x - (f - fraction) / bounds.density;
            x = if bounds.density > 0.0 && newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
        }
        Err(ModelError::NoConvergence {
            algorithm: "percentile Newton refinement",
            iterations: 128,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::qbd::reversible_log_weights;
    use crate::qbd::QbdMatrices;
    use crate::solution::QueueSolver;
    use crate::spectral::SpectralExpansionSolver;

    /// A lifecycle so reliable (breakdown rate 1e-9, repair rate 1e3) that the model
    /// is an M/M/N queue to within ~1e-12.
    fn no_breakdown() -> ServerLifecycle {
        ServerLifecycle::exponential(1e-9, 1e3).unwrap()
    }

    /// The Euler inversion of the eigen-basis transform: the independent certifier.
    fn euler_cdf(analysis: &ResponseAnalysis, t: f64) -> f64 {
        invert_lst_cdf(|s| analysis.lst(s), t, &InversionOptions::default()).unwrap()
    }

    #[test]
    fn euler_inverts_an_exponential_transform() {
        let options = InversionOptions::default();
        for t in [0.1, 0.5, 1.0, 2.5, 7.0] {
            // f(t) = e^{-t}  ⇔  F(s) = 1/(s+1).
            let inverted = invert_lst(|s| Ok((s + 1.0).recip()), t, &options).unwrap();
            assert!((inverted - (-t).exp()).abs() < 1e-9, "at t={t}: {inverted} vs {}", (-t).exp());
            // LST of Exp(2): E[e^{-sX}] = 2/(s+2); CDF 1 - e^{-2t}.
            let cdf = invert_lst_cdf(|s| Ok((s + 2.0).recip() * 2.0), t, &options).unwrap();
            assert!((cdf - (1.0 - (-2.0 * t).exp())).abs() < 1e-9, "CDF at t={t}: {cdf}");
        }
    }

    #[test]
    fn inverter_rejects_bad_arguments() {
        let ok = |s: Complex| -> Result<Complex> { Ok(s.recip()) };
        let options = InversionOptions::default();
        assert!(invert_lst(ok, 0.0, &options).is_err());
        assert!(invert_lst(ok, -1.0, &options).is_err());
        assert!(invert_lst(ok, f64::NAN, &options).is_err());
        assert_eq!(invert_lst_cdf(ok, -1.0, &options).unwrap(), 0.0);
        assert!(invert_lst_cdf(ok, f64::NAN, &options).is_err());
        let bad = InversionOptions { euler_average: 0, ..Default::default() };
        assert!(invert_lst(ok, 1.0, &bad).is_err());
        let bad = InversionOptions { euler_decay: f64::INFINITY, ..Default::default() };
        assert!(invert_lst(ok, 1.0, &bad).is_err());
    }

    #[test]
    fn transform_evaluation_errors_propagate() {
        let failing = |_s: Complex| -> Result<Complex> {
            Err(ModelError::SpectralFailure("deliberate".into()))
        };
        let err = invert_lst(failing, 1.0, &Default::default());
        assert!(matches!(err, Err(ModelError::SpectralFailure(_))));
    }

    #[test]
    fn n1_no_breakdown_limit_matches_mm1_response() {
        // M/M/1 response time is Exp(µ − λ): W(t) = 1 − e^{−(µ−λ)t}.
        let config = SystemConfig::new(1, 0.6, 1.0, no_breakdown()).unwrap();
        let analysis = ResponseAnalysis::new(&config).unwrap();
        let rate: f64 = 1.0 - 0.6;
        for t in [0.25f64, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let exact = 1.0 - (-rate * t).exp();
            let certified = analysis.response_time_cdf(t).unwrap();
            assert!((certified - exact).abs() < 1e-8, "at t={t}: {certified} vs {exact}");
            let euler = euler_cdf(&analysis, t);
            assert!((euler - exact).abs() < 1e-8, "Euler at t={t}: {euler} vs {exact}");
        }
        for p in [0.5f64, 0.9, 0.99] {
            let exact = -(1.0 - p).ln() / rate;
            let value = analysis.response_time_percentile(p).unwrap();
            assert!(
                (value - exact).abs() < 1e-8 * exact.max(1.0),
                "P{}: {value} vs {exact}",
                100.0 * p
            );
        }
        // Mean from the solution matches 1/(µ−λ).
        assert!((analysis.mean_response_time() - 1.0 / rate).abs() < 1e-6);
    }

    /// Closed-form M/M/c response-time CDF (c·µ − λ ≠ µ), via the Erlang-C waiting
    /// probability:  F(t) = 1 − (1−C)e^{−µt} − C·(θe^{−µt} − µe^{−θt})/(θ − µ).
    fn mmc_response_cdf(c: usize, lambda: f64, mu: f64, t: f64) -> f64 {
        let a = lambda / mu;
        let mut sum = 0.0;
        let mut term = 1.0; // a^k / k!
        for k in 0..c {
            if k > 0 {
                term *= a / k as f64;
            }
            sum += term;
        }
        let tail = term * a / c as f64 * (c as f64 / (c as f64 - a));
        let erlang_c = tail / (sum + tail);
        let theta = c as f64 * mu - lambda;
        1.0 - (1.0 - erlang_c) * (-mu * t).exp()
            - erlang_c * (theta * (-mu * t).exp() - mu * (-theta * t).exp()) / (theta - mu)
    }

    #[test]
    fn no_breakdown_limit_matches_mmc_closed_form() {
        let (servers, lambda, mu) = (3, 2.4, 1.0);
        let config = SystemConfig::new(servers, lambda, mu, no_breakdown()).unwrap();
        let analysis = ResponseAnalysis::new(&config).unwrap();
        for t in [0.2, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let exact = mmc_response_cdf(servers, lambda, mu, t);
            let (lower, upper) = analysis.response_time_cdf_bounds(t).unwrap();
            assert!(lower - 1e-12 <= exact && exact <= upper + 1e-12, "at t={t}: {exact}");
            assert!((lower - exact).abs() < 1e-8, "at t={t}: {lower} vs {exact}");
            let euler = euler_cdf(&analysis, t);
            assert!((euler - exact).abs() < 1e-8, "Euler at t={t}: {euler} vs {exact}");
        }
        // Percentiles: invert the closed form by bisection to 1e-13 and compare.
        for p in [0.5, 0.9, 0.95, 0.99] {
            let (mut lo, mut hi) = (0.0, 50.0);
            while hi - lo > 1e-13 {
                let mid = 0.5 * (lo + hi);
                if mmc_response_cdf(servers, lambda, mu, mid) < p {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let exact = 0.5 * (lo + hi);
            let value = analysis.response_time_percentile(p).unwrap();
            assert!(
                (value - exact).abs() < 1e-8 * exact.max(1.0),
                "P{}: {value} vs {exact}",
                100.0 * p
            );
        }
    }

    #[test]
    fn lst_limits_recover_normalisation_and_mean() {
        let config =
            SystemConfig::new(4, 2.5, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap();
        let analysis = ResponseAnalysis::new(&config).unwrap();
        // W*(0⁺) = 1 (total probability, up to the truncated tail mass).
        let at_zero = analysis.lst(Complex::from_real(1e-9)).unwrap();
        assert!((at_zero.re - 1.0).abs() < 1e-6, "W*(0+) = {at_zero:?}");
        assert!(at_zero.im.abs() < 1e-12);
        // −dW*/ds at 0 is the mean response time (checked by central difference).
        let h = 1e-5;
        let plus = analysis.lst(Complex::from_real(2.0 * h)).unwrap().re;
        let minus = analysis.lst(Complex::from_real(h)).unwrap().re;
        let derivative_mean = (minus - plus) / h;
        let mean = analysis.mean_response_time();
        assert!(
            (derivative_mean - mean).abs() < 1e-3 * mean,
            "slope {derivative_mean} vs Little {mean}"
        );
    }

    #[test]
    fn certified_cdf_is_monotone_for_the_paper_lifecycle() {
        let config =
            SystemConfig::new(10, 7.5, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap();
        let analysis = ResponseAnalysis::new(&config).unwrap();
        let mut previous = 0.0;
        for t in [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let value = analysis.response_time_cdf(t).unwrap();
            assert!((0.0..=1.0).contains(&value));
            assert!(value >= previous, "CDF must be monotone: F({t}) = {value} < {previous}");
            previous = value;
        }
        assert!(previous > 0.99, "F(16) should be close to 1, got {previous}");
        let percentiles = analysis.response_time_percentiles(&[0.5, 0.9, 0.99]).unwrap();
        assert!(percentiles[0] < percentiles[1] && percentiles[1] < percentiles[2]);
        assert!(percentiles[0] > 0.0);
        // Round trip: F(P_p) = p for the certified CDF.
        for (p, t) in [0.5, 0.9, 0.99].iter().zip(&percentiles) {
            let value = analysis.response_time_cdf(*t).unwrap();
            assert!((value - p).abs() < 1e-7, "F({t}) = {value} vs {p}");
        }
    }

    #[test]
    fn matrix_geometric_solution_yields_the_same_distribution() {
        let config =
            SystemConfig::new(4, 3.0, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap();
        let geometric = ResponseAnalysis::new(&config).unwrap();
        let solution = SpectralExpansionSolver::default().solve(&config).unwrap();
        let spectral =
            ResponseAnalysis::from_solution(&config, solution.as_ref(), ResponseOptions::default())
                .unwrap();
        for t in [0.5, 1.5, 4.0] {
            let a = spectral.response_time_cdf(t).unwrap();
            let b = geometric.response_time_cdf(t).unwrap();
            assert!((a - b).abs() < 1e-8, "spectral {a} vs matrix-geometric {b} at t={t}");
        }
    }

    #[test]
    fn heterogeneous_and_unstable_configurations_are_rejected() {
        use crate::config::ServerClass;
        let lc = ServerLifecycle::paper_fitted().unwrap();
        let mixed = SystemConfig::heterogeneous(
            1.0,
            vec![
                ServerClass::new(2, 2.0, lc.clone()).unwrap(),
                ServerClass::new(2, 1.0, lc.clone()).unwrap(),
            ],
        )
        .unwrap();
        assert!(matches!(
            ResponseAnalysis::new(&mixed),
            Err(ModelError::InvalidParameter { name: "classes", .. })
        ));
        let unstable = SystemConfig::new(2, 5.0, 1.0, lc).unwrap();
        assert!(matches!(ResponseAnalysis::new(&unstable), Err(ModelError::Unstable { .. })));
    }

    #[test]
    fn percentile_rejects_degenerate_fractions() {
        let config = SystemConfig::new(2, 0.8, 1.0, no_breakdown()).unwrap();
        let analysis = ResponseAnalysis::new(&config).unwrap();
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(analysis.response_time_percentile(bad).is_err(), "fraction {bad}");
        }
    }

    #[test]
    fn truncation_respects_the_requested_tail_mass() {
        let config =
            SystemConfig::new(3, 2.0, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap();
        let tight = ResponseAnalysis::with_options(
            &config,
            ResponseOptions { tail_epsilon: 1e-13, ..Default::default() },
        )
        .unwrap();
        let loose_options = ResponseOptions { tail_epsilon: 1e-6, ..Default::default() };
        let loose = ResponseAnalysis::with_options(&config, loose_options).unwrap();
        assert!(tight.transform().residual_mass() <= 1e-13);
        assert!(loose.transform().residual_mass() <= 1e-6);
        assert!(tight.transform().truncation_levels() > loose.transform().truncation_levels());
        // The truncated mass widens the bound: the loose chain cannot certify to the
        // default 1e-7, only to a tolerance above its tail mass.
        assert!(matches!(loose.response_time_cdf(2.0), Err(ModelError::BoundViolation { .. })));
        let loose = ResponseAnalysis::with_options(
            &config,
            ResponseOptions { agreement_tolerance: 1e-5, ..loose_options },
        )
        .unwrap();
        // Both truncations agree on the CDF to far better than the loose tail mass.
        let a = tight.response_time_cdf(2.0).unwrap();
        let b = loose.response_time_cdf(2.0).unwrap();
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn poisson_windows_hold_all_but_the_bounded_tail() {
        let mut weights = Vec::new();
        for x in [1e-3, 0.5, 7.0, 63.9, 64.2, 1_000.0, 123_456.7] {
            let (first, omitted) = poisson_window(x, &mut weights);
            let total: f64 = weights.iter().sum();
            assert!(omitted < 1e-14, "x = {x}: omitted {omitted:e}");
            assert!((total + omitted - 1.0).abs() < 1e-13, "x = {x}: mass {total}");
            // The window is ascending in k and holds the mode.
            let mode = x.floor() as usize;
            assert!(first <= mode && mode < first + weights.len(), "x = {x}");
        }
        // The mode weight is continuous across the switch to Stirling's series.
        let direct = poisson_mode_weight(63.999_999, 63);
        let stirling = poisson_mode_weight(64.0, 64);
        assert!((direct / stirling - 1.0).abs() < 1e-2, "{direct} vs {stirling}");
        let exact: f64 = (1..=64).fold((-64.0f64).exp(), |p, k| p * 64.0 / k as f64);
        assert!((stirling / exact - 1.0).abs() < 1e-13, "{stirling} vs {exact}");
    }

    #[test]
    fn uniformised_cdf_is_bracketed_and_matches_euler_inversion() {
        let paper = ServerLifecycle::paper_fitted().unwrap();
        let hyper = ServerLifecycle::with_exponential_repair(
            urs_dist::HyperExponential::with_mean_and_scv(34.62, 4.6).unwrap(),
            0.2,
        )
        .unwrap();
        let configs = [
            SystemConfig::new(3, 2.0, 1.0, paper.clone()).unwrap(),
            SystemConfig::new(5, 3.5, 1.0, paper).unwrap(),
            SystemConfig::new(4, 2.8, 1.0, ServerLifecycle::exponential(0.05, 1.0).unwrap())
                .unwrap(),
            SystemConfig::new(3, 1.6, 1.0, hyper).unwrap(),
        ];
        for config in configs {
            let analysis = ResponseAnalysis::new(&config).unwrap();
            let mean = analysis.mean_response_time();
            for t in [0.25 * mean, mean, 4.0 * mean] {
                let (lower, upper) = analysis.response_time_cdf_bounds(t).unwrap();
                assert!(upper - lower < 1e-11, "{config:?} at t = {t}: [{lower}, {upper}]");
                let euler = euler_cdf(&analysis, t);
                assert!((lower - euler).abs() < 1e-8, "t = {t}: {lower} vs Euler {euler}");
            }
        }
    }

    #[test]
    fn cdf_values_do_not_depend_on_the_cursor_history() {
        let config =
            SystemConfig::new(4, 3.0, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap();
        let analysis = ResponseAnalysis::new(&config).unwrap();
        let times = [9.0, 0.3, 2.0, 30.0, 1.0];
        let mut shared = Cursor::new(&analysis.chain);
        for t in times {
            let walked = shared.bounds(t).unwrap();
            let fresh = Cursor::new(&analysis.chain).bounds(t).unwrap();
            assert_eq!(walked.lower.to_bits(), fresh.lower.to_bits(), "t = {t}");
            assert_eq!(walked.upper.to_bits(), fresh.upper.to_bits(), "t = {t}");
            assert_eq!(walked.density.to_bits(), fresh.density.to_bits(), "t = {t}");
        }
        // Far out every level has drained: the values stay put and stay certified.
        let late = analysis.response_time_cdf(2e3).unwrap();
        assert!(late > 1.0 - 1e-11);
        assert!(matches!(analysis.response_time_cdf(1e9), Err(ModelError::NoConvergence { .. })));
    }

    /// Independent reference for [`ResponseTransform::lst_with`]: the level recursion
    /// of the module docs in the original coordinates `φ_a`, each level's complex
    /// resolvent solve done as the real `2s × 2s` system `[[Re, −Im], [Im, Re]]` on a
    /// dense [`LuDecomposition`](urs_linalg::LuDecomposition).
    fn reference_lst(skeleton: &QbdSkeleton, arrival_levels: &[Vec<f64>], s: Complex) -> Complex {
        let order = skeleton.order();
        let servers = skeleton.servers();
        let a = skeleton.a();
        let mut phi = vec![0.0; 2 * order];
        let mut total = Complex::ZERO;
        for (level, pi) in arrival_levels.iter().enumerate() {
            let base = skeleton.c_level((level + 1).min(servers));
            let ahead = skeleton.c_level(level.min(servers));
            let embedding = Matrix::from_fn(2 * order, 2 * order, |i, j| {
                let (bi, bj) = (i % order, j % order);
                let re =
                    if bi == bj { s.re + skeleton.da()[bi] + base[bi] } else { 0.0 } - a[(bi, bj)];
                let im = if bi == bj { s.im } else { 0.0 };
                match (i < order, j < order) {
                    (true, false) => -im,
                    (false, true) => im,
                    _ => re,
                }
            });
            let mut rhs: Vec<f64> =
                phi.iter().enumerate().map(|(i, x)| ahead[i % order] * x).collect();
            if level < servers {
                for (m, r) in rhs.iter_mut().take(order).enumerate() {
                    *r += base[m] - ahead[m];
                }
            }
            phi = urs_linalg::LuDecomposition::new(&embedding).unwrap().solve(&rhs).unwrap();
            for (m, p) in pi.iter().enumerate() {
                total += Complex::new(phi[m], phi[m + order]) * *p;
            }
        }
        total
    }

    #[test]
    fn eigenbasis_transform_matches_the_embedded_level_solve() {
        let paper = ServerLifecycle::paper_fitted().unwrap();
        let exponential = ServerLifecycle::exponential(0.05, 1.0).unwrap();
        let configs = [
            SystemConfig::new(3, 2.0, 1.0, paper.clone()).unwrap(),
            SystemConfig::new(5, 3.5, 1.0, paper).unwrap(),
            SystemConfig::new(4, 2.8, 1.0, exponential).unwrap(),
        ];
        let tail_epsilon = ResponseOptions::default().tail_epsilon;
        let inversion = InversionOptions::default();
        for config in configs {
            let qbd = QbdMatrices::new(&config).unwrap();
            let solution = MatrixGeometricSolver::default().solve_qbd(&config, &qbd).unwrap();
            let (levels, _) =
                solution.arrival_state_distribution(tail_epsilon, config.servers() + 1).unwrap();
            let transform = ResponseTransform::assemble(qbd.skeleton(), &levels.concat()).unwrap();
            let mean = solution.mean_response_time();
            let mut workspace = Workspace::new();
            let mut worst = 0.0_f64;
            for t in [0.5 * mean, 2.0 * mean, 8.0 * mean] {
                for (s, _) in inversion.quadrature(t) {
                    let got = transform.lst_with(s, &mut workspace).unwrap();
                    let want = reference_lst(qbd.skeleton(), &levels, s);
                    worst = worst.max((got - want).abs() / want.abs());
                }
            }
            assert!(worst <= 1e-12, "N = {}: relative gap {worst:e}", config.servers());
        }
    }

    #[test]
    fn a_resolvent_singularity_is_an_error_not_a_nan() {
        let config =
            SystemConfig::new(3, 2.0, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap();
        let analysis = ResponseAnalysis::new(&config).unwrap();
        for &lambda in &analysis.eigen_transform().unwrap().eigenvalues {
            let at_pole = analysis.lst(Complex::from_real(-lambda));
            assert!(
                matches!(
                    at_pole,
                    Err(ModelError::Linalg(urs_linalg::LinalgError::Singular { .. }))
                ),
                "s = −{lambda}: {at_pole:?}"
            );
        }
    }

    #[test]
    fn irreversible_mode_chains_are_rejected() {
        // A 3-cycle 0 → 1 → 2 → 0 has no reverse transitions.
        let cycle = Matrix::from_fn(3, 3, |i, j| if j == (i + 1) % 3 { 1.0 } else { 0.0 });
        assert!(matches!(
            reversible_log_weights(&cycle),
            Err(ModelError::InvalidParameter { name: "mode_chain", .. })
        ));
        // Reverse rates that break Kolmogorov's criterion around the cycle.
        let skewed = Matrix::from_fn(3, 3, |i, j| match (j + 3 - i) % 3 {
            1 => 2.0,
            2 => 1.0,
            _ => 0.0,
        });
        assert!(reversible_log_weights(&skewed).is_err());
        // A birth–death chain is reversible; its weights are √π up to scale.
        let chain =
            Matrix::from_rows(&[&[0.0, 2.0, 0.0][..], &[1.0, 0.0, 3.0][..], &[0.0, 1.5, 0.0][..]])
                .unwrap();
        let w: Vec<f64> = reversible_log_weights(&chain).unwrap().iter().map(|l| l.exp()).collect();
        let pi: Vec<f64> = w.iter().map(|x| x * x).collect();
        assert!((pi[0] * 2.0 - pi[1] * 1.0).abs() < 1e-15);
        assert!((pi[1] * 3.0 - pi[2] * 1.5).abs() < 1e-15);
        assert_eq!(w.iter().fold(0.0_f64, |m, x| m.max(*x)), 1.0);
    }

    #[test]
    fn transform_rejects_weights_beyond_the_floating_point_range() {
        // 60 servers that fail 1e12 times less often than they are repaired: the
        // all-down mode has probability ~1e-720, so its weight underflows, and the
        // transform, which scales by the weights themselves, must say so.
        let lifecycle = ServerLifecycle::exponential(1e-9, 1e3).unwrap();
        let classes = [ServerClass::new(60, 1.0, lifecycle).unwrap()];
        let skeleton = QbdSkeleton::for_classes(&classes).unwrap();
        assert!(skeleton.log_weights().is_ok());
        assert!(matches!(
            ResponseTransform::assemble(&skeleton, &vec![0.0; skeleton.order()]),
            Err(ModelError::InvalidParameter { name: "mode_chain", .. })
        ));
    }
}
