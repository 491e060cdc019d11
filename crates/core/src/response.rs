//! Analytic response-time distribution via Laplace-transform inversion.
//!
//! Section 5 of the paper stops at the *mean* response time `W = L/λ`; the
//! distribution — the quantity an SLA is actually written against (P99 of response
//! time versus fleet size) — is left open, and until this module existed the repository
//! answered it only by simulation.  The analytic path has three stages:
//!
//! 1. **Transform assembly** ([`ResponseTransform`]).  By PASTA, an arriving customer
//!    sees the stationary state `(mode m, level j)`.  Under FCFS with homogeneous
//!    servers and preempted jobs resuming in their original queue position, the tagged
//!    customer's remaining response time depends only on the jobs *ahead* of it, so the
//!    conditional Laplace–Stieltjes transform `φ_a[m] = E[e^{−sT} | a ahead, mode m]`
//!    satisfies a first-step recursion on the existing QBD blocks:
//!
//!    ```text
//!    (sI + Dᴬ + C_{a+1} − A) φ_a = C_a φ_{a−1} + diag(C_{a+1} − C_a) · 1,   a < N
//!    (sI + Dᴬ + C_N    − A) φ_a = C_N φ_{a−1},                              a ≥ N
//!    ```
//!
//!    `diag(C_a)` is the departure rate of the jobs ahead of the tagged customer and
//!    `diag(C_{a+1} − C_a)` the tagged customer's own completion rate (non-zero exactly
//!    when a server is free for it).  The unconditional transform is
//!    `W*(s) = Σ_{j,m} π(m,j) φ_j[m]`, truncated where the stationary tail mass drops
//!    below [`ResponseOptions::tail_epsilon`] (since `|φ| ≤ 1` for `Re s ≥ 0`, the
//!    truncation error is bounded by that mass).
//!
//!    **Every resolvent is symmetric in disguise.**  Each server alternates between
//!    operative and inoperative phases, and the one-server phase chain is a star
//!    (exponential repair) or a complete bipartite graph with product-form rates
//!    (hyperexponential periods), so Kolmogorov's criterion makes it reversible.
//!    Independent servers, and the lumping of exchangeable ones into occupancy counts,
//!    keep it so: the mode chain `A` satisfies detailed balance `π_i·A_ij = π_j·A_ji`.
//!    With `W = diag(√π)` every resolvent base is then similar to a real symmetric
//!    matrix, `W·(Dᴬ + C − A)·W⁻¹ = diag(Dᴬ + C) − S` with `S_ij = √(A_ij·A_ji)`, and
//!    has a real orthonormal eigenbasis `V` with eigenvalues `λ_k ≥ 0` (it is a
//!    generator plus a non-negative diagonal).  Assembly computes the weights from
//!    detailed balance along a spanning tree (an irreversible chain is an error),
//!    diagonalises the `N` distinct bases once with [`urs_linalg::symmetric_eigen`],
//!    and rewrites the recursion in the eigen-coordinates `χ_a = Vᵀ·W·φ_a`:
//!
//!    ```text
//!    χ_a = (sI + Λ_a)⁻¹ · (V_aᵀ C_a V_{a−1} · χ_{a−1} + V_aᵀ W diag(C_{a+1} − C_a) 1)
//!    W*(s) = Σ_a (V_aᵀ W⁻¹ π_a) · χ_a
//!    ```
//!
//!    The transfer matrices `V_aᵀ C_a V_{a−1}`, the completion vectors and the
//!    projected arrival levels are real and `s`-independent, so each evaluation costs
//!    one real [`Matrix::gemm`] per level (real and imaginary parts side by side as a
//!    2×s block) plus a diagonal complex scaling by `1/(s + λ_k)` — no factorisation
//!    at any node, and one code path for every model size.
//!
//! 2. **Numerical inversion** by two *independent* methods: Euler summation on the
//!    Bromwich line (Abate & Whitt, "Numerical inversion of Laplace transforms of
//!    probability distributions", ORSA J. Computing 7, 1995) and the fixed-Talbot
//!    contour (Abate & Valkó, Int. J. Numer. Meth. Eng. 60, 2004).  The two share no
//!    nodes, no weights and no failure modes, so their agreement — enforced at runtime
//!    by [`ResponseAnalysis::response_time_cdf`], violations surfacing as
//!    [`ModelError::InversionDivergence`] — certifies the result instead of trusting
//!    either method blindly.
//!
//! 3. **Percentiles** by a safeguarded Newton root-find on the inverted CDF: the
//!    density comes for free from the same transform evaluations as the CDF (the CDF
//!    inverts `W*(s)/s`, the density inverts `W*(s)` at the identical nodes), so each
//!    Newton step costs one inversion sweep, and the final answer is re-certified by
//!    the dual-method check.
//!
//! The generic inverters [`invert_lst`] / [`invert_lst_cdf`] are exposed for arbitrary
//! transforms; the property-based round-trip suite in `tests/` pins them against the
//! closed-form distributions of `urs_dist`.
//!
//! Heterogeneous fleets are rejected: with class-dependent service rates the jobs
//! *behind* the tagged customer influence which server it eventually obtains, the
//! ahead-count recursion above no longer closes, and the conditioning needs the full
//! order of the queue.  Extending the transform to that case is tracked in the
//! ROADMAP.

use std::f64::consts::PI;
use std::sync::Arc;

use urs_linalg::{symmetric_eigen, Complex, LinalgError, Matrix, Workspace};

use crate::cache::{allocation_bytes, SolverCache};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::matrix_geometric::{MatrixGeometricOptions, MatrixGeometricSolver};
use crate::parallel::ThreadPool;
use crate::qbd::{QbdMatrices, QbdSkeleton};
use crate::solution::QueueSolution;
use crate::Result;

/// The numerical Laplace-inversion method to apply.
///
/// Both invert the same transform; they are implemented independently so that their
/// agreement can serve as a runtime accuracy certificate (see
/// [`ResponseAnalysis::response_time_cdf`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InversionMethod {
    /// Euler-accelerated trapezoidal discretisation of the Bromwich integral
    /// (Abate–Whitt).  Nodes lie on a vertical line in the right half-plane, so the
    /// transform is only ever evaluated where the resolvent is guaranteed
    /// non-singular; this is the method of record.
    EulerSummation,
    /// The fixed-Talbot deformed contour (Abate–Valkó).  Nodes follow a cotangent
    /// contour that wraps into the left half-plane, giving steep error decay per
    /// node; used as the independent cross-check.
    FixedTalbot,
}

/// Tuning knobs of the two inversion quadratures.
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
    /// Number of Talbot contour nodes `M`; the error decays like `10^{−0.6M}` while
    /// every singularity of the transform stays inside the contour.
    pub talbot_nodes: usize,
}

impl Default for InversionOptions {
    fn default() -> Self {
        InversionOptions {
            // ln(1e10), written out so the default is a compile-time constant.
            euler_decay: 23.025_850_929_940_457,
            euler_burn_in: 21,
            euler_average: 13,
            talbot_nodes: 36,
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
        if self.talbot_nodes < 2 {
            return Err(ModelError::InvalidParameter {
                name: "talbot_nodes",
                value: self.talbot_nodes as f64,
                constraint: "the Talbot contour needs at least 2 nodes",
            });
        }
        Ok(())
    }

    /// The quadrature rule of `method` at time `t`: pairs `(sₖ, wₖ)` such that
    /// `f(t) ≈ Σₖ Re(wₖ · F(sₖ))`.
    fn quadrature(&self, method: InversionMethod, t: f64) -> Vec<(Complex, Complex)> {
        match method {
            InversionMethod::EulerSummation => self.euler_quadrature(t),
            InversionMethod::FixedTalbot => self.talbot_quadrature(t),
        }
    }

    fn euler_quadrature(&self, t: f64) -> Vec<(Complex, Complex)> {
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

    fn talbot_quadrature(&self, t: f64) -> Vec<(Complex, Complex)> {
        let m = self.talbot_nodes;
        let r = 2.0 * m as f64 / (5.0 * t);
        let mut nodes = Vec::with_capacity(m);
        // θ = 0: the contour crosses the real axis at s = r with half weight.
        nodes.push((
            Complex::from_real(r),
            Complex::from_real(0.5 * (r / m as f64) * (r * t).exp()),
        ));
        for k in 1..m {
            let theta = k as f64 * PI / m as f64;
            let cot = theta.cos() / theta.sin();
            let s = Complex::new(r * theta * cot, r * theta);
            let sigma = theta + (theta * cot - 1.0) * cot;
            let weight = (s * t).exp() * Complex::new(1.0, sigma) * (r / m as f64);
            nodes.push((s, weight));
        }
        nodes
    }
}

fn validate_time(t: f64) -> Result<()> {
    if !(t.is_finite() && t > 0.0) {
        return Err(ModelError::InvalidParameter {
            name: "t",
            value: t,
            constraint: "transform inversion requires a finite time t > 0",
        });
    }
    Ok(())
}

/// Inverts a Laplace transform `F(s) = ∫ e^{−st} f(t) dt` at `t > 0` with the chosen
/// method, evaluating the transform through the supplied closure.
///
/// The closure may fail (a resolvent solve hitting a singular matrix, say); the error
/// is propagated unchanged.
///
/// # Errors
///
/// Rejects non-positive or non-finite `t` and invalid options, and propagates
/// evaluation failures.
pub fn invert_lst<F>(
    mut transform: F,
    t: f64,
    method: InversionMethod,
    options: &InversionOptions,
) -> Result<f64>
where
    F: FnMut(Complex) -> Result<Complex>,
{
    validate_time(t)?;
    options.validate()?;
    let mut value = 0.0;
    for (s, w) in options.quadrature(method, t) {
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
pub fn invert_lst_cdf<F>(
    mut transform: F,
    t: f64,
    method: InversionMethod,
    options: &InversionOptions,
) -> Result<f64>
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
    let raw = invert_lst(|s| Ok(transform(s)? * s.recip()), t, method, options)?;
    Ok(raw.clamp(0.0, 1.0))
}

/// Options of the response-time analysis: the inversion quadratures, the runtime
/// certification tolerances, the stationary-tail truncation and the options of the
/// matrix-geometric solve that yields the arrival-state distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseOptions {
    /// Quadrature parameters of both inversion methods.
    pub inversion: InversionOptions,
    /// Maximum tolerated disagreement between the Euler and Talbot CDF values before
    /// [`ModelError::InversionDivergence`] is raised.  The default `1e-7` sits three
    /// orders of magnitude above the methods' own accuracy, so a triggered check
    /// signals a genuine breakdown rather than roundoff.
    pub agreement_tolerance: f64,
    /// Relative width at which the percentile bracket is considered converged.
    pub percentile_tolerance: f64,
    /// Stationary tail mass at which the arrival-state distribution is truncated;
    /// also the bound on the resulting transform error (|φ| ≤ 1 on `Re s ≥ 0`).
    pub tail_epsilon: f64,
    /// Options of the matrix-geometric solve producing the stationary distribution.
    pub matrix_geometric: MatrixGeometricOptions,
}

impl Default for ResponseOptions {
    fn default() -> Self {
        ResponseOptions {
            inversion: InversionOptions::default(),
            agreement_tolerance: 1e-7,
            percentile_tolerance: 1e-10,
            tail_epsilon: 1e-12,
            matrix_geometric: MatrixGeometricOptions::default(),
        }
    }
}

impl ResponseOptions {
    fn validate(&self) -> Result<()> {
        self.inversion.validate()?;
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

/// The assembled per-configuration transform: the level recursion of the module docs
/// in the eigenbases of the symmetrised resolvents — eigenvalues per distinct base,
/// transfer matrices between consecutive bases, completion vectors and the projected
/// arrival-state distribution, all real.
///
/// Everything here is λ-and-lifecycle-specific but *inversion-independent*, which is
/// why [`SolverCache`] memoises values of this type: every CDF or percentile query
/// against the same configuration reuses one assembly.
#[derive(Debug)]
pub struct ResponseTransform {
    order: usize,
    servers: usize,
    mean_response_time: f64,
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
    residual_mass: f64,
}

impl ResponseTransform {
    /// Assembles the transform from a QBD skeleton and any stationary solution of the
    /// same model (matrix-geometric or spectral).
    pub(crate) fn assemble(
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
        let weights = reversible_weights(a)?;
        let rate = |i: usize, j: usize| a.get(i, j).unwrap_or(0.0);
        // One symmetric eigensystem per distinct base `diag(Dᴬ + C_{a+1}) − S`.
        let mut eigenvalues = Vec::with_capacity(servers * order);
        let mut bases = Vec::with_capacity(servers);
        for level in 1..=servers {
            let (da, departures) = (skeleton.da(), skeleton.c_level(level));
            let base = Matrix::from_fn(order, order, |i, j| match (da.get(i), departures.get(i)) {
                (Some(d), Some(c)) if i == j => d + c - rate(i, i),
                _ => -(rate(i, j) * rate(j, i)).sqrt(),
            });
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
        // Always keep at least one repeating level so the shared repeating transfer is
        // exercised even when the boundary already holds nearly all the mass.
        let (levels, residual_mass) =
            solution.arrival_state_distribution(tail_epsilon, servers + 1)?;
        let mut arrival_levels = Vec::with_capacity(levels.len() * order);
        for (level, probabilities) in levels.iter().enumerate() {
            let weighted: Vec<f64> =
                probabilities.iter().zip(&weights).map(|(p, w)| p / w).collect();
            arrival_levels.extend(basis(level).ok_or_else(missing)?.vecmat(&weighted)?);
        }
        let arrival_levels = Matrix::from_vec(levels.len(), order, arrival_levels)?;
        Ok(ResponseTransform {
            order,
            servers,
            mean_response_time: solution.mean_response_time(),
            eigenvalues,
            transfers,
            completions,
            arrival_levels,
            residual_mass,
        })
    }

    /// Number of stationary levels retained by the tail truncation.
    pub fn truncation_levels(&self) -> usize {
        self.arrival_levels.rows()
    }

    /// Heap footprint the [`SolverCache`](crate::SolverCache) charges for this
    /// transform: the struct, the per-level eigenvalues, transfers, completion
    /// rates and the projected arrival-state distribution.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of::<Self>()
            + allocation_bytes(&self.eigenvalues)
            + allocation_bytes(&self.transfers)
            + self.transfers.iter().map(|t| allocation_bytes(t.as_slice())).sum::<usize>()
            + allocation_bytes(&self.completions)
            + allocation_bytes(self.arrival_levels.as_slice())
    }

    /// Stationary mass beyond the truncation — the bound on the transform error.
    pub fn residual_mass(&self) -> f64 {
        self.residual_mass
    }

    /// Mean response time of the underlying solution (Little's law), used to seed
    /// the percentile bracket.
    pub fn mean_response_time(&self) -> f64 {
        self.mean_response_time
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
    pub fn lst_with(&self, s: Complex, workspace: &mut Workspace) -> Result<Complex> {
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

    /// The raw (unclamped) CDF and density at `t`, sharing one transform evaluation
    /// per node: the CDF inverts `W*(s)/s` and the density `W*(s)` at identical
    /// nodes, so the Newton percentile iteration pays nothing extra for derivatives.
    ///
    /// The nodes fan out across `pool`, each evaluated whole by one worker with its
    /// own workspace, and the weighted values are summed in node order — so the
    /// result is bit-identical at any thread count.
    fn cdf_density_at(
        &self,
        t: f64,
        method: InversionMethod,
        options: &InversionOptions,
        pool: &ThreadPool,
    ) -> Result<(f64, f64)> {
        validate_time(t)?;
        let nodes = options.quadrature(method, t);
        let mut values: Vec<Result<Complex>> = vec![Ok(Complex::ZERO); nodes.len()];
        pool.par_chunks_mut_with(&mut values, 1, Workspace::new, |workspace, index, slot| {
            if let (Some(value), Some(&(s, _))) = (slot.first_mut(), nodes.get(index)) {
                *value = self.lst_with(s, workspace);
            }
        })?;
        let mut cdf = 0.0;
        let mut density = 0.0;
        for ((s, w), value) in nodes.into_iter().zip(values) {
            let weighted = w * value?;
            cdf += (weighted * s.recip()).re;
            density += weighted.re;
        }
        Ok((cdf, density))
    }
}

/// The symmetrising weights `w = √π` of the mode chain `A`, normalised to a largest
/// weight of 1: detailed balance `π_j = π_i·A_ij/A_ji` along a breadth-first spanning
/// tree from mode 0, then verified on every transition.
///
/// # Errors
///
/// [`ModelError::InvalidParameter`] when the chain is reducible or not reversible —
/// a transition without its reverse, or a cycle violating Kolmogorov's criterion.
fn reversible_weights(a: &Matrix) -> Result<Vec<f64>> {
    let order = a.rows();
    let rate = |i: usize, j: usize| if i == j { 0.0 } else { a.get(i, j).unwrap_or(0.0) };
    let irreversible = |value: f64| ModelError::InvalidParameter {
        name: "mode_chain",
        value,
        constraint: "the response-time transform needs a reversible, irreducible mode chain",
    };
    // The tree is rooted at mode 0; zero marks a mode it has not reached yet.
    let mut weights: Vec<f64> = (0..order).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(i) = queue.pop_front() {
        let w_i = weights.get(i).copied().unwrap_or(0.0);
        for j in 0..order {
            let (forward, back) = (rate(i, j), rate(j, i));
            if let Some(w_j) = weights.get_mut(j).filter(|w| forward > 0.0 && **w <= 0.0) {
                if back <= 0.0 {
                    return Err(irreversible(forward));
                }
                *w_j = w_i * (forward / back).sqrt();
                queue.push_back(j);
            }
        }
    }
    if weights.iter().any(|w| *w <= 0.0) {
        return Err(irreversible(0.0));
    }
    for (i, w_i) in weights.iter().enumerate() {
        for (j, w_j) in weights.iter().enumerate().take(i) {
            let (flow, reverse) = (w_i * w_i * rate(i, j), w_j * w_j * rate(j, i));
            if (flow - reverse).abs() > 1e-8 * flow.max(reverse) {
                return Err(irreversible((flow - reverse) / flow.max(reverse)));
            }
        }
    }
    let largest = weights.iter().fold(0.0_f64, |m, w| m.max(*w));
    Ok(weights.into_iter().map(|w| w / largest).collect())
}

/// The analytic response-time distribution of one system configuration.
///
/// Construction solves the stationary model once and assembles the
/// [`ResponseTransform`]; afterwards every query — [`response_time_cdf`], a
/// [`response_time_percentile`], the raw [`lst`] — is pure numerics with no further
/// stationary solves.  Use [`with_cache`] to share both the stationary solution and
/// the assembled transform across repeated queries and across threads.
///
/// [`response_time_cdf`]: Self::response_time_cdf
/// [`response_time_percentile`]: Self::response_time_percentile
/// [`lst`]: Self::lst
/// [`with_cache`]: Self::with_cache
#[derive(Debug, Clone)]
pub struct ResponseAnalysis {
    transform: Arc<ResponseTransform>,
    options: ResponseOptions,
    pool: ThreadPool,
}

impl ResponseAnalysis {
    /// Analyses `config` with default options, solving it with the
    /// [`MatrixGeometricSolver`].
    ///
    /// # Errors
    ///
    /// Rejects unstable and heterogeneous configurations (the conditional transform
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

    /// Analyses `config`, publishing (and reusing) the stationary solution *and* the
    /// assembled transform through `cache`.
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
        let transform =
            Arc::new(ResponseTransform::assemble(&skeleton, solution, options.tail_epsilon)?);
        Ok(ResponseAnalysis { transform, options, pool: ThreadPool::serial() })
    }

    /// Fans the quadrature nodes of every subsequent CDF, density and percentile
    /// evaluation out across `pool`.  Each node is evaluated whole by one worker and
    /// the weighted values are summed in node order, so results are bit-identical to
    /// the serial analysis at any thread count.
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    fn validate_config(config: &SystemConfig) -> Result<()> {
        if !config.is_homogeneous() {
            return Err(ModelError::InvalidParameter {
                name: "classes",
                value: config.classes().len() as f64,
                constraint: "the response-time transform requires homogeneous servers \
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
        Self::validate_config(config)?;
        options.validate()?;
        let transform = match cache {
            Some(cache) => Self::cached_transform(config, &options, cache)?,
            None => {
                let qbd = QbdMatrices::new(config)?;
                let solution =
                    MatrixGeometricSolver::new(options.matrix_geometric).solve_qbd(config, &qbd)?;
                Arc::new(ResponseTransform::assemble(
                    qbd.skeleton(),
                    &solution,
                    options.tail_epsilon,
                )?)
            }
        };
        Ok(ResponseAnalysis { transform, options, pool: ThreadPool::serial() })
    }

    /// The transform for `config` from `cache`, assembled and offered to it on a
    /// miss.  One lookup per level: the skeleton and solution handles are held for
    /// the assembly, never fetched again, so even a cache that keeps nothing
    /// computes each of them once.
    fn cached_transform(
        config: &SystemConfig,
        options: &ResponseOptions,
        cache: &Arc<SolverCache>,
    ) -> Result<Arc<ResponseTransform>> {
        let (solver_options, epsilon) = (&options.matrix_geometric, options.tail_epsilon);
        if let Some(hit) = cache.lookup_transform(config, solver_options, epsilon)? {
            return Ok(hit);
        }
        let skeleton = cache.skeleton(config)?;
        let solution = match cache.lookup_solution(config, solver_options)? {
            Some(hit) => hit,
            None => MatrixGeometricSolver::new(*solver_options).solve_and_store(
                config,
                cache,
                Arc::clone(&skeleton),
            )?,
        };
        let transform = Arc::new(ResponseTransform::assemble(&skeleton, &solution, epsilon)?);
        cache.store_transform(config, solver_options, epsilon, Arc::clone(&transform))?;
        Ok(transform)
    }

    /// The assembled transform skeleton (levels kept, residual mass, …).
    pub fn transform(&self) -> &ResponseTransform {
        &self.transform
    }

    /// The options this analysis was built with.
    pub fn options(&self) -> &ResponseOptions {
        &self.options
    }

    /// Mean response time of the underlying stationary solution (Little's law).
    pub fn mean_response_time(&self) -> f64 {
        self.transform.mean_response_time()
    }

    /// Evaluates the response-time LST `W*(s) = E[e^{−sT}]` directly.
    ///
    /// # Errors
    ///
    /// Propagates resolvent failures; `s` in the right half-plane always succeeds.
    pub fn lst(&self, s: Complex) -> Result<Complex> {
        self.transform.lst_with(s, &mut Workspace::new())
    }

    /// The CDF `P(T ≤ t)` of response time, **certified**: both inversion methods are
    /// evaluated and must agree within
    /// [`agreement_tolerance`](ResponseOptions::agreement_tolerance).
    ///
    /// # Errors
    ///
    /// [`ModelError::InversionDivergence`] when the methods disagree — the value
    /// cannot be trusted and no number is returned.  `t ≤ 0` yields 0.
    pub fn response_time_cdf(&self, t: f64) -> Result<f64> {
        if t <= 0.0 {
            return if t.is_nan() {
                Err(ModelError::InvalidParameter {
                    name: "t",
                    value: t,
                    constraint: "the CDF argument must not be NaN",
                })
            } else {
                Ok(0.0)
            };
        }
        let (euler, _) = self.raw_cdf(t, InversionMethod::EulerSummation)?;
        self.certify(t, euler)
    }

    /// The raw CDF and density at `t` by `method`, on the analysis's pool.
    fn raw_cdf(&self, t: f64, method: InversionMethod) -> Result<(f64, f64)> {
        self.transform.cdf_density_at(t, method, &self.options.inversion, &self.pool)
    }

    /// Cross-checks an already-computed Euler CDF value against a fresh Talbot
    /// evaluation and returns the certified (clamped) value.
    fn certify(&self, t: f64, euler: f64) -> Result<f64> {
        let (talbot, _) = self.raw_cdf(t, InversionMethod::FixedTalbot)?;
        if (euler - talbot).abs() > self.options.agreement_tolerance {
            return Err(ModelError::InversionDivergence {
                time: t,
                euler,
                talbot,
                tolerance: self.options.agreement_tolerance,
            });
        }
        Ok(euler.clamp(0.0, 1.0))
    }

    /// The CDF by one specific method, uncertified (clamped to `[0, 1]`).  Exposed so
    /// validation suites can compare the methods individually.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures; `t ≤ 0` yields 0.
    pub fn cdf_with_method(&self, t: f64, method: InversionMethod) -> Result<f64> {
        if t <= 0.0 {
            return Ok(0.0);
        }
        let (value, _) = self.raw_cdf(t, method)?;
        Ok(value.clamp(0.0, 1.0))
    }

    /// The `fraction`-percentile of response time (`fraction = 0.99` for P99): the
    /// root of `P(T ≤ t) = fraction`, located by bracket expansion from the mean plus
    /// a safeguarded Newton iteration (the density is a free by-product of each CDF
    /// sweep), and certified by the dual-method check at the final point.
    ///
    /// # Errors
    ///
    /// Rejects fractions outside `(0, 1)`; propagates
    /// [`ModelError::InversionDivergence`] from the final certification and
    /// [`ModelError::NoConvergence`] if bracketing or refinement stalls.
    pub fn response_time_percentile(&self, fraction: f64) -> Result<f64> {
        self.percentile_with(fraction, None)
    }

    /// Several percentiles in one call, ascending ones warm-starting from their
    /// predecessors; results are returned in the order of `fractions`.
    ///
    /// # Errors
    ///
    /// As [`ResponseAnalysis::response_time_percentile`].
    pub fn response_time_percentiles(&self, fractions: &[f64]) -> Result<Vec<f64>> {
        let mut order: Vec<(usize, f64)> = fractions.iter().copied().enumerate().collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut results = vec![0.0; fractions.len()];
        let mut warm: Option<(f64, f64)> = None;
        for &(index, fraction) in &order {
            let t = self.percentile_with(fraction, warm)?;
            if let Some(slot) = results.get_mut(index) {
                *slot = t;
            }
            warm = Some((t, fraction));
        }
        Ok(results)
    }

    fn percentile_with(&self, fraction: f64, warm: Option<(f64, f64)>) -> Result<f64> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(ModelError::InvalidParameter {
                name: "fraction",
                value: fraction,
                constraint: "percentile fractions must lie strictly between 0 and 1",
            });
        }
        let raw_cdf = |t: f64| self.raw_cdf(t, InversionMethod::EulerSummation);
        // Bracket the root, starting from the warm point (a lower percentile of the
        // same distribution) or the mean response time.
        let (mut lo, mut f_lo) = match warm {
            Some((t, f)) if f < fraction && t > 0.0 => (t, f),
            _ => (0.0, 0.0),
        };
        let mut hi = if lo > 0.0 { lo * 1.5 } else { self.transform.mean_response_time() };
        if hi.is_nan() || hi <= 0.0 {
            hi = 1.0;
        }
        let (mut f_hi, _) = raw_cdf(hi)?;
        let mut expansions = 0usize;
        while f_hi < fraction {
            lo = hi;
            f_lo = f_hi;
            hi *= 2.0;
            let (value, _) = raw_cdf(hi)?;
            f_hi = value;
            expansions += 1;
            if expansions > 200 {
                return Err(ModelError::NoConvergence {
                    algorithm: "percentile bracket expansion",
                    iterations: expansions,
                });
            }
        }
        // Safeguarded Newton: each iteration costs one Euler sweep yielding both the
        // CDF value and the density, and the bracket guarantees progress when the
        // Newton step misbehaves.
        let tolerance = self.options.percentile_tolerance;
        let span = f_hi - f_lo;
        let mut x = if span > 0.0 {
            lo + (hi - lo) * ((fraction - f_lo) / span).clamp(0.05, 0.95)
        } else {
            0.5 * (lo + hi)
        };
        let mut converged = false;
        for _ in 0..128 {
            let (f, density) = raw_cdf(x)?;
            if f >= fraction {
                hi = x;
            } else {
                lo = x;
            }
            if (f - fraction).abs() <= 1e-13 || hi - lo <= tolerance * hi.max(tolerance) {
                converged = true;
                break;
            }
            let newton = x - (f - fraction) / density;
            x = if density > 0.0 && newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
        }
        if !converged {
            return Err(ModelError::NoConvergence {
                algorithm: "percentile Newton refinement",
                iterations: 128,
            });
        }
        // Certify the answer: the Euler value at x must survive the Talbot
        // cross-check (and the clamp cannot move an interior CDF value).
        let (euler, _) = raw_cdf(x)?;
        self.certify(x, euler)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::solution::QueueSolver;
    use crate::spectral::SpectralExpansionSolver;

    const METHODS: [InversionMethod; 2] =
        [InversionMethod::EulerSummation, InversionMethod::FixedTalbot];

    /// A lifecycle so reliable (breakdown rate 1e-9, repair rate 1e3) that the model
    /// is an M/M/N queue to within ~1e-12.
    fn no_breakdown() -> ServerLifecycle {
        ServerLifecycle::exponential(1e-9, 1e3).unwrap()
    }

    #[test]
    fn both_methods_invert_an_exponential_transform() {
        let options = InversionOptions::default();
        for method in METHODS {
            for t in [0.1, 0.5, 1.0, 2.5, 7.0] {
                // f(t) = e^{-t}  ⇔  F(s) = 1/(s+1).
                let inverted = invert_lst(|s| Ok((s + 1.0).recip()), t, method, &options).unwrap();
                assert!(
                    (inverted - (-t).exp()).abs() < 1e-9,
                    "{method:?} at t={t}: {inverted} vs {}",
                    (-t).exp()
                );
                // LST of Exp(2): E[e^{-sX}] = 2/(s+2); CDF 1 - e^{-2t}.
                let cdf =
                    invert_lst_cdf(|s| Ok((s + 2.0).recip() * 2.0), t, method, &options).unwrap();
                assert!(
                    (cdf - (1.0 - (-2.0 * t).exp())).abs() < 1e-9,
                    "{method:?} CDF at t={t}: {cdf}"
                );
            }
        }
    }

    #[test]
    fn inverter_rejects_bad_arguments() {
        let ok = |s: Complex| -> Result<Complex> { Ok(s.recip()) };
        let options = InversionOptions::default();
        assert!(invert_lst(ok, 0.0, InversionMethod::EulerSummation, &options).is_err());
        assert!(invert_lst(ok, -1.0, InversionMethod::FixedTalbot, &options).is_err());
        assert!(invert_lst(ok, f64::NAN, InversionMethod::EulerSummation, &options).is_err());
        assert_eq!(
            invert_lst_cdf(ok, -1.0, InversionMethod::EulerSummation, &options).unwrap(),
            0.0
        );
        assert!(invert_lst_cdf(ok, f64::NAN, InversionMethod::EulerSummation, &options).is_err());
        let bad = InversionOptions { talbot_nodes: 1, ..Default::default() };
        assert!(invert_lst(ok, 1.0, InversionMethod::FixedTalbot, &bad).is_err());
        let bad = InversionOptions { euler_decay: f64::INFINITY, ..Default::default() };
        assert!(invert_lst(ok, 1.0, InversionMethod::EulerSummation, &bad).is_err());
    }

    #[test]
    fn transform_evaluation_errors_propagate() {
        let failing = |_s: Complex| -> Result<Complex> {
            Err(ModelError::SpectralFailure("deliberate".into()))
        };
        let err = invert_lst(failing, 1.0, InversionMethod::EulerSummation, &Default::default());
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
            for method in METHODS {
                let value = analysis.cdf_with_method(t, method).unwrap();
                assert!((value - exact).abs() < 1e-8, "{method:?} at t={t}: {value} vs {exact}");
            }
            // The certified path agrees too (and does not divergence-error).
            let certified = analysis.response_time_cdf(t).unwrap();
            assert!((certified - exact).abs() < 1e-8);
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
            for method in METHODS {
                let value = analysis.cdf_with_method(t, method).unwrap();
                assert!((value - exact).abs() < 1e-8, "{method:?} at t={t}: {value} vs {exact}");
            }
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
    fn transforms_are_cached_per_configuration() {
        let cache = SolverCache::shared();
        let config =
            SystemConfig::new(3, 2.0, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap();
        let options = ResponseOptions::default();
        let first = ResponseAnalysis::with_cache(&config, options, &cache).unwrap();
        let second = ResponseAnalysis::with_cache(&config, options, &cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.transform_misses, 1);
        assert_eq!(stats.transform_hits, 1);
        assert_eq!(cache.len().transforms, 1);
        assert!(Arc::ptr_eq(&first.transform, &second.transform));
        // A different tail threshold is a different transform.
        let looser = ResponseOptions { tail_epsilon: 1e-9, ..options };
        ResponseAnalysis::with_cache(&config, looser, &cache).unwrap();
        assert_eq!(cache.stats().transform_misses, 2);
        assert_eq!(cache.len().transforms, 2);
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
        let loose = ResponseAnalysis::with_options(
            &config,
            ResponseOptions { tail_epsilon: 1e-6, ..Default::default() },
        )
        .unwrap();
        assert!(tight.transform().residual_mass() <= 1e-13);
        assert!(loose.transform().residual_mass() <= 1e-6);
        assert!(tight.transform().truncation_levels() > loose.transform().truncation_levels());
        // Both truncations agree on the CDF to far better than the loose tail mass.
        let a = tight.response_time_cdf(2.0).unwrap();
        let b = loose.response_time_cdf(2.0).unwrap();
        assert!((a - b).abs() < 1e-6);
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
            let transform =
                ResponseTransform::assemble(qbd.skeleton(), &solution, tail_epsilon).unwrap();
            let (levels, _) =
                solution.arrival_state_distribution(tail_epsilon, config.servers() + 1).unwrap();
            let mean = transform.mean_response_time();
            let mut workspace = Workspace::new();
            let mut worst = 0.0_f64;
            for t in [0.5 * mean, 2.0 * mean, 8.0 * mean] {
                for method in METHODS {
                    for (s, _) in inversion.quadrature(method, t) {
                        let got = transform.lst_with(s, &mut workspace).unwrap();
                        let want = reference_lst(qbd.skeleton(), &levels, s);
                        worst = worst.max((got - want).abs() / want.abs());
                    }
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
        for &lambda in &analysis.transform().eigenvalues {
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
            reversible_weights(&cycle),
            Err(ModelError::InvalidParameter { name: "mode_chain", .. })
        ));
        // Reverse rates that break Kolmogorov's criterion around the cycle.
        let skewed = Matrix::from_fn(3, 3, |i, j| match (j + 3 - i) % 3 {
            1 => 2.0,
            2 => 1.0,
            _ => 0.0,
        });
        assert!(reversible_weights(&skewed).is_err());
        // A birth–death chain is reversible; its weights are √π up to scale.
        let chain =
            Matrix::from_rows(&[&[0.0, 2.0, 0.0][..], &[1.0, 0.0, 3.0][..], &[0.0, 1.5, 0.0][..]])
                .unwrap();
        let w = reversible_weights(&chain).unwrap();
        let pi: Vec<f64> = w.iter().map(|x| x * x).collect();
        assert!((pi[0] * 2.0 - pi[1] * 1.0).abs() < 1e-15);
        assert!((pi[1] * 3.0 - pi[2] * 1.5).abs() < 1e-15);
        assert_eq!(w.iter().fold(0.0_f64, |m, x| m.max(*x)), 1.0);
    }
}
