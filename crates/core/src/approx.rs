//! The geometric (heavy-traffic) approximation (Section 3.2 of the paper).
//!
//! The exact spectral expansion keeps all `s` eigenvalues inside the unit disk.  The
//! approximation discards every term except the one belonging to the eigenvalue with
//! the largest modulus, `z_s = η` (always real and positive), yielding
//!
//! ```text
//! v_j ≈ u/(u·1) · (1 − η) · η^j ,    j = 0, 1, …
//! ```
//!
//! i.e. a geometric queue-length distribution that is *independent* of the operational
//! mode.  The approximation requires only one eigenvalue/eigenvector pair, is immune to
//! the ill-conditioning that affects the exact solution for large `N`, and is
//! asymptotically exact in heavy traffic (Mitrani 2005) — exactly the behaviour
//! reproduced in Figure 8.
//!
//! # Finding η without the eigensystem
//!
//! One root and one vector do not need the full quadratic eigensolve.  With `Q0 = λI`
//! and `Q2 = C` diagonal, `K(z) = Q0/z + Q1 + z·Q2` is, for `z > 0`, a Z-matrix whose
//! off-diagonal part `A` is constant — only the diagonal
//! `−K(z)ᵢᵢ = Dᴬᵢ + (1 − z)(Cᵢ − λ/z)` moves with `z`.  `η` is Neuts' caudal
//! characteristic (*Matrix-Geometric Solutions in Stochastic Models*, 1981): `−K(z)` is
//! a nonsingular M-matrix exactly on `η < z < 1`.  A Z-matrix is a nonsingular M-matrix
//! iff every pivot of its *unpivoted* LU is positive (Berman & Plemmons, 1979), so
//! [`BandedMatrix::m_matrix_lu`] is an exact predicate that brackets `η`, at
//! `O(s·kl·ku)` per evaluation inside the band of `A`.  Just below `η` only the last
//! pivot turns non-positive, so once both ends of the bracket carry a last pivot the
//! search refines it by a safeguarded secant (Illinois regula falsi) on that pivot,
//! falling back to bisection, until the bracket is a few ulps wide.
//!
//! The mode vector comes from the factors at the M-matrix end of the bracket:
//! `u = e_sᵀ·L⁻¹` satisfies `u·(−K) = (0, …, 0, U_ss)` with `U_ss → 0`, and because
//! `L⁻¹ ≥ 0` for an M-matrix factor it is non-negative by construction.

use std::sync::Arc;

use urs_linalg::{BandedMatrix, MMatrixLu, Workspace, ZMatrixLu};

use crate::cache::{qbd_matrices, SolverCache};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::qbd::QbdSkeleton;
use crate::solution::{QueueSolution, QueueSolver};
use crate::Result;

/// Width, in units of `f64::EPSILON·η`, below which the root bracket has converged.
const BRACKET_ULPS: f64 = 4.0;

/// Most unpivoted factorisations one root search may spend.  Bisection alone
/// narrows `(0, 1)` to a few ulps of `η` in about `50 + log₂(1/η)` steps; the
/// secant usually needs about 20.
const MAX_SEARCH_STEPS: usize = 128;

/// The geometric approximation solver.
///
/// # Example
///
/// ```
/// use urs_core::{GeometricApproximation, QueueSolution, ServerLifecycle, SystemConfig};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let config = SystemConfig::new(10, 9.5, 1.0, ServerLifecycle::paper_fitted()?)?;
/// let approx = GeometricApproximation::default().solve_detailed(&config)?;
/// assert!(approx.mean_queue_length() > 9.0);
/// assert!(approx.decay_rate() > 0.0 && approx.decay_rate() < 1.0);
/// # Ok(())
/// # }
/// ```
///
/// When the approximation runs next to an exact solver on the same grid (Figures 8
/// and 9), attach the *same* [`SolverCache`] to both with
/// [`with_cache`](Self::with_cache): they then build each λ-independent QBD skeleton
/// once between them.
#[derive(Debug, Clone, Default)]
pub struct GeometricApproximation {
    cache: Option<Arc<SolverCache>>,
}

impl GeometricApproximation {
    /// Attaches a [`SolverCache`]; the approximation reuses its QBD skeletons.
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SolverCache>> {
        self.cache.as_ref()
    }

    /// Solves the model, returning the concrete [`GeometricSolution`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unstable`] for non-ergodic configurations and
    /// [`ModelError::NoConvergence`] if the root search does not close its bracket
    /// within its step budget.
    pub fn solve_detailed(&self, config: &SystemConfig) -> Result<GeometricSolution> {
        config.ensure_stable()?;
        let qbd = qbd_matrices(self.cache.as_ref(), config)?;
        let root = DominantRoot::search(qbd.skeleton(), config.arrival_rate())?;
        let mut mode_distribution = root.vector;
        // The last entry is 1 and none is negative, so the sum is at least 1.
        let sum: f64 = mode_distribution.iter().sum();
        for p in &mut mode_distribution {
            *p /= sum;
        }
        Ok(GeometricSolution {
            arrival_rate: config.arrival_rate(),
            decay_rate: root.eta,
            mode_distribution,
            search_steps: root.steps,
        })
    }
}

/// The dominant root `η` of `det Q(z)` in `(0, 1)` with its (unnormalised, non-negative)
/// left null vector, and the number of factorisations the search spent.
struct DominantRoot {
    eta: f64,
    vector: Vec<f64>,
    steps: usize,
}

/// The matrix family `−K(z)` of a skeleton at one arrival rate: the constant
/// off-diagonal band `−A` and the diagonal `Dᴬ + (1 − z)(C − λ/z)`, rewritten per step.
struct CaudalFamily<'a> {
    minus_k: BandedMatrix,
    da: &'a [f64],
    c: &'a [f64],
    lambda: f64,
    ws: Workspace,
    steps: usize,
}

impl<'a> CaudalFamily<'a> {
    fn new(skeleton: &'a QbdSkeleton, lambda: f64) -> Self {
        let (kl, ku) = skeleton.q1_bandwidths();
        let a = skeleton.a();
        let minus_k = BandedMatrix::from_fn(skeleton.order(), kl, ku, |i, j| {
            if i == j {
                0.0
            } else {
                -a.get(i, j).unwrap_or(0.0)
            }
        });
        CaudalFamily {
            minus_k,
            da: skeleton.da(),
            c: skeleton.c(),
            lambda,
            ws: Workspace::new(),
            steps: 0,
        }
    }

    /// The unpivoted elimination of `−K(z)`: factors when it is a nonsingular
    /// M-matrix, the first non-positive pivot otherwise.
    fn factor_at(&mut self, z: f64) -> Result<ZMatrixLu> {
        self.steps += 1;
        let lambda = self.lambda;
        let diagonal = self.da.iter().zip(self.c).map(|(da, c)| da + (1.0 - z) * (c - lambda / z));
        self.minus_k.set_diagonal(diagonal);
        Ok(self.minus_k.m_matrix_lu(&mut self.ws)?)
    }
}

/// One end of the root bracket: its abscissa, the secant variable there when known,
/// and the Illinois weight halving a value the regula falsi keeps retaining.
#[derive(Debug, Clone, Copy)]
struct BracketEnd {
    z: f64,
    value: Option<f64>,
    weight: f64,
}

impl BracketEnd {
    fn new(z: f64, value: Option<f64>) -> Self {
        BracketEnd { z, value, weight: 1.0 }
    }

    fn weighted(&self) -> Option<f64> {
        self.value.map(|v| v * self.weight)
    }
}

impl DominantRoot {
    /// Brackets `η` between a point where `−K(z)` is not a nonsingular M-matrix (`lo`)
    /// and one where it is (`hi`), starting from `(0, 1)` — see the module docs.
    ///
    /// The secant runs on the last pivot scaled by `z/(1 − z)`: that removes the
    /// pivot's second zero at `z = 1` and its `1/z` pole, leaving a near-linear
    /// function with a simple root at `η` (exactly `µz − λ` for a single mode).
    fn search(skeleton: &QbdSkeleton, lambda: f64) -> Result<Self> {
        let s = skeleton.order();
        let mut family = CaudalFamily::new(skeleton, lambda);
        let scaled = |z: f64, pivot: f64| pivot * z / (1.0 - z);
        let mut lo = BracketEnd::new(0.0, None);
        let mut hi = BracketEnd::new(1.0, None);
        let mut hi_lu: Option<MMatrixLu> = None;
        // The M-matrix point `hi` replaced, for a secant through two points above η
        // while `lo` has no value yet.
        let mut previous_hi: Option<(f64, f64)> = None;
        let mut moved_hi_last: Option<bool> = None;
        // Bracket widths before the last three steps: a secant that has not halved
        // the bracket over three steps hands the next step to bisection.
        let mut widths = [1.0_f64; 3];
        loop {
            let width = hi.z - lo.z;
            let tolerance = BRACKET_ULPS * f64::EPSILON * hi.z;
            if let Some(lu) = &hi_lu {
                if width <= tolerance {
                    let mut vector = vec![0.0; s];
                    lu.last_row_of_l_inverse_into(&mut vector)?;
                    return Ok(DominantRoot { eta: hi.z, vector, steps: family.steps });
                }
            }
            if family.steps >= MAX_SEARCH_STEPS {
                return Err(ModelError::NoConvergence {
                    algorithm: "dominant-root bracket search",
                    iterations: family.steps,
                });
            }
            let [three_steps_ago, two_steps_ago, one_step_ago] = widths;
            let stalled = width > 0.5 * three_steps_ago;
            widths = [two_steps_ago, one_step_ago, width];
            // Regula falsi across the bracket once both ends carry a value; until `lo`
            // does, the secant through the last two M-matrix points (unweighted).
            let secant = match (lo.weighted(), hi.weighted(), hi.value, previous_hi) {
                _ if stalled => None,
                (Some(f_lo), Some(f_hi), _, _) => Some(hi.z - f_hi * width / (f_hi - f_lo)),
                (None, _, Some(f_hi), Some((z_prev, f_prev))) => {
                    Some(hi.z - f_hi * (hi.z - z_prev) / (f_hi - f_prev))
                }
                _ => None,
            };
            // Every secant probe stays half a tolerance inside the bracket, so a
            // secant converging from one side still closes the other.
            let margin = 0.5 * tolerance;
            let z = match secant {
                Some(z) if z > lo.z && z < hi.z => z.max(lo.z + margin).min(hi.z - margin),
                _ => lo.z + 0.5 * width,
            };
            match family.factor_at(z)? {
                ZMatrixLu::MMatrix(lu) => {
                    previous_hi = hi.value.map(|v| (hi.z, v));
                    hi = BracketEnd::new(z, Some(scaled(z, lu.last_pivot())));
                    if moved_hi_last == Some(true) {
                        lo.weight *= 0.5;
                    }
                    moved_hi_last = Some(true);
                    if let Some(old) = hi_lu.replace(lu) {
                        old.recycle(&mut family.ws);
                    }
                }
                ZMatrixLu::NonPositivePivot { index, value } => {
                    lo = BracketEnd::new(z, (index + 1 == s).then(|| scaled(z, value)));
                    if moved_hi_last == Some(false) {
                        hi.weight *= 0.5;
                    }
                    moved_hi_last = Some(false);
                }
            }
        }
    }
}

impl QueueSolver for GeometricApproximation {
    fn name(&self) -> &'static str {
        "geometric approximation"
    }

    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>> {
        Ok(Box::new(self.solve_detailed(config)?))
    }
}

/// The approximate solution: a geometric queue-length distribution with decay rate
/// `η`, independent of the operational mode.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometricSolution {
    arrival_rate: f64,
    decay_rate: f64,
    mode_distribution: Vec<f64>,
    search_steps: usize,
}

impl GeometricSolution {
    /// The dominant eigenvalue `η` (the geometric decay rate of the queue length).
    pub fn decay_rate(&self) -> f64 {
        self.decay_rate
    }

    /// How many unpivoted factorisations of `−K(z)` the root search evaluated — a
    /// deterministic work counter, identical on every run and thread count.
    pub fn search_steps(&self) -> usize {
        self.search_steps
    }

    /// `η^exponent`; exponents past `powi`'s `i32` range carry no mass.
    fn decay_power(&self, exponent: usize) -> f64 {
        i32::try_from(exponent).map_or(0.0, |e| self.decay_rate.powi(e))
    }
}

impl QueueSolution for GeometricSolution {
    fn mode_count(&self) -> usize {
        self.mode_distribution.len()
    }

    fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    fn state_probability(&self, mode: usize, level: usize) -> f64 {
        self.mode_distribution
            .get(mode)
            .map_or(0.0, |p| p * (1.0 - self.decay_rate) * self.decay_power(level))
    }

    fn level_probability(&self, level: usize) -> f64 {
        (1.0 - self.decay_rate) * self.decay_power(level)
    }

    fn mode_marginal(&self) -> Vec<f64> {
        self.mode_distribution.clone()
    }

    fn mean_queue_length(&self) -> f64 {
        self.decay_rate / (1.0 - self.decay_rate)
    }

    fn tail_probability(&self, level: usize) -> f64 {
        level.checked_add(1).map_or(0.0, |exponent| self.decay_power(exponent))
    }
}

/// Convenience: the dominant eigenvalue used by the approximation, exposed for
/// diagnostics and the Figure 8 experiment without building the full solution object.
///
/// # Errors
///
/// Same conditions as [`GeometricApproximation::solve_detailed`].
pub fn dominant_eigenvalue(config: &SystemConfig) -> Result<f64> {
    Ok(GeometricApproximation::default().solve_detailed(config)?.decay_rate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::solution::consistency_violations;
    use crate::spectral::SpectralExpansionSolver;

    fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
        SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
    }

    #[test]
    fn approximation_is_a_valid_distribution() {
        let solution =
            GeometricApproximation::default().solve_detailed(&paper_config(5, 4.0)).unwrap();
        let violations = consistency_violations(&solution, 50, 1e-9);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(solution.decay_rate() > 0.0 && solution.decay_rate() < 1.0);
    }

    #[test]
    fn decay_rate_matches_exact_dominant_eigenvalue() {
        let config = paper_config(4, 3.0);
        let approx = GeometricApproximation::default().solve_detailed(&config).unwrap();
        let exact = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
        assert!((approx.decay_rate() - exact.dominant_eigenvalue()).abs() < 1e-8);
        assert!((dominant_eigenvalue(&config).unwrap() - approx.decay_rate()).abs() < 1e-12);
    }

    #[test]
    fn approximation_improves_with_load() {
        // Relative error of L should shrink as the load grows (Figure 8's message).
        // The paper's Figure 8 shows a visible gap at ρ ≈ 0.9 that closes only as the
        // load approaches saturation, so the final error bound is deliberately loose.
        let mut previous_error = f64::INFINITY;
        for &lambda in &[6.0, 8.0, 9.3, 9.8, 9.95] {
            let config = paper_config(10, lambda);
            let exact = SpectralExpansionSolver::default()
                .solve_detailed(&config)
                .unwrap()
                .mean_queue_length();
            let approx = GeometricApproximation::default()
                .solve_detailed(&config)
                .unwrap()
                .mean_queue_length();
            let rel_error = (approx - exact).abs() / exact;
            assert!(
                rel_error < previous_error + 1e-9,
                "relative error should not grow with load: {rel_error} after {previous_error}"
            );
            previous_error = rel_error;
        }
        assert!(previous_error < 0.05, "heavy-traffic error should be small: {previous_error}");
    }

    #[test]
    fn unstable_configuration_is_rejected() {
        let config = paper_config(3, 5.0);
        assert!(matches!(
            GeometricApproximation::default().solve_detailed(&config),
            Err(ModelError::Unstable { .. })
        ));
    }

    #[test]
    fn levels_past_the_exponent_range_carry_no_mass() {
        let solution =
            GeometricApproximation::default().solve_detailed(&paper_config(4, 3.0)).unwrap();
        let far = [i32::MAX as usize + 1, u32::MAX as usize + 5, usize::MAX];
        let mut previous_tail = solution.tail_probability(i32::MAX as usize - 1);
        for level in far {
            let tail = solution.tail_probability(level);
            assert!(tail.is_finite() && (0.0..=1.0).contains(&tail), "tail at {level}: {tail}");
            assert!(tail <= previous_tail, "tail must not grow at {level}: {tail}");
            previous_tail = tail;
            let p = solution.level_probability(level);
            assert!(p.is_finite() && (0.0..=1.0).contains(&p), "level {level}: {p}");
            for mode in 0..solution.mode_count() {
                let q = solution.state_probability(mode, level);
                assert!(q.is_finite() && (0.0..=1.0).contains(&q), "state ({mode}, {level}): {q}");
            }
        }
        // Level i32::MAX is the first whose tail exponent does not fit, and must
        // neither overflow nor wrap.
        assert_eq!(solution.tail_probability(i32::MAX as usize), 0.0);
    }

    #[test]
    fn search_steps_count_the_factorisations() {
        let config = paper_config(6, 5.0);
        let first = GeometricApproximation::default().solve_detailed(&config).unwrap();
        let again = GeometricApproximation::default().solve_detailed(&config).unwrap();
        assert_eq!(first.search_steps(), again.search_steps());
        assert!(first.search_steps() > 1 && first.search_steps() <= MAX_SEARCH_STEPS);
    }

    #[test]
    fn mode_marginal_is_a_probability_vector() {
        let solution =
            GeometricApproximation::default().solve_detailed(&paper_config(6, 5.0)).unwrap();
        let marginal = solution.mode_marginal();
        assert!((marginal.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(marginal.iter().all(|p| *p >= 0.0));
    }
}
