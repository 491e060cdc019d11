//! Spectrum slicing of the characteristic family of a quasi-birth–death process.
//!
//! The repeating levels of a QBD with arrival rates `Q0 = diag(λ)`, departure rates
//! `Q2 = diag(c)` and mode changes `A ≥ 0` (zero diagonal, row sums `Dᴬ`) have the
//! characteristic polynomial `Q(z) = Q0 + Q1·z + Q2·z²` with
//! `Q1 = A − diag(Dᴬ + λ + c)`.  For `z > 0`,
//!
//! ```text
//! −K(z) = −Q(z)/z = −A + diag(Dᴬ + (1 − z)(c − λ/z))
//! ```
//!
//! is a Z-matrix whose off-diagonal part is constant: only the diagonal moves with
//! `z`.  [`CaudalFamily`] holds that family and answers every question about the
//! roots of `det Q(z)` in `(0, 1)` with one unpivoted banded elimination per point,
//! [`BandedMatrix::m_matrix_lu`]:
//!
//! * **The dominant root.**  `η` is Neuts' caudal characteristic (*Matrix-Geometric
//!   Solutions in Stochastic Models*, 1981): `−K(z)` is a nonsingular M-matrix
//!   exactly on `η < z < 1`, and a Z-matrix is one iff every pivot of its unpivoted
//!   LU is positive (Berman & Plemmons, 1979).  That predicate brackets `η` with no
//!   further assumption ([`CaudalFamily::dominant_root`]).
//! * **Every root.**  When the mode chain is reversible, a diagonal similarity makes
//!   `−K(z)` symmetric and the quadratic eigenproblem is *hyperbolic* (Duffin 1955;
//!   Tisseur & Meerbergen, SIAM Review 2001): all roots are real, exactly `s` lie in
//!   `(0, 1)`, and by Sylvester's law of inertia the number of negative pivots of the
//!   unpivoted LU of `−K(z)` is the number of roots above `z` (the similarity leaves
//!   the pivots unchanged).  [`CaudalFamily::roots_in_unit_interval`] isolates the
//!   roots by bisecting on that count, then refines each one alone.
//!
//! Both searches close their bracket by the same safeguarded secant (Illinois
//! regula falsi, falling back to bisection) until it is a few ulps wide.  The
//! dominant-root search runs it on the last pivot, the only one that changes sign
//! at `η` while the others stay positive; a root inside the spectrum runs it on
//! `det Q(z)/(1 − z)`, whose sign is fixed by the count and which, unlike the last
//! pivot, has no pole between neighbouring roots.
//!
//! An unpivoted elimination that meets an exact zero pivot before the last has no
//! count, and one that meets a tiny pivot may count wrongly through element growth.
//! Such a probe keeps its point: the pivoted banded LU ([`BandedLu`]) gives the sign
//! and size of its determinant, and the count comes from the nearest trustworthy
//! point above it, deterministically.

use crate::banded::{BandedLu, BandedMatrix, Inertia, MMatrixLu, ZMatrixLu};
use crate::error::LinalgError;
use crate::parallel::ThreadPool;
use crate::workspace::Workspace;
use crate::Result;

/// Width, in units of `f64::EPSILON` times the upper end, below which a root bracket
/// has converged.
const BRACKET_ULPS: f64 = 4.0;

/// Most probes one root search may spend.  Bisection alone narrows `(0, 1)` to a
/// few ulps of `η` in about `50 + log₂(1/η)` steps.
const MAX_SEARCH_STEPS: usize = 128;

/// The matrix family `−K(z)` of a quasi-birth–death process (module docs): the
/// constant off-diagonal band `−A` and the diagonal `Dᴬ + (1 − z)(c − λ/z)`.
#[derive(Debug, Clone)]
pub struct CaudalFamily {
    /// `−A` off the diagonal; the diagonal slots are rewritten at every probe.
    minus_a: BandedMatrix,
    da: Vec<f64>,
    c: Vec<f64>,
    lambda: Vec<f64>,
}

/// The dominant root `η` of `det Q(z)` in `(0, 1)`, its left null vector and the
/// number of factorisations the search spent.
#[derive(Debug, Clone, PartialEq)]
pub struct DominantRoot {
    /// The root: the upper end of a bracket at most 4 ulps wide, where `−K(η)` is a
    /// nonsingular M-matrix.
    pub eta: f64,
    /// `u = e_sᵀ·L⁻¹` from the factors at `η`: `u·(−K(η)) = (0, …, 0, U_ss)` with
    /// `U_ss → 0`.  Its last entry is 1 and, because `L⁻¹ ≥ 0` for an M-matrix
    /// factor, no entry is negative.
    pub vector: Vec<f64>,
    /// Unpivoted factorisations evaluated: a deterministic work counter.
    pub steps: usize,
}

/// The mutable side of the family: the band whose diagonal each probe rewrites,
/// the elimination's scratch, and the number of factorisations so far.  One per
/// worker, so probes in parallel share only the immutable [`CaudalFamily`].
#[derive(Debug)]
struct Scratch {
    minus_k: BandedMatrix,
    ws: Workspace,
    steps: usize,
}

/// One slicing probe: the point, the number of roots above it and
/// `ln |det Q(z)/(1 − z)|`.
#[derive(Debug, Clone, Copy)]
struct Slice {
    z: f64,
    above: usize,
    log_magnitude: f64,
}

/// One evaluation for the bracket search: which side of the root the point lies on,
/// the secant variable there when it is usable, and the M-matrix factors when the
/// probe found them.
struct Probe {
    below_root: bool,
    value: Option<f64>,
    factors: Option<MMatrixLu>,
}

/// One end of a root bracket: its abscissa, the secant variable there when known,
/// the Illinois weight halving a value the regula falsi keeps retaining, and whether
/// the point was probed (the initial ends of the dominant-root search are not).
#[derive(Debug, Clone, Copy)]
struct BracketEnd {
    z: f64,
    value: Option<f64>,
    weight: f64,
    probed: bool,
}

impl BracketEnd {
    fn new(z: f64, value: Option<f64>) -> Self {
        BracketEnd { z, value, weight: 1.0, probed: true }
    }

    fn weighted(&self) -> Option<f64> {
        self.value.map(|v| v * self.weight)
    }
}

impl CaudalFamily {
    /// The family of a QBD from its mode-change rates `a` (band storage; the
    /// diagonal is ignored), their row sums `da`, and the per-mode departure rates
    /// `c` and arrival rates `lambda`.  A negative or non-finite rate in `a` makes
    /// `−K(z)` no Z-matrix, which the first elimination reports.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when a vector's length differs
    /// from `a`'s order, and [`LinalgError::InvalidInput`] for an empty family, a
    /// non-finite vector entry or a non-positive arrival rate.
    pub fn new(a: &BandedMatrix, da: &[f64], c: &[f64], lambda: &[f64]) -> Result<Self> {
        let n = a.dim();
        if n == 0 {
            return Err(LinalgError::InvalidInput("the family must be non-empty".into()));
        }
        if let Some(len) = [da.len(), c.len(), lambda.len()].into_iter().find(|&len| len != n) {
            return Err(LinalgError::DimensionMismatch {
                operation: "caudal family",
                left: (n, n),
                right: (len, 1),
            });
        }
        if !da.iter().chain(c).chain(lambda).all(|x| x.is_finite())
            || lambda.iter().any(|l| *l <= 0.0)
        {
            return Err(LinalgError::InvalidInput(
                "rates must be finite and arrival rates positive".into(),
            ));
        }
        let (kl, ku) = (a.lower_bandwidth(), a.upper_bandwidth());
        let minus_a =
            BandedMatrix::from_fn(n, kl, ku, |i, j| if i == j { 0.0 } else { -a.get(i, j) });
        Ok(CaudalFamily { minus_a, da: da.to_vec(), c: c.to_vec(), lambda: lambda.to_vec() })
    }

    /// Number of modes `s`.
    fn order(&self) -> usize {
        self.da.len()
    }

    fn scratch(&self) -> Scratch {
        Scratch { minus_k: self.minus_a.clone(), ws: Workspace::new(), steps: 0 }
    }

    /// The unpivoted elimination of `−K(z)`.
    fn factor_at(&self, scratch: &mut Scratch, z: f64) -> Result<ZMatrixLu> {
        scratch.steps += 1;
        let diagonal = self
            .da
            .iter()
            .zip(&self.c)
            .zip(&self.lambda)
            .map(|((da, c), lambda)| da + (1.0 - z) * (c - lambda / z));
        scratch.minus_k.set_diagonal(diagonal);
        scratch.minus_k.m_matrix_lu(&mut scratch.ws)
    }

    /// The unpivoted elimination of `−K(z)` when its count can be trusted: `None`
    /// when it met a zero pivot, or a pivot so small that the updates it caused
    /// exceed the matrix's diagonal 1e6-fold ([`Inertia::growth`]), enough for
    /// their cancellation to flip a later pivot.
    fn trusted_inertia(&self, scratch: &mut Scratch, z: f64) -> Result<Option<Inertia>> {
        let inertia = match self.factor_at(scratch, z)? {
            ZMatrixLu::MMatrix(lu) => {
                let inertia = lu.inertia();
                lu.recycle(&mut scratch.ws);
                Some(inertia)
            }
            ZMatrixLu::NonPositivePivot { inertia, .. } => inertia,
        };
        Ok(inertia.filter(|i| i.growth <= 1e6))
    }

    /// Counts the roots above `z` (module docs).  Where the unpivoted elimination
    /// cannot be trusted, the sign and size of the determinant come from a pivoted
    /// LU of `−K(z)`, and the count from the nearest trustworthy point above `z`
    /// (`z·√ε` away, then doubling), plus one when the determinant changes sign in
    /// between.
    fn slice_at(&self, scratch: &mut Scratch, z: f64) -> Result<Slice> {
        // det Q(z) = (−z)^s·det(−K(z)); dividing by 1 − z removes the root at 1.
        let log_scale = self.order() as f64 * z.ln() - (1.0 - z).ln();
        if let Some(inertia) = self.trusted_inertia(scratch, z)? {
            let log_magnitude = inertia.log_abs_determinant + log_scale;
            return Ok(Slice { z, above: inertia.negative, log_magnitude });
        }
        let (sign, log_det) =
            BandedLu::new_allow_singular(&scratch.minus_k)?.signed_log_determinant();
        let mut step = z * f64::EPSILON.sqrt();
        while z + step < 1.0 {
            if let Some(inertia) = self.trusted_inertia(scratch, z + step)? {
                let parity = if inertia.negative % 2 == 0 { 1.0 } else { -1.0 };
                let above = inertia.negative + usize::from(sign * parity < 0.0);
                return Ok(Slice { z, above, log_magnitude: log_det + log_scale });
            }
            step *= 2.0;
        }
        Err(LinalgError::NoConvergence { algorithm: "spectrum slice", iterations: scratch.steps })
    }

    /// The number of roots of `det Q(z)` in `(z, 1)` for a family in the hyperbolic
    /// class, read off the negative pivots of one unpivoted elimination.  At a point
    /// where that elimination meets a zero or tiny pivot, the count is taken a
    /// little above `z` and corrected by the sign of a pivoted determinant at `z`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] unless `0 < z < 1`, and
    /// [`LinalgError::NoConvergence`] if no trustworthy point lies between `z`
    /// and 1.
    pub fn roots_above(&self, z: f64) -> Result<usize> {
        if !(z > 0.0 && z < 1.0) {
            return Err(LinalgError::InvalidInput(format!("slice point {z} is not in (0, 1)")));
        }
        Ok(self.slice_at(&mut self.scratch(), z)?.above)
    }

    /// The dominant root `η` by the M-matrix test, starting from the bracket
    /// `(0, 1)` (module docs).
    ///
    /// The secant runs on the last pivot scaled by `z/(1 − z)`: that removes the
    /// pivot's second zero at `z = 1` and its `1/z` pole, leaving a near-linear
    /// function with a simple root at `η` (exactly `µz − λ` for a single mode).  It
    /// is usable at a point below `η` only when every other pivot is positive.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NoConvergence`] if the bracket does not close within
    /// 128 probes.
    pub fn dominant_root(&self) -> Result<DominantRoot> {
        let s = self.order();
        let mut scratch = self.scratch();
        let scaled = |z: f64, pivot: f64| pivot * z / (1.0 - z);
        let lo = BracketEnd { probed: false, ..BracketEnd::new(0.0, None) };
        let hi = BracketEnd { probed: false, ..BracketEnd::new(1.0, None) };
        let (eta, factors) = bracket_search(&mut scratch, lo, hi, false, |scratch, z| {
            Ok(match self.factor_at(scratch, z)? {
                ZMatrixLu::MMatrix(lu) => Probe {
                    below_root: false,
                    value: Some(scaled(z, lu.last_pivot())),
                    factors: Some(lu),
                },
                ZMatrixLu::NonPositivePivot { index, value, .. } => Probe {
                    below_root: true,
                    value: (index + 1 == s).then(|| scaled(z, value)),
                    factors: None,
                },
            })
        })?;
        let lu = factors.ok_or(LinalgError::NoConvergence {
            algorithm: "dominant-root bracket search",
            iterations: scratch.steps,
        })?;
        let mut vector = vec![0.0; s];
        lu.last_row_of_l_inverse_into(&mut vector)?;
        Ok(DominantRoot { eta, vector, steps: scratch.steps })
    }

    /// Every root of `det Q(z)` in `(0, 1 − margin)`, in ascending order, for a
    /// family in the hyperbolic class (module docs).
    ///
    /// The roots are isolated by bisecting on the count [`roots_above`]: each round
    /// halves every interval that still holds two or more roots, and the round's
    /// probes are spread across `pool`.  Each isolated root is then refined alone by
    /// the secant on `det(−K(z))` until its bracket is 4 ulps wide, and reported as
    /// the bracket's upper end.  The probes of a round depend only on the intervals,
    /// and a root's refinement only on its bracket, so the roots are bit-identical
    /// at any thread count.  Roots that no float separates are reported once per
    /// multiplicity.
    ///
    /// [`roots_above`]: Self::roots_above
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] unless `0 < margin < 1`, or when the
    /// family is outside the class: fewer than `s` roots lie just above 0, some
    /// root lies at or above `1 − margin`, or the counts disagree with each other.
    /// Returns [`LinalgError::NoConvergence`] if a refinement does not close within
    /// its budget.
    pub fn roots_in_unit_interval(&self, margin: f64, pool: &ThreadPool) -> Result<Vec<f64>> {
        if !(margin > 0.0 && margin < 1.0) {
            return Err(LinalgError::InvalidInput(format!("margin {margin} is not in (0, 1)")));
        }
        let s = self.order();
        let mut scratch = self.scratch();
        let lo = self.slice_at(&mut scratch, self.lower_probe())?;
        let hi = self.slice_at(&mut scratch, 1.0 - margin)?;
        if lo.above != s || hi.above != 0 {
            return Err(LinalgError::InvalidInput(format!(
                "not a hyperbolic family: {} of {s} roots above {}, {} above {}",
                lo.above, lo.z, hi.above, hi.z
            )));
        }
        let mut roots = Vec::with_capacity(s);
        let mut isolated = Vec::new();
        let mut pending = vec![(lo, hi)];
        while !pending.is_empty() {
            let midpoints: Vec<f64> =
                pending.iter().map(|(lo, hi)| lo.z + 0.5 * (hi.z - lo.z)).collect();
            let slices = self
                .map_scratch(pool, &midpoints, |family, scratch, &z| family.slice_at(scratch, z))?;
            let mut next = Vec::new();
            for ((lo, hi), mid) in pending.into_iter().zip(slices) {
                for (a, b) in [(lo, mid), (mid, hi)] {
                    match a.above.saturating_sub(b.above) {
                        0 => {}
                        1 => isolated.push((a, b)),
                        k if b.z - a.z <= BRACKET_ULPS * f64::EPSILON * b.z => {
                            roots.extend(std::iter::repeat_n(b.z, k));
                        }
                        _ => next.push((a, b)),
                    }
                }
            }
            pending = next;
        }
        let refined = self.map_scratch(pool, &isolated, |family, scratch, &(lo, hi)| {
            family.refine(scratch, lo, hi)
        })?;
        roots.extend(refined);
        if roots.len() != s {
            return Err(LinalgError::InvalidInput(format!(
                "inconsistent root counts: isolated {} of {s} roots",
                roots.len()
            )));
        }
        roots.sort_by(f64::total_cmp);
        Ok(roots)
    }

    /// A point below every root: for `z ≤ λᵢ/(λᵢ + Dᴬᵢ + rᵢ + cᵢ)`, with `rᵢ` the
    /// off-diagonal row sum of `A`, row `i` of `K(z)` is positive on the diagonal
    /// and strictly dominant, so no root lies there (Gershgorin); half the smallest
    /// such bound keeps the probe clear of the edge.
    fn lower_probe(&self) -> f64 {
        let (kl, ku) = (self.minus_a.lower_bandwidth(), self.minus_a.upper_bandwidth());
        let n = self.order();
        let bound = (0..n)
            .zip(self.da.iter().zip(&self.c).zip(&self.lambda))
            .map(|(i, ((da, c), lambda))| {
                let off: f64 = (i.saturating_sub(kl)..(i + ku + 1).min(n))
                    .map(|j| self.minus_a.get(i, j).abs())
                    .sum();
                lambda / (lambda + (da + off + c).max(0.0))
            })
            .fold(1.0_f64, f64::min);
        0.5 * bound
    }

    /// Refines the one root in `(lo, hi)`: `lo` has `r` roots above it, `hi` has
    /// `r − 1`.  The secant variable is `det Q(z)/(1 − z)` signed by the side of the
    /// root, relative to the larger end of the initial bracket.
    fn refine(&self, scratch: &mut Scratch, lo: Slice, hi: Slice) -> Result<f64> {
        let rank = lo.above;
        let anchor = lo.log_magnitude.max(hi.log_magnitude);
        let value = |slice: &Slice, below_root: bool| {
            let magnitude = (slice.log_magnitude - anchor).exp();
            magnitude.is_finite().then_some(if below_root { -magnitude } else { magnitude })
        };
        let start = BracketEnd::new(lo.z, value(&lo, true));
        let end = BracketEnd::new(hi.z, value(&hi, false));
        let (root, _) = bracket_search(scratch, start, end, true, |scratch, z| {
            let slice = self.slice_at(scratch, z)?;
            let below_root = slice.above >= rank;
            Ok(Probe { below_root, value: value(&slice, below_root), factors: None })
        })?;
        Ok(root)
    }

    /// `f` over `items` on `pool`, each worker with its own [`Scratch`]; results in
    /// input order, the first error by input position.
    fn map_scratch<T, R, F>(&self, pool: &ThreadPool, items: &[T], f: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&Self, &mut Scratch, &T) -> Result<R> + Sync,
    {
        let mut slots: Vec<Option<Result<R>>> = items.iter().map(|_| None).collect();
        pool.par_chunks_mut_with(
            &mut slots,
            1,
            || self.scratch(),
            |scratch, i, slot| {
                if let (Some(item), [out]) = (items.get(i), slot) {
                    *out = Some(f(self, scratch, item));
                }
            },
        )?;
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(LinalgError::InvalidInput("probe not run".into()))))
            .collect()
    }
}

/// Closes the bracket `(lo, hi)` around one root by the safeguarded secant
/// (Illinois regula falsi, module docs), returning the upper end once the bracket
/// is at most [`BRACKET_ULPS`] ulps wide and the upper end has been probed, with
/// the M-matrix factors found there, if any.
///
/// A secant point that rounds onto an end of the bracket means the root is within
/// an ulp of it.  With `ends_inclusive` such a point is moved half a tolerance
/// inside, which usually closes the bracket in one probe; without it the step
/// bisects instead.  The dominant-root search keeps the bisection, so its `η`,
/// vector and step count stay what they have always been.
fn bracket_search(
    scratch: &mut Scratch,
    mut lo: BracketEnd,
    mut hi: BracketEnd,
    ends_inclusive: bool,
    mut probe: impl FnMut(&mut Scratch, f64) -> Result<Probe>,
) -> Result<(f64, Option<MMatrixLu>)> {
    let mut probes = 0;
    let mut hi_factors: Option<MMatrixLu> = None;
    // The probed point `hi` replaced, for a secant through two points above the
    // root while `lo` has no value yet.
    let mut previous_hi: Option<(f64, f64)> = None;
    let mut moved_hi_last: Option<bool> = None;
    // Bracket widths before the last three steps: a secant that has not halved the
    // bracket over three steps hands the next step to bisection.
    let mut widths = [f64::INFINITY; 3];
    loop {
        let width = hi.z - lo.z;
        let tolerance = BRACKET_ULPS * f64::EPSILON * hi.z;
        if hi.probed && width <= tolerance {
            return Ok((hi.z, hi_factors));
        }
        if probes >= MAX_SEARCH_STEPS {
            return Err(LinalgError::NoConvergence {
                algorithm: "root bracket search",
                iterations: probes,
            });
        }
        probes += 1;
        let [three_steps_ago, two_steps_ago, one_step_ago] = widths;
        let stalled = width > 0.5 * three_steps_ago;
        widths = [two_steps_ago, one_step_ago, width];
        // Regula falsi across the bracket once both ends carry a value; until `lo`
        // does, the secant through the last two points above the root (unweighted).
        let secant = match (lo.weighted(), hi.weighted(), hi.value, previous_hi) {
            _ if stalled => None,
            (Some(f_lo), Some(f_hi), _, _) => Some(hi.z - f_hi * width / (f_hi - f_lo)),
            (None, _, Some(f_hi), Some((z_prev, f_prev))) => {
                Some(hi.z - f_hi * (hi.z - z_prev) / (f_hi - f_prev))
            }
            _ => None,
        }
        .filter(|&z| if ends_inclusive { z >= lo.z && z <= hi.z } else { z > lo.z && z < hi.z });
        // Every secant probe stays half a tolerance inside the bracket, so a secant
        // converging from one side still closes the other.
        let margin = 0.5 * tolerance;
        let z = match secant {
            Some(z) => z.max(lo.z + margin).min(hi.z - margin),
            None => lo.z + 0.5 * width,
        };
        let p = probe(scratch, z)?;
        if p.below_root {
            lo = BracketEnd::new(z, p.value);
            if moved_hi_last == Some(false) {
                hi.weight *= 0.5;
            }
            moved_hi_last = Some(false);
        } else {
            previous_hi = hi.value.map(|v| (hi.z, v));
            hi = BracketEnd::new(z, p.value);
            if moved_hi_last == Some(true) {
                lo.weight *= 0.5;
            }
            moved_hi_last = Some(true);
            if let Some(old) = std::mem::replace(&mut hi_factors, p.factors) {
                old.recycle(&mut scratch.ws);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A birth–death family of `n` modes: up rate 0.4, down rate 0.6, service
    /// rate `1 + 0.1·i` in mode `i`, at arrival rate `lambda`.
    fn birth_death(n: usize, lambda: f64) -> CaudalFamily {
        let a = BandedMatrix::from_fn(n, 1, 1, |i, j| match j.cmp(&i) {
            std::cmp::Ordering::Greater => 0.4,
            std::cmp::Ordering::Less => 0.6,
            std::cmp::Ordering::Equal => 0.0,
        });
        let da: Vec<f64> = (0..n).map(|i| (0..n).map(|j| a.get(i, j)).sum()).collect();
        let c: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        CaudalFamily::new(&a, &da, &c, &vec![lambda; n]).unwrap()
    }

    #[test]
    fn counts_roots_and_agrees_with_the_dominant_root() {
        let family = birth_death(12, 1.1);
        let roots = family.roots_in_unit_interval(1e-9, &ThreadPool::serial()).unwrap();
        assert_eq!(roots.len(), 12);
        assert!(roots.windows(2).all(|w| w[0] < w[1]), "{roots:?}");
        for z in [0.05, 0.3, 0.6, 0.9] {
            let above = roots.iter().filter(|r| **r > z).count();
            assert_eq!(family.roots_above(z).unwrap(), above, "z = {z}");
        }
        let dominant = family.dominant_root().unwrap();
        let eta = roots.last().copied().unwrap();
        assert!(
            (dominant.eta - eta).abs() <= 8.0 * f64::EPSILON * eta,
            "{} vs {eta}",
            dominant.eta
        );
        assert_eq!(dominant.vector.last(), Some(&1.0));
        assert!(dominant.vector.iter().all(|x| *x >= 0.0));
        assert!(dominant.steps > 1 && dominant.steps <= MAX_SEARCH_STEPS);
    }

    #[test]
    fn a_zero_pivot_is_counted_from_the_pivoted_determinant() {
        // Mode 0 has Dᴬ = 1, c = 0, λ = 1, so its diagonal 1 + (1 − z)(0 − 1/z) is
        // exactly zero at z = 0.5, with mode 1 still to eliminate below it.
        let a = BandedMatrix::from_fn(2, 1, 1, |i, j| if i == j { 0.0 } else { 0.5 });
        let family = CaudalFamily::new(&a, &[1.0, 0.5], &[0.0, 2.0], &[1.0, 1.0]).unwrap();
        let mut scratch = family.scratch();
        let ZMatrixLu::NonPositivePivot { index: 0, value, inertia: None } =
            family.factor_at(&mut scratch, 0.5).unwrap()
        else {
            panic!("z = 0.5 must meet a zero first pivot");
        };
        assert_eq!(value, 0.0);
        let roots = family.roots_in_unit_interval(1e-9, &ThreadPool::serial()).unwrap();
        for z in [0.5, 0.5_f64.next_up(), 0.5_f64.next_down(), 0.5 + 1e-12, 0.5 - 1e-12] {
            let above = roots.iter().filter(|r| **r > z).count();
            assert_eq!(family.roots_above(z).unwrap(), above, "z = {z}");
        }
        // Near z = 0.5 the unpivoted elimination is not trusted, so the secant there
        // runs on the pivoted determinant, whose sign agrees with the count.
        let slice = family.slice_at(&mut scratch, 0.5 + 1e-12).unwrap();
        assert_eq!(slice.z, 0.5 + 1e-12);
        assert!(family.trusted_inertia(&mut scratch, 0.5 + 1e-12).unwrap().is_none());
    }

    #[test]
    fn coinciding_roots_are_reported_once_per_multiplicity() {
        // Two identical uncoupled modes: every root is double.
        let a = BandedMatrix::zeros(2, 1, 1);
        let family = CaudalFamily::new(&a, &[0.0, 0.0], &[2.0, 2.0], &[1.0, 1.0]).unwrap();
        let roots = family.roots_in_unit_interval(1e-9, &ThreadPool::serial()).unwrap();
        assert_eq!(roots.len(), 2);
        assert!(roots.iter().all(|r| (r - 0.5).abs() <= 4.0 * f64::EPSILON), "{roots:?}");
    }

    #[test]
    fn invalid_families_are_rejected() {
        // A negative mode-change rate: −K(z) is no Z-matrix.
        let a = BandedMatrix::from_fn(2, 1, 1, |i, j| if i == j { 0.0 } else { -0.5 });
        let negative = CaudalFamily::new(&a, &[0.5, 0.5], &[1.0, 1.0], &[1.0, 1.0]).unwrap();
        assert!(matches!(negative.roots_above(0.5), Err(LinalgError::InvalidInput(_))));
        assert!(negative.dominant_root().is_err());
        let a = BandedMatrix::zeros(2, 0, 0);
        assert!(CaudalFamily::new(&a, &[0.0], &[1.0, 1.0], &[1.0, 1.0]).is_err());
        assert!(CaudalFamily::new(&a, &[0.0, 0.0], &[1.0, 1.0], &[1.0, 0.0]).is_err());
        let family = birth_death(3, 1.0);
        assert!(family.roots_above(1.0).is_err());
        assert!(family.roots_above(f64::NAN).is_err());
        // Arrivals faster than any service: a root lies beyond 1 − margin.
        let unstable = birth_death(3, 5.0);
        assert!(unstable.roots_in_unit_interval(1e-9, &ThreadPool::serial()).is_err());
    }
}
