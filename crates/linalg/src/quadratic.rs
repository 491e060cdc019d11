//! Eigenvalues and eigenvectors of the characteristic quadratic of a QBD.
//!
//! The spectral-expansion method for Markov-modulated queues needs the roots `z` of
//! `det Q(z)` inside the unit disk and their left eigenvectors `u` for the
//! characteristic matrix polynomial
//!
//! ```text
//! Q(z) = Q0 + Q1 z + Q2 z²,        u Q(z) = 0,   det Q(z) = 0.
//! ```
//!
//! For a quasi-birth–death process `Q0` and `Q2` are diagonal and `Q1` is
//! non-negative off its diagonal.  When the mode chain is reversible the problem is
//! hyperbolic: every root is real and exactly `s` lie in `(0, 1)`.  The roots come
//! from spectrum slicing of the family `−K(z) = −Q(z)/z` ([`CaudalFamily`]): one
//! unpivoted banded elimination per probe counts the roots above the probe, and
//! each isolated root is refined by a safeguarded secant.  A problem outside that
//! class is an error, not a silently wrong answer.  Each left eigenvector then
//! comes from shifted inverse iteration on one banded LU of `Q(z)ᵀ`.

use crate::banded::{BandedLu, BandedMatrix};
use crate::banded_profitable;
use crate::complex::Complex;
use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::matrix::Matrix;
use crate::parallel::ThreadPool;
use crate::slicing::CaudalFamily;
use crate::Result;

/// Maximum number of shifted inverse-iteration refinements before falling back
/// to the dense null-space extraction.
const INVERSE_ITERATION_MAX: usize = 4;

/// Pivot modulus below which the banded factorisation of `Q(z)ᵀ` is treated as
/// exactly singular and the dense extraction takes over (matches the dense LU's
/// `PIVOT_EPS`).
const BANDED_PIVOT_EPS: f64 = 1e-300;

/// A single root of the characteristic polynomial, `det Q(z) = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticEigenvalue {
    /// The eigenvalue `z`; real (`Im z = 0`) for every root this module reports.
    pub z: Complex,
}

/// A quadratic matrix polynomial eigenvalue problem `Q(z) = Q0 + Q1 z + Q2 z²`.
///
/// # Example
///
/// ```
/// use urs_linalg::{Matrix, QuadraticEigenProblem};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// // Two decoupled modes: 1 − 2.5z + z² = (z − 0.5)(z − 2) and
/// // 1 − 10.1z + z² = (z − 0.1)(z − 10).
/// let q0 = Matrix::from_diagonal(&[1.0, 1.0]);
/// let q1 = Matrix::from_diagonal(&[-2.5, -10.1]);
/// let problem = QuadraticEigenProblem::new(q0, q1, Matrix::identity(2))?;
/// let roots: Vec<f64> =
///     problem.eigenvalues_inside_unit_disk(1e-9)?.iter().map(|e| e.z.re).collect();
/// assert!((roots[0] - 0.1).abs() < 1e-14 && (roots[1] - 0.5).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuadraticEigenProblem {
    q0: Matrix,
    q1: Matrix,
    q2: Matrix,
    /// Union lower/upper bandwidth of the three coefficients: `Q(z)` has the
    /// same nonzero pattern for every `z`, so the banded extraction path can be
    /// chosen once at construction time.
    kl: usize,
    ku: usize,
}

impl QuadraticEigenProblem {
    /// Creates a new problem from the three coefficient matrices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if any coefficient is not square or
    /// [`LinalgError::DimensionMismatch`] if their sizes differ.
    pub fn new(q0: Matrix, q1: Matrix, q2: Matrix) -> Result<Self> {
        for m in [&q0, &q1, &q2] {
            if !m.is_square() {
                return Err(LinalgError::NotSquare { rows: m.rows(), cols: m.cols() });
            }
        }
        if q0.shape() != q1.shape() || q1.shape() != q2.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "quadratic eigenvalue problem",
                left: q0.shape(),
                right: q2.shape(),
            });
        }
        let (mut kl, mut ku) = (0, 0);
        for m in [&q0, &q1, &q2] {
            let (l, u) = BandedMatrix::bandwidths_of(m);
            kl = kl.max(l);
            ku = ku.max(u);
        }
        Ok(QuadraticEigenProblem { q0, q1, q2, kl, ku })
    }

    /// Order `s` of the coefficient matrices.
    pub fn order(&self) -> usize {
        self.q0.rows()
    }

    /// The slicing family `−K(z) = −Q(z)/z` of the problem: `A` is the off-diagonal
    /// part of `Q1`, `c` and `λ` the diagonals of `Q2` and `Q0`, and
    /// `Dᴬ = −diag(Q1) − c − λ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] unless `Q0` and `Q2` are diagonal and
    /// `Q0`'s diagonal is positive.  A `Q1` that is negative off its diagonal is
    /// reported by the first elimination of the family.
    pub fn caudal_family(&self) -> Result<CaudalFamily> {
        if BandedMatrix::bandwidths_of(&self.q0) != (0, 0)
            || BandedMatrix::bandwidths_of(&self.q2) != (0, 0)
        {
            return Err(LinalgError::InvalidInput("Q0 and Q2 must be diagonal".into()));
        }
        let diagonal = |m: &Matrix| (0..m.rows()).map(|i| m.get(i, i).unwrap_or(0.0)).collect();
        let (lambda, c, q1): (Vec<f64>, Vec<f64>, Vec<f64>) =
            (diagonal(&self.q0), diagonal(&self.q2), diagonal(&self.q1));
        let da: Vec<f64> = q1.iter().zip(&c).zip(&lambda).map(|((q, c), l)| -q - c - l).collect();
        let a = BandedMatrix::from_fn(self.order(), self.kl, self.ku, |i, j| {
            if i == j {
                0.0
            } else {
                self.q1.get(i, j).unwrap_or(0.0)
            }
        });
        CaudalFamily::new(&a, &da, &c, &lambda)
    }

    /// The `s` roots strictly inside the unit disk, `|z| < 1 − tol`, in ascending
    /// order, by spectrum slicing ([`CaudalFamily::roots_in_unit_interval`] on a
    /// serial pool).  Each comes back as a [`Complex`] with zero imaginary part.
    ///
    /// # Errors
    ///
    /// The errors of [`caudal_family`](Self::caudal_family) and of
    /// [`CaudalFamily::roots_in_unit_interval`]: in particular a problem outside
    /// the hyperbolic class, or one with a root within `tol` of the unit circle, is
    /// an error.
    pub fn eigenvalues_inside_unit_disk(&self, tol: f64) -> Result<Vec<QuadraticEigenvalue>> {
        let roots = self.caudal_family()?.roots_in_unit_interval(tol, &ThreadPool::serial())?;
        Ok(roots.into_iter().map(|z| QuadraticEigenvalue { z: Complex::from_real(z) }).collect())
    }

    /// Union `(kl, ku)` bandwidth of the three coefficient matrices — the nonzero
    /// pattern of `Q(z)` for any `z`.
    pub fn bandwidths(&self) -> (usize, usize) {
        (self.kl, self.ku)
    }

    /// `true` when this problem's eigenvector extraction routes through the banded
    /// inverse-iteration path (see [`crate::banded_profitable`]).
    pub fn uses_banded_extraction(&self) -> bool {
        banded_profitable(self.order(), self.ku, self.kl)
    }

    /// The coefficient `(i, j)` of `Q(z)` at a real point.
    fn coefficient(&self, i: usize, j: usize, z: f64) -> f64 {
        let entry = |m: &Matrix| m.get(i, j).unwrap_or(0.0);
        entry(&self.q0) + z * entry(&self.q1) + z * z * entry(&self.q2)
    }

    /// `Q(z)ᵀ` at a real point, dense.
    fn evaluate_transposed(&self, z: f64) -> Matrix {
        let s = self.order();
        Matrix::from_fn(s, s, |i, j| self.coefficient(j, i, z))
    }

    /// `Q(z)ᵀ` at a real point, evaluated straight into packed banded storage.  The
    /// transpose swaps the bandwidths: `Q(z)` has `(kl, ku)`, so `Q(z)ᵀ` has
    /// `(ku, kl)`.
    fn evaluate_transposed_banded(&self, z: f64) -> BandedMatrix {
        BandedMatrix::from_fn(self.order(), self.ku, self.kl, |i, j| self.coefficient(j, i, z))
    }

    /// Left null vector of `Q(z)` by shifted inverse iteration on the banded
    /// factorisation of `Q(z)ᵀ`.  Returns `None` whenever the banded path cannot
    /// certify the answer — the caller then falls back to the dense extraction.
    fn left_eigenvector_banded(&self, z: f64) -> Option<Vec<f64>> {
        let s = self.order();
        let m = self.evaluate_transposed_banded(z);
        let scale = m.max_abs();
        if !(scale.is_finite() && scale > 0.0) {
            return None;
        }
        let lu = BandedLu::new_allow_singular(&m).ok()?;
        if lu.smallest_pivot() < BANDED_PIVOT_EPS {
            // Exactly singular within the band: the skipped elimination steps make
            // the factors unreliable, so let the dense extraction handle it.
            return None;
        }
        // At a converged eigenvalue `Q(z)ᵀ` is numerically singular: one U pivot is
        // O(ε·scale).  Flooring tiny pivots at ε·scale turns the back-substitution
        // into the classical regularised inverse-iteration step — one application
        // blows up the null direction by ~1/ε while leaving the rest O(1).
        let floor = scale * f64::EPSILON;
        let mut x = vec![1.0; s];
        let mut y = vec![0.0; s];
        let mut r = vec![0.0; s];
        let mut best_resid = f64::INFINITY;
        let mut best = Vec::new();
        for _ in 0..INVERSE_ITERATION_MAX {
            lu.solve_regularized_into(&x, &mut y, floor).ok()?;
            let max = y.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            if !(max.is_finite() && max > 0.0) {
                return None;
            }
            for v in &mut y {
                *v /= max;
            }
            std::mem::swap(&mut x, &mut y);
            m.matvec_into(&x, &mut r).ok()?;
            let resid = r.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            if resid <= 1e-9 * scale {
                return Some(x);
            }
            if resid < best_resid {
                best_resid = resid;
                best.clone_from(&x);
            }
        }
        // Looser acceptance for hard cases: keep the best iterate if it is still a
        // convincing null direction, otherwise hand over to the dense extraction.
        if best_resid <= 1e-7 * scale {
            Some(best)
        } else {
            None
        }
    }

    /// Left null vector `u` of `Q(z)` at a real eigenvalue `z`: `u Q(z) ≈ 0`,
    /// normalised to unit maximum modulus.
    ///
    /// When the coefficients are banded and [`crate::banded_profitable`] approves
    /// the shape, the vector is extracted by shifted inverse iteration on one
    /// banded LU of `Q(z)ᵀ` — `O(s·b²)` instead of the dense `O(s³)` null-space
    /// extraction — with a residual gate (`‖u Q(z)‖_∞ ≤ 10⁻⁹·‖Q(z)‖_max`) that
    /// falls back to the dense path whenever the fast path cannot certify its
    /// answer.  Both paths are deterministic, so repeated calls at the same `z`
    /// return bitwise-identical vectors.
    ///
    /// # Errors
    ///
    /// Propagates errors from the factorisation; in particular the call fails if
    /// `z` is not actually (close to) an eigenvalue.
    pub fn real_left_eigenvector(&self, z: f64) -> Result<Vec<f64>> {
        if self.uses_banded_extraction() {
            if let Some(u) = self.left_eigenvector_banded(z) {
                return Ok(u);
            }
        }
        LuDecomposition::new_allow_singular(&self.evaluate_transposed(z))?.null_vector()
    }

    /// [`real_left_eigenvector`](Self::real_left_eigenvector) at a root given as a
    /// [`Complex`] with zero imaginary part, as
    /// [`eigenvalues_inside_unit_disk`](Self::eigenvalues_inside_unit_disk) reports
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for a non-real `z`, otherwise as
    /// [`real_left_eigenvector`](Self::real_left_eigenvector).
    pub fn left_eigenvector(&self, z: Complex) -> Result<Vec<Complex>> {
        if z.im.abs() > 0.0 || z.im.is_nan() {
            return Err(LinalgError::InvalidInput(format!("eigenvalue {z} is not real")));
        }
        Ok(self.real_left_eigenvector(z.re)?.into_iter().map(Complex::from_real).collect())
    }

    /// Residual `‖u Q(z)‖_∞` of a real eigenpair; small values confirm accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `u` has the wrong length.
    pub fn real_residual(&self, z: f64, u: &[f64]) -> Result<f64> {
        let m = self.evaluate_transposed_banded(z);
        let mut r = vec![0.0; self.order()];
        m.matvec_into(u, &mut r)?;
        Ok(r.iter().fold(0.0_f64, |m, v| m.max(v.abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f64) -> Matrix {
        Matrix::from_rows(&[&[v][..]]).unwrap()
    }

    fn roots(p: &QuadraticEigenProblem) -> Vec<f64> {
        p.eigenvalues_inside_unit_disk(1e-9).unwrap().iter().map(|e| e.z.re).collect()
    }

    /// The dense pivoted determinant of `Q(z)` changes sign across every root, and
    /// its dense null vector has a small residual: a certificate that shares no
    /// code with spectrum slicing.
    fn assert_certified(p: &QuadraticEigenProblem, roots: &[f64]) {
        for &z in roots {
            let det = |z: f64| {
                LuDecomposition::new_allow_singular(&p.evaluate_transposed(z))
                    .unwrap()
                    .determinant()
            };
            let (below, above) = (det(z * (1.0 - 1e-9)), det(z * (1.0 + 1e-9)));
            assert!(below * above < 0.0, "no sign change across {z}: {below}, {above}");
            let u = LuDecomposition::new_allow_singular(&p.evaluate_transposed(z))
                .unwrap()
                .null_vector()
                .unwrap();
            assert!(p.real_residual(z, &u).unwrap() < 1e-9, "residual at {z}");
        }
    }

    #[test]
    fn scalar_quadratic_roots() {
        // 1 − 2.5z + z² = (z − 0.5)(z − 2): the one root inside the unit disk.
        let p = QuadraticEigenProblem::new(scalar(1.0), scalar(-2.5), scalar(1.0)).unwrap();
        let roots = roots(&p);
        assert_eq!(roots.len(), 1);
        assert!((roots[0] - 0.5).abs() < 1e-15);
        assert_certified(&p, &roots);
    }

    #[test]
    fn scalar_with_zero_leading_coefficient_has_one_finite_root() {
        // 2 − 4z + 0·z²: single finite root z = 0.5 (the other escapes to infinity).
        let p = QuadraticEigenProblem::new(scalar(2.0), scalar(-4.0), scalar(0.0)).unwrap();
        let roots = roots(&p);
        assert_eq!(roots.len(), 1);
        assert!((roots[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn diagonal_system_decouples() {
        // Two decoupled scalar quadratics:
        //   (z − 0.25)(z − 4) = 1 − 4.25z + z²  and  (z − 0.5)(z − 2) = 1 − 2.5z + z²
        let q0 = Matrix::from_diagonal(&[1.0, 1.0]);
        let q1 = Matrix::from_diagonal(&[-4.25, -2.5]);
        let q2 = Matrix::identity(2);
        let p = QuadraticEigenProblem::new(q0, q1, q2).unwrap();
        let roots = roots(&p);
        for (r, e) in roots.iter().zip([0.25, 0.5]) {
            assert!((r - e).abs() < 1e-15, "roots {roots:?}");
        }
        assert_certified(&p, &roots);
    }

    /// A coupled two-mode problem in the class: diagonal `Q0`/`Q2`, `Q1`
    /// non-negative off its diagonal with rows that are stable at `z = 1`.
    fn coupled_pair() -> QuadraticEigenProblem {
        let q0 = Matrix::from_diagonal(&[1.5, 2.0]);
        let q1 = Matrix::from_rows(&[&[-5.0, 0.5][..], &[0.3, -6.0][..]]).unwrap();
        let q2 = Matrix::from_diagonal(&[3.0, 3.5]);
        QuadraticEigenProblem::new(q0, q1, q2).unwrap()
    }

    #[test]
    fn eigenvalues_verify_against_eigenpair_residuals() {
        let p = coupled_pair();
        let roots = roots(&p);
        assert_eq!(roots.len(), 2);
        assert!(roots.iter().all(|z| *z > 0.0 && *z < 1.0));
        assert_certified(&p, &roots);
        for &z in &roots {
            let u = p.real_left_eigenvector(z).unwrap();
            let residual = p.real_residual(z, &u).unwrap();
            assert!(residual < 1e-9, "‖u Q({z})‖ = {residual}");
        }
    }

    #[test]
    fn non_real_points_and_problems_outside_the_class_are_errors() {
        let p = coupled_pair();
        assert!(matches!(
            p.left_eigenvector(Complex::new(0.5, 0.1)),
            Err(LinalgError::InvalidInput(_))
        ));
        // Q(z) = z²·I + R with R a rotation by 90°: no real roots, and Q0 is not diagonal.
        let q0 = Matrix::from_rows(&[&[0.0, -1.0][..], &[1.0, 0.0][..]]).unwrap();
        let rotation =
            QuadraticEigenProblem::new(q0, Matrix::zeros(2, 2), Matrix::identity(2)).unwrap();
        assert!(matches!(
            rotation.eigenvalues_inside_unit_disk(1e-9),
            Err(LinalgError::InvalidInput(_))
        ));
        // (z − 1.5)(z − 2): no root inside the unit disk, so the count just above 0
        // is short of s.
        let outside = QuadraticEigenProblem::new(scalar(3.0), scalar(-3.5), scalar(1.0)).unwrap();
        assert!(matches!(
            outside.eigenvalues_inside_unit_disk(1e-9),
            Err(LinalgError::InvalidInput(_))
        ));
        // A negative off-diagonal rate in Q1 is not a Z-matrix family.
        let q1 = Matrix::from_rows(&[&[-5.0, -0.5][..], &[0.3, -6.0][..]]).unwrap();
        let negative = QuadraticEigenProblem::new(
            Matrix::from_diagonal(&[1.5, 2.0]),
            q1,
            Matrix::from_diagonal(&[3.0, 3.5]),
        )
        .unwrap();
        assert!(matches!(
            negative.eigenvalues_inside_unit_disk(1e-9),
            Err(LinalgError::InvalidInput(_))
        ));
        assert!(p.eigenvalues_inside_unit_disk(0.0).is_err());
    }

    #[test]
    fn left_eigenvector_has_small_residual() {
        let p = coupled_pair();
        for e in p.eigenvalues_inside_unit_disk(1e-9).unwrap() {
            assert_eq!(e.z.im, 0.0);
            let u: Vec<f64> = p.left_eigenvector(e.z).unwrap().iter().map(|c| c.re).collect();
            assert!(p.real_residual(e.z.re, &u).unwrap() < 1e-7);
        }
    }

    #[test]
    fn unit_disk_filter() {
        // Roots straddling the unit circle: (z-0.5)(z-2) and (z-0.1)(z-10)
        let q0 = Matrix::from_diagonal(&[1.0, 1.0]);
        let q1 = Matrix::from_diagonal(&[-2.5, -10.1]);
        let q2 = Matrix::identity(2);
        let p = QuadraticEigenProblem::new(q0, q1, q2).unwrap();
        let inside = p.eigenvalues_inside_unit_disk(1e-9).unwrap();
        assert_eq!(inside.len(), 2);
        let vals: Vec<f64> = inside.iter().map(|e| e.z.re).collect();
        assert!((vals[0] - 0.1).abs() < 1e-8);
        assert!((vals[1] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn mismatched_sizes_rejected() {
        let err = QuadraticEigenProblem::new(
            Matrix::identity(2),
            Matrix::identity(3),
            Matrix::identity(2),
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    /// A banded-profitable QBD-shaped problem: diagonal `Q0`/`Q2`, tridiagonal `Q1`.
    fn banded_test_problem() -> QuadraticEigenProblem {
        let s = 20;
        let mut q0 = Matrix::zeros(s, s);
        let mut q1 = Matrix::zeros(s, s);
        let mut q2 = Matrix::zeros(s, s);
        for i in 0..s {
            q0[(i, i)] = 1.5;
            q2[(i, i)] = 0.4 + 0.01 * i as f64;
            q1[(i, i)] = -(4.0 + 0.05 * i as f64);
            if i + 1 < s {
                q1[(i, i + 1)] = 0.7;
                q1[(i + 1, i)] = 0.9;
            }
        }
        QuadraticEigenProblem::new(q0, q1, q2).unwrap()
    }

    #[test]
    fn banded_extraction_matches_dense_null_space() {
        let p = banded_test_problem();
        assert_eq!(p.bandwidths(), (1, 1));
        assert!(p.uses_banded_extraction());
        let roots = roots(&p);
        assert_eq!(roots.len(), 20);
        for &z in roots.iter().rev().take(8) {
            let u = p.real_left_eigenvector(z).unwrap();
            // Normalised to unit maximum modulus, residual certified small.
            let max = u.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            assert!((max - 1.0).abs() < 1e-12, "max modulus {max}");
            let dense = p.evaluate_transposed(z);
            let scale = dense.max_abs();
            assert!(p.real_residual(z, &u).unwrap() <= 1e-7 * scale);
            // Same null direction as the dense extraction, up to a scalar.
            let v = LuDecomposition::new_allow_singular(&dense).unwrap().null_vector().unwrap();
            let k = (0..u.len()).max_by(|&a, &b| u[a].abs().total_cmp(&u[b].abs())).unwrap();
            let ratio = v[k] / u[k];
            for (a, b) in u.iter().zip(&v) {
                assert!((a * ratio - b).abs() < 1e-7, "direction mismatch");
            }
        }
        assert_certified(&p, &roots);
    }

    #[test]
    fn banded_extraction_is_deterministic() {
        let p = banded_test_problem();
        let z = p.eigenvalues_inside_unit_disk(1e-9).unwrap()[0].z;
        let a = p.left_eigenvector(z).unwrap();
        let b = p.left_eigenvector(z).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        let real = p.real_left_eigenvector(z.re).unwrap();
        assert!(a.iter().zip(&real).all(|(c, r)| c.re.to_bits() == r.to_bits()));
    }

    #[test]
    fn dense_fallback_used_for_small_or_full_problems() {
        // 2×2 problems stay on the dense path regardless of structure.
        let p = coupled_pair();
        assert!(!p.uses_banded_extraction());
        for z in roots(&p) {
            let u = p.real_left_eigenvector(z).unwrap();
            assert!(p.real_residual(z, &u).unwrap() < 1e-7);
        }
    }

    #[test]
    fn both_ends_singular_rejected() {
        let z = Matrix::zeros(2, 2);
        let p = QuadraticEigenProblem::new(z.clone(), Matrix::identity(2), z).unwrap();
        assert!(matches!(p.eigenvalues_inside_unit_disk(1e-9), Err(LinalgError::InvalidInput(_))));
    }
}
