//! Eigenvalues and eigenvectors of quadratic matrix polynomials.
//!
//! The spectral-expansion method for Markov-modulated queues needs the *generalized
//! eigenvalues* `z` and left eigenvectors `u` of the characteristic matrix polynomial
//!
//! ```text
//! Q(z) = Q0 + Q1 z + Q2 z²,        u Q(z) = 0,   det Q(z) = 0.
//! ```
//!
//! This module linearises the quadratic problem to an ordinary eigenvalue problem of a
//! real companion matrix of twice the size and feeds it to the Francis QR solver in
//! [`crate::eigen`].  Because the leading or trailing coefficient may be singular (in
//! queueing applications `Q2` has zero rows for environment states with no operative
//! server), the linearisation is performed on whichever end of the polynomial is
//! invertible:
//!
//! * `Q2` invertible → companion matrix of the monic polynomial in `z`,
//! * otherwise `Q0` invertible → companion matrix of the *reversed* polynomial in
//!   `ζ = 1/z`; eigenvalues `ζ = 0` correspond to infinite `z` and are discarded.

use crate::banded::{BandedLu, BandedMatrix};
use crate::banded_profitable;
use crate::complex::Complex;
use crate::eigen::{eigenvalues_with, EigenOptions};
use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::matrix::Matrix;
use crate::Result;

/// Maximum number of shifted inverse-iteration refinements before falling back
/// to the dense null-space extraction.
const INVERSE_ITERATION_MAX: usize = 4;

/// Pivot modulus below which the banded factorisation of `Q(z)ᵀ` is treated as
/// exactly singular and the dense extraction takes over (matches the dense LU's
/// `PIVOT_EPS`).
const BANDED_PIVOT_EPS: f64 = 1e-300;

/// A single finite eigenvalue of a quadratic matrix polynomial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticEigenvalue {
    /// The eigenvalue `z` with `det Q(z) = 0`.
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
/// // Scalar case: 2 - 3z + z² = (z - 1)(z - 2).
/// let q0 = Matrix::from_rows(&[&[2.0][..]])?;
/// let q1 = Matrix::from_rows(&[&[-3.0][..]])?;
/// let q2 = Matrix::from_rows(&[&[1.0][..]])?;
/// let problem = QuadraticEigenProblem::new(q0, q1, q2)?;
/// let mut roots: Vec<f64> = problem.finite_eigenvalues()?.iter().map(|e| e.z.re).collect();
/// roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
/// assert!((roots[0] - 1.0).abs() < 1e-10 && (roots[1] - 2.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuadraticEigenProblem {
    q0: Matrix,
    q1: Matrix,
    q2: Matrix,
    options: EigenOptions,
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
        Ok(QuadraticEigenProblem { q0, q1, q2, options: EigenOptions::default(), kl, ku })
    }

    /// Overrides the eigenvalue-iteration options.
    pub fn with_options(mut self, options: EigenOptions) -> Self {
        self.options = options;
        self
    }

    /// Order `s` of the coefficient matrices.
    pub fn order(&self) -> usize {
        self.q0.rows()
    }

    /// Computes every *finite* eigenvalue of the polynomial.
    ///
    /// The number of finite eigenvalues is `2s` minus the degree deficiency caused by a
    /// singular leading coefficient.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when both `Q0` and `Q2` are singular (the
    /// companion linearisation then does not exist in this simple form), or any error
    /// from the underlying QR iteration.
    pub fn finite_eigenvalues(&self) -> Result<Vec<QuadraticEigenvalue>> {
        let s = self.order();
        // Prefer the reversed linearisation on Q0 (always non-singular for the queueing
        // application, where Q0 = λI); fall back to the direct one on Q2.  The two
        // multi-right-hand-side solves land directly in the companion matrix's lower
        // blocks — no intermediate `A0`/`A1` allocations.
        let mut a0 = Matrix::zeros(s, s);
        let mut a1 = Matrix::zeros(s, s);
        if let Ok(q0_lu) = self.q0.lu() {
            q0_lu.solve_matrix_into(&self.q2, &mut a0)?; // Q0^{-1} Q2
            q0_lu.solve_matrix_into(&self.q1, &mut a1)?; // Q0^{-1} Q1
            let companion = build_companion(&a0, &a1);
            let zetas = eigenvalues_with(&companion, self.options)?;
            // ζ = 1/z; ζ = 0 corresponds to an infinite eigenvalue.
            let cutoff = zeta_zero_cutoff(&a0, &a1);
            Ok(zetas
                .into_iter()
                .filter(|zeta| zeta.abs() > cutoff)
                .map(|zeta| QuadraticEigenvalue { z: Complex::ONE / zeta })
                .collect())
        } else if let Ok(q2_lu) = self.q2.lu() {
            q2_lu.solve_matrix_into(&self.q0, &mut a0)?; // Q2^{-1} Q0
            q2_lu.solve_matrix_into(&self.q1, &mut a1)?; // Q2^{-1} Q1
            let companion = build_companion(&a0, &a1);
            let zs = eigenvalues_with(&companion, self.options)?;
            Ok(zs.into_iter().map(|z| QuadraticEigenvalue { z }).collect())
        } else {
            Err(LinalgError::Singular { pivot: s })
        }
    }

    /// Computes the eigenvalues strictly inside the unit disk, `|z| < 1 - tol`.
    ///
    /// For an ergodic Markov-modulated queue the spectral-expansion theory guarantees
    /// exactly `s` such eigenvalues.
    ///
    /// # Errors
    ///
    /// Same conditions as [`finite_eigenvalues`](Self::finite_eigenvalues).
    pub fn eigenvalues_inside_unit_disk(&self, tol: f64) -> Result<Vec<QuadraticEigenvalue>> {
        Ok(self.finite_eigenvalues()?.into_iter().filter(|e| e.z.abs() < 1.0 - tol).collect())
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

    /// Left null vector `u` of `Q(z)` at any eigenvalue: `u Q(z) ≈ 0`, normalised
    /// to unit maximum modulus.
    ///
    /// A real `z` takes the [`real_left_eigenvector`](Self::real_left_eigenvector)
    /// path.  A non-real `z = a + ib` is handled in real arithmetic too: the complex
    /// system `Q(z)ᵀ·(x + iy) = 0` is the real `2s × 2s` system
    /// `[[Re, −Im], [Im, Re]]·[x; y] = 0`, whose dense null vector gives `u = x + iy`.
    ///
    /// # Errors
    ///
    /// As [`real_left_eigenvector`](Self::real_left_eigenvector).
    pub fn left_eigenvector(&self, z: Complex) -> Result<Vec<Complex>> {
        if z.im.abs() <= 0.0 {
            return Ok(self
                .real_left_eigenvector(z.re)?
                .into_iter()
                .map(Complex::from_real)
                .collect());
        }
        let s = self.order();
        // Q(z)ᵀ = (Q0 + z·Q1 + z²·Q2)ᵀ split into real and imaginary parts.
        let z2 = z * z;
        let embedding = Matrix::from_fn(2 * s, 2 * s, |i, j| {
            let entry = |m: &Matrix| m.get(j % s, i % s).unwrap_or(0.0);
            let re = entry(&self.q0) + z.re * entry(&self.q1) + z2.re * entry(&self.q2);
            let im = z.im * entry(&self.q1) + z2.im * entry(&self.q2);
            match (i < s, j < s) {
                (true, false) => -im,
                (false, true) => im,
                _ => re,
            }
        });
        let xy = LuDecomposition::new_allow_singular(&embedding)?.null_vector()?;
        let (x, y) = xy.split_at(s);
        let mut u: Vec<Complex> = x.iter().zip(y).map(|(&re, &im)| Complex::new(re, im)).collect();
        let max = u.iter().fold(0.0_f64, |m, c| m.max(c.abs()));
        for c in &mut u {
            *c = *c / max;
        }
        Ok(u)
    }

    /// Residual `‖u Q(z)‖_∞` for a candidate eigenpair; small values confirm
    /// accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `u` has the wrong length.
    pub fn residual(&self, z: Complex, u: &[Complex]) -> Result<f64> {
        let s = self.order();
        if u.len() != s {
            return Err(LinalgError::DimensionMismatch {
                operation: "quadratic eigenpair residual",
                left: (1, u.len()),
                right: (s, s),
            });
        }
        let z2 = z * z;
        let mut out = vec![Complex::ZERO; s];
        let rows = self
            .q0
            .as_slice()
            .chunks_exact(s)
            .zip(self.q1.as_slice().chunks_exact(s))
            .zip(self.q2.as_slice().chunks_exact(s));
        for (((r0, r1), r2), &ui) in rows.zip(u) {
            for (o, ((&c0, &c1), &c2)) in out.iter_mut().zip(r0.iter().zip(r1).zip(r2)) {
                *o += ui * (Complex::from_real(c0) + z * c1 + z2 * c2);
            }
        }
        Ok(out.iter().fold(0.0_f64, |m, c| m.max(c.abs())))
    }

    /// [`residual`](Self::residual) of a real eigenpair.
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

/// Builds the block companion matrix `[[0, I], [-A0, -A1]]`.
fn build_companion(a0: &Matrix, a1: &Matrix) -> Matrix {
    let s = a0.rows();
    let mut c = Matrix::zeros(2 * s, 2 * s);
    for i in 0..s {
        // urs-analyze: allow(slice_index, reason = "companion embedding writes within the 2s x 2s matrix")
        c[(i, s + i)] = 1.0;
    }
    for i in 0..s {
        for j in 0..s {
            c[(s + i, j)] = -a0[(i, j)];
            c[(s + i, s + j)] = -a1[(i, j)];
        }
    }
    c
}

/// Threshold below which a companion eigenvalue ζ is treated as exactly zero
/// (i.e. the corresponding eigenvalue of the original polynomial is infinite).
fn zeta_zero_cutoff(a0: &Matrix, a1: &Matrix) -> f64 {
    let scale = a0.max_abs().max(a1.max_abs()).max(1.0);
    1e-9 / scale.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f64) -> Matrix {
        Matrix::from_rows(&[&[v][..]]).unwrap()
    }

    #[test]
    fn scalar_quadratic_roots() {
        // 6 - 5z + z² = (z - 2)(z - 3)
        let p = QuadraticEigenProblem::new(scalar(6.0), scalar(-5.0), scalar(1.0)).unwrap();
        let mut roots: Vec<f64> = p.finite_eigenvalues().unwrap().iter().map(|e| e.z.re).collect();
        roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((roots[0] - 2.0).abs() < 1e-9);
        assert!((roots[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scalar_with_zero_leading_coefficient_has_one_finite_root() {
        // 2 - 4z + 0·z²: single finite root z = 0.5 (the other escapes to infinity).
        let p = QuadraticEigenProblem::new(scalar(2.0), scalar(-4.0), scalar(0.0)).unwrap();
        let eig = p.finite_eigenvalues().unwrap();
        assert_eq!(eig.len(), 1);
        assert!((eig[0].z - Complex::from_real(0.5)).abs() < 1e-9);
    }

    #[test]
    fn diagonal_system_decouples() {
        // Two decoupled scalar quadratics:
        //   (z-1)(z-4) = 4 - 5z + z²  and  (z-0.5)(z-2) = 1 - 2.5z + z²
        let q0 = Matrix::from_diagonal(&[4.0, 1.0]);
        let q1 = Matrix::from_diagonal(&[-5.0, -2.5]);
        let q2 = Matrix::identity(2);
        let p = QuadraticEigenProblem::new(q0, q1, q2).unwrap();
        let mut roots: Vec<f64> = p.finite_eigenvalues().unwrap().iter().map(|e| e.z.re).collect();
        roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected = [0.5, 1.0, 2.0, 4.0];
        for (r, e) in roots.iter().zip(expected) {
            assert!((r - e).abs() < 1e-8, "roots {roots:?}");
        }
    }

    #[test]
    fn eigenvalues_verify_against_eigenpair_residuals() {
        let q0 = Matrix::from_rows(&[&[1.5, 0.2][..], &[0.1, 2.0][..]]).unwrap();
        let q1 = Matrix::from_rows(&[&[-3.0, 0.5][..], &[0.3, -4.0][..]]).unwrap();
        let q2 = Matrix::from_rows(&[&[1.0, 0.1][..], &[0.0, 1.0][..]]).unwrap();
        let p = QuadraticEigenProblem::new(q0, q1, q2).unwrap();
        let eig = p.finite_eigenvalues().unwrap();
        assert_eq!(eig.len(), 4);
        for e in &eig {
            let u = p.left_eigenvector(e.z).unwrap();
            let residual = p.residual(e.z, &u).unwrap();
            assert!(residual < 1e-9, "‖u Q({})‖ = {residual}", e.z);
        }
    }

    #[test]
    fn complex_eigenvalues_use_the_real_embedding() {
        // Q(z) = z²·I + R with R a rotation by 90°: roots z² = ±i, all non-real.
        let q0 = Matrix::from_rows(&[&[0.0, -1.0][..], &[1.0, 0.0][..]]).unwrap();
        let p = QuadraticEigenProblem::new(q0, Matrix::zeros(2, 2), Matrix::identity(2)).unwrap();
        let eig = p.finite_eigenvalues().unwrap();
        assert_eq!(eig.len(), 4);
        for e in &eig {
            assert!(e.z.im.abs() > 0.1, "non-real root expected, got {}", e.z);
            let u = p.left_eigenvector(e.z).unwrap();
            let max = u.iter().fold(0.0_f64, |m, c| m.max(c.abs()));
            assert!((max - 1.0).abs() < 1e-12, "max modulus {max}");
            assert!(p.residual(e.z, &u).unwrap() < 1e-9);
        }
    }

    #[test]
    fn left_eigenvector_has_small_residual() {
        let q0 = Matrix::from_rows(&[&[2.0, 0.5][..], &[0.25, 1.0][..]]).unwrap();
        let q1 = Matrix::from_rows(&[&[-4.0, 0.0][..], &[0.5, -3.0][..]]).unwrap();
        let q2 = Matrix::identity(2);
        let p = QuadraticEigenProblem::new(q0, q1, q2).unwrap();
        for e in p.finite_eigenvalues().unwrap() {
            let u = p.left_eigenvector(e.z).unwrap();
            assert!(p.residual(e.z, &u).unwrap() < 1e-7);
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
        let mut vals: Vec<f64> = inside.iter().map(|e| e.z.re).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
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
        let eig = p.finite_eigenvalues().unwrap();
        assert!(!eig.is_empty());
        for e in eig.iter().take(8) {
            assert!(e.z.im.abs() < 1e-12, "the test problem has a real spectrum, got {}", e.z);
            let z = e.z.re;
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
    }

    #[test]
    fn banded_extraction_is_deterministic() {
        let p = banded_test_problem();
        let z = p.finite_eigenvalues().unwrap()[0].z;
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
        let q0 = Matrix::from_rows(&[&[2.0, 0.5][..], &[0.25, 1.0][..]]).unwrap();
        let q1 = Matrix::from_rows(&[&[-4.0, 0.0][..], &[0.5, -3.0][..]]).unwrap();
        let p = QuadraticEigenProblem::new(q0, q1, Matrix::identity(2)).unwrap();
        assert!(!p.uses_banded_extraction());
        for e in p.finite_eigenvalues().unwrap() {
            let u = p.left_eigenvector(e.z).unwrap();
            assert!(p.residual(e.z, &u).unwrap() < 1e-7);
        }
    }

    #[test]
    fn both_ends_singular_rejected() {
        let z = Matrix::zeros(2, 2);
        let p = QuadraticEigenProblem::new(z.clone(), Matrix::identity(2), z).unwrap();
        assert!(matches!(p.finite_eigenvalues(), Err(LinalgError::Singular { .. })));
    }
}
