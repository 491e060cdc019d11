//! Eigenpairs of real symmetric matrices.
//!
//! The response-time transform runs in the eigenbasis of the symmetrised level
//! resolvents, so the workspace needs every eigenpair of a real symmetric matrix.
//! [`symmetric_eigen`] computes them by the cyclic Jacobi method.  The roots of the
//! characteristic quadratic come from spectrum slicing instead (see
//! [`CaudalFamily`](crate::CaudalFamily)), so no general eigensolver is needed.
//!
//! # Example
//!
//! ```
//! use urs_linalg::{symmetric_eigen, Matrix};
//!
//! # fn main() -> Result<(), urs_linalg::LinalgError> {
//! // A symmetric tridiagonal matrix with eigenvalues 2 − √2, 2 and 2 + √2.
//! let a = Matrix::from_rows(&[&[2.0, -1.0, 0.0][..], &[-1.0, 2.0, -1.0][..], &[0.0, -1.0, 2.0][..]])?;
//! let eig = symmetric_eigen(&a)?;
//! let root2 = std::f64::consts::SQRT_2;
//! assert!((eig.values[0] - (2.0 - root2)).abs() < 1e-14 && (eig.values[2] - (2.0 + root2)).abs() < 1e-14);
//! # Ok(())
//! # }
//! ```

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// The eigen decomposition `A = V·diag(λ)·Vᵀ` of a real symmetric matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricEigen {
    /// The eigenvalues `λ`, in ascending order.
    pub values: Vec<f64>,
    /// The orthonormal eigenvectors: column `k` belongs to `values[k]`.
    pub vectors: Matrix,
}

/// Sweeps after which the cyclic Jacobi iteration gives up.
const JACOBI_MAX_SWEEPS: usize = 60;

/// Computes every eigenpair of a real symmetric matrix by the cyclic Jacobi method.
///
/// Each sweep annihilates the strictly upper off-diagonal entries in row-cyclic
/// order with plane rotations (Rutishauser's formulation, as in *Numerical
/// Recipes* `jacobi`): the first three sweeps skip entries below a threshold of
/// one fifth of the mean off-diagonal magnitude, later sweeps set entries to zero
/// once they no longer change either diagonal entry they couple.  The iteration
/// converges quadratically and stops when the off-diagonal part is exactly zero.
/// The rotation order is fixed, so the result is deterministic bit for bit; the
/// eigenvalues carry small *relative* errors even when they differ widely in
/// magnitude.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`], [`LinalgError::InvalidInput`] (empty,
/// non-finite or non-symmetric input — symmetry is checked to `1e-12` relative to
/// the largest entry) or [`LinalgError::NoConvergence`].
///
/// # Example
///
/// ```
/// use urs_linalg::{symmetric_eigen, Matrix};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 2.0][..]])?;
/// let eig = symmetric_eigen(&a)?;
/// assert!((eig.values[0] - 1.0).abs() < 1e-14 && (eig.values[1] - 3.0).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::InvalidInput("matrix must be non-empty".into()));
    }
    if !a.is_finite() {
        return Err(LinalgError::InvalidInput("matrix contains non-finite values".into()));
    }
    let tolerance = 1e-12 * a.max_abs();
    if a.as_slice().iter().zip(a.transpose().as_slice()).any(|(x, y)| (x - y).abs() > tolerance) {
        return Err(LinalgError::InvalidInput("matrix is not symmetric".into()));
    }
    // `w` holds the matrix (only its strict upper triangle is read), `vt` the
    // accumulated rotations with the eigenvectors as rows, `d` the current
    // diagonal, and `b`/`z` Rutishauser's per-sweep accumulation of it.
    let mut w = a.as_slice().to_vec();
    let mut vt = Matrix::identity(n).into_vec();
    let mut d = a.diagonal();
    let mut b = d.clone();
    let mut z = vec![0.0; n];
    for sweep in 0..JACOBI_MAX_SWEEPS {
        let off: f64 = w
            .chunks_exact(n)
            .enumerate()
            .map(|(p, row)| row.iter().skip(p + 1).map(|v| v.abs()).sum::<f64>())
            .sum();
        if off <= 0.0 {
            return Ok(sorted_eigenpairs(d, &vt, n));
        }
        let threshold = if sweep < 3 { 0.2 * off / (n * n) as f64 } else { 0.0 };
        for p in 0..n {
            for q in p + 1..n {
                let Some(apq) = w.get_mut(p * n + q) else { continue };
                let (dp, dq) = (d.get(p).copied().unwrap_or(0.0), d.get(q).copied().unwrap_or(0.0));
                let g = 100.0 * apq.abs();
                if sweep > 3 && dp.abs() + g == dp.abs() && dq.abs() + g == dq.abs() {
                    *apq = 0.0;
                    continue;
                }
                if apq.abs() <= threshold {
                    continue;
                }
                let h = dq - dp;
                let t = if h.abs() + g == h.abs() {
                    *apq / h
                } else {
                    let theta = 0.5 * h / *apq;
                    let t = 1.0 / (theta.abs() + (1.0 + theta * theta).sqrt());
                    if theta < 0.0 {
                        -t
                    } else {
                        t
                    }
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                let tau = s / (1.0 + c);
                let shift = t * *apq;
                *apq = 0.0;
                for (i, delta) in [(p, -shift), (q, shift)] {
                    if let (Some(zi), Some(di)) = (z.get_mut(i), d.get_mut(i)) {
                        *zi += delta;
                        *di += delta;
                    }
                }
                rotate_upper(&mut w, n, p, q, s, tau);
                let (head, tail) = vt.split_at_mut(q * n);
                for (x, y) in head.iter_mut().skip(p * n).take(n).zip(tail.iter_mut()) {
                    rotate(x, y, s, tau);
                }
            }
        }
        for ((bi, di), zi) in b.iter_mut().zip(d.iter_mut()).zip(z.iter_mut()) {
            *bi += *zi;
            *di = *bi;
            *zi = 0.0;
        }
    }
    Err(LinalgError::NoConvergence { algorithm: "cyclic Jacobi", iterations: JACOBI_MAX_SWEEPS })
}

/// One plane rotation of the pair `(x, y)` in Rutishauser's `tau` form.
fn rotate(x: &mut f64, y: &mut f64, s: f64, tau: f64) {
    let (g, h) = (*x, *y);
    *x = g - s * (h + g * tau);
    *y = h + s * (g - h * tau);
}

/// Applies the rotation in the `(p, q)` plane, `p < q`, to the strict upper
/// triangle of the row-major `n × n` matrix `w`: the pairs `(j, p)/(j, q)` for
/// `j < p`, `(p, j)/(j, q)` for `p < j < q` and `(p, j)/(q, j)` for `j > q`.
fn rotate_upper(w: &mut [f64], n: usize, p: usize, q: usize, s: f64, tau: f64) {
    let (above_q, from_q) = w.split_at_mut(q * n);
    let (above_p, from_p) = above_q.split_at_mut(p * n);
    for row in above_p.chunks_exact_mut(n) {
        let (left, right) = row.split_at_mut(q);
        if let (Some(x), Some(y)) = (left.get_mut(p), right.first_mut()) {
            rotate(x, y, s, tau);
        }
    }
    let (row_p, between) = from_p.split_at_mut(n);
    for (x, row_j) in row_p.iter_mut().skip(p + 1).zip(between.chunks_exact_mut(n)) {
        if let Some(y) = row_j.get_mut(q) {
            rotate(x, y, s, tau);
        }
    }
    let row_q = from_q.iter_mut().take(n).skip(q + 1);
    for (x, y) in row_p.iter_mut().skip(q + 1).zip(row_q) {
        rotate(x, y, s, tau);
    }
}

/// Orders the eigenpairs by ascending eigenvalue (a stable sort, so ties keep
/// their index order); `vt` holds the eigenvectors as rows, the result as columns.
fn sorted_eigenpairs(d: Vec<f64>, vt: &[f64], n: usize) -> SymmetricEigen {
    let mut pairs: Vec<(f64, &[f64])> = d.into_iter().zip(vt.chunks_exact(n)).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let values = pairs.iter().map(|(value, _)| *value).collect();
    let vectors = Matrix::from_fn(n, n, |i, k| {
        pairs.get(k).and_then(|(_, row)| row.get(i)).copied().unwrap_or(0.0)
    });
    SymmetricEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diagonal(&[3.0, -1.0, 0.5, 7.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert_eq!(eig.values, vec![-1.0, 0.5, 3.0, 7.0]);
        // Column k is the unit vector of the k-th smallest diagonal entry.
        for (k, i) in [1, 2, 0, 3].into_iter().enumerate() {
            assert_eq!(eig.vectors[(i, k)].abs(), 1.0);
        }
    }

    #[test]
    fn one_by_one_and_two_by_two() {
        let a = Matrix::from_rows(&[&[5.0][..]]).unwrap();
        let eig = symmetric_eigen(&a).unwrap();
        assert_eq!(eig.values, vec![5.0]);
        assert_eq!(eig.vectors, Matrix::identity(1));

        let b = Matrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 2.0][..]]).unwrap();
        let eig = symmetric_eigen(&b).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-15 && (eig.values[1] - 3.0).abs() < 1e-15);
        let half = std::f64::consts::FRAC_1_SQRT_2;
        assert!((eig.vectors[(0, 0)].abs() - half).abs() < 1e-15);
        assert!((eig.vectors[(0, 0)] + eig.vectors[(1, 0)]).abs() < 1e-15, "(1, −1) direction");
    }

    #[test]
    fn eigenvalue_sum_equals_trace_and_product_equals_det() {
        // A moderately sized pseudo-random matrix with reproducible entries.
        let a = random_symmetric(12, 42, 11);
        let eig = symmetric_eigen(&a).unwrap();
        let sum: f64 = eig.values.iter().sum();
        let trace = a.trace().unwrap();
        assert!((sum - trace).abs() < 1e-12, "trace {trace} vs eigenvalue sum {sum}");
        let product: f64 = eig.values.iter().product();
        let det = a.determinant().unwrap();
        assert!((product - det).abs() < 1e-12 * det.abs().max(1.0), "det {det} vs {product}");
    }

    #[test]
    fn stochastic_matrix_has_unit_eigenvalue() {
        // A symmetric (doubly) stochastic matrix: its largest eigenvalue is 1, with
        // the constant vector, and no eigenvalue exceeds 1 in modulus.
        let a =
            Matrix::from_rows(&[&[0.5, 0.3, 0.2][..], &[0.3, 0.6, 0.1][..], &[0.2, 0.1, 0.7][..]])
                .unwrap();
        let eig = symmetric_eigen(&a).unwrap();
        assert!((eig.values[2] - 1.0).abs() < 1e-14);
        let third = 1.0 / 3.0_f64.sqrt();
        assert!((0..3).all(|i| (eig.vectors[(i, 2)].abs() - third).abs() < 1e-14));
        assert!(eig.values.iter().all(|x| x.abs() < 1.0 + 1e-14));
    }

    #[test]
    fn zero_matrix() {
        let eig = symmetric_eigen(&Matrix::zeros(5, 5)).unwrap();
        assert!(eig.values.iter().all(|x| x.abs() < 1e-300));
        assert_eq!(eig.vectors, Matrix::identity(5));
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(matches!(
            symmetric_eigen(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let nan = Matrix::from_rows(&[&[f64::NAN, 0.0][..], &[0.0, 1.0][..]]).unwrap();
        assert!(symmetric_eigen(&nan).is_err());
    }

    fn random_symmetric(n: usize, seed: u64, band: usize) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n.min(i + band + 1) {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn symmetric_eigen_reconstructs_and_is_orthonormal() {
        for (n, band, seed) in
            [(1usize, 0usize, 1u64), (2, 1, 2), (7, 6, 3), (30, 29, 4), (40, 3, 5)]
        {
            let a = random_symmetric(n, seed, band);
            let eig = symmetric_eigen(&a).unwrap();
            assert!(eig.values.windows(2).all(|w| w[0] <= w[1]), "ascending order");
            let v = &eig.vectors;
            let vtv = v.transpose().matmul(v).unwrap();
            assert!(vtv.approx_eq(&Matrix::identity(n), 1e-13), "n = {n}: VᵀV ≠ I");
            let mut scaled = v.clone();
            scaled.scale_columns(&eig.values).unwrap();
            let rebuilt = scaled.matmul(&v.transpose()).unwrap();
            assert!(rebuilt.approx_eq(&a, 1e-13), "n = {n}: V·Λ·Vᵀ ≠ A");
            // The trace, independently of the rotations.
            let sum: f64 = eig.values.iter().sum();
            assert!((sum - a.trace().unwrap()).abs() < 1e-12, "n = {n}: trace");
            // Deterministic bit for bit.
            assert_eq!(symmetric_eigen(&a).unwrap(), eig);
        }
    }

    #[test]
    fn symmetric_eigen_keeps_relative_accuracy_across_scales() {
        // diag(1e-8, 1, 1e8) rotated slightly: the tiny eigenvalue survives.
        let a = Matrix::from_rows(&[
            &[1e-8, 1e-12, 0.0][..],
            &[1e-12, 1.0, 1e-6][..],
            &[0.0, 1e-6, 1e8][..],
        ])
        .unwrap();
        let eig = symmetric_eigen(&a).unwrap();
        assert!((eig.values[0] - 1e-8).abs() < 1e-15 * 1e-8 * 100.0, "{:?}", eig.values);
        assert!((eig.values[2] - 1e8).abs() < 1e-6);
    }

    #[test]
    fn symmetric_eigen_rejects_bad_input() {
        let skew = Matrix::from_rows(&[&[1.0, 2.0][..], &[-2.0, 1.0][..]]).unwrap();
        assert!(matches!(symmetric_eigen(&skew), Err(LinalgError::InvalidInput(_))));
        assert!(matches!(
            symmetric_eigen(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(symmetric_eigen(&Matrix::zeros(0, 0)).is_err());
        let nan = Matrix::from_rows(&[&[f64::NAN][..]]).unwrap();
        assert!(symmetric_eigen(&nan).is_err());
    }
}
