//! Eigenvalues of general (non-symmetric) real matrices.
//!
//! The spectral-expansion solution of a Markov-modulated queue requires all eigenvalues
//! of a real companion matrix, including complex-conjugate pairs.  The classical dense
//! route is used here:
//!
//! 1. **balancing** (diagonal similarity scaling) to reduce the norm spread,
//! 2. **reduction to upper Hessenberg form** by stabilised elementary similarity
//!    transformations,
//! 3. the **Francis implicit double-shift QR iteration** on the Hessenberg matrix,
//!    which deflates eigenvalues one or two at a time and handles complex pairs in real
//!    arithmetic.
//!
//! The implementation follows the structure of the EISPACK routines `balanc`, `elmhes`
//! and `hqr` (also described in *Numerical Recipes*), adapted to modern floating-point
//! convergence criteria.
//!
//! # Example
//!
//! ```
//! use urs_linalg::{eigenvalues, Matrix};
//!
//! # fn main() -> Result<(), urs_linalg::LinalgError> {
//! // A rotation-and-scale matrix with eigenvalues 1 ± 2i.
//! let a = Matrix::from_rows(&[&[1.0, -2.0][..], &[2.0, 1.0][..]])?;
//! let eig = eigenvalues(&a)?;
//! assert!(eig.iter().any(|z| (z.re - 1.0).abs() < 1e-10 && (z.im - 2.0).abs() < 1e-10));
//! # Ok(())
//! # }
//! ```

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Options controlling the QR eigenvalue iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenOptions {
    /// Whether to balance the matrix before reduction (recommended; default `true`).
    pub balance: bool,
    /// Maximum number of QR iterations allowed per eigenvalue (default 60).
    pub max_iterations_per_eigenvalue: usize,
}

impl Default for EigenOptions {
    fn default() -> Self {
        EigenOptions { balance: true, max_iterations_per_eigenvalue: 60 }
    }
}

/// Computes all eigenvalues of a square real matrix with default options.
///
/// The eigenvalues are returned in no particular order; complex eigenvalues appear in
/// conjugate pairs.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`], [`LinalgError::InvalidInput`] (empty or
/// non-finite input) or [`LinalgError::NoConvergence`].
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex>> {
    eigenvalues_with(a, EigenOptions::default())
}

/// Computes all eigenvalues of a square real matrix with explicit [`EigenOptions`].
///
/// # Errors
///
/// Same conditions as [`eigenvalues`].
pub fn eigenvalues_with(a: &Matrix, options: EigenOptions) -> Result<Vec<Complex>> {
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
    if n == 1 {
        return Ok(vec![Complex::from_real(a[(0, 0)])]);
    }
    if n == 2 {
        return Ok(eig2(a[(0, 0)], a[(0, 1)], a[(1, 0)], a[(1, 1)]).to_vec());
    }
    let mut work = a.clone();
    if options.balance {
        balance(&mut work);
    }
    to_hessenberg(&mut work);
    hqr(&mut work, options.max_iterations_per_eigenvalue)
}

/// Closed-form eigenvalues of a 2×2 real matrix.
fn eig2(a: f64, b: f64, c: f64, d: f64) -> [Complex; 2] {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = tr * tr / 4.0 - det;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        [Complex::from_real(tr / 2.0 + sq), Complex::from_real(tr / 2.0 - sq)]
    } else {
        let sq = (-disc).sqrt();
        [Complex::new(tr / 2.0, sq), Complex::new(tr / 2.0, -sq)]
    }
}

/// Balances a square matrix in place by diagonal similarity transformations
/// (EISPACK `balanc`).  Eigenvalues are preserved exactly.
pub fn balance(a: &mut Matrix) {
    const RADIX: f64 = 2.0;
    let n = a.rows();
    let sqrdx = RADIX * RADIX;
    loop {
        let mut done = true;
        for i in 0..n {
            let mut r = 0.0;
            let mut c = 0.0;
            for j in 0..n {
                if j != i {
                    c += a[(j, i)].abs();
                    r += a[(i, j)].abs();
                }
            }
            if c != 0.0 && r != 0.0 {
                let mut g = r / RADIX;
                let mut f = 1.0;
                let s = c + r;
                let mut c_scaled = c;
                while c_scaled < g {
                    f *= RADIX;
                    c_scaled *= sqrdx;
                }
                g = r * RADIX;
                while c_scaled > g {
                    f /= RADIX;
                    c_scaled /= sqrdx;
                }
                if (c_scaled + r) / f < 0.95 * s {
                    done = false;
                    let g = 1.0 / f;
                    for j in 0..n {
                        a[(i, j)] *= g;
                    }
                    for j in 0..n {
                        a[(j, i)] *= f;
                    }
                }
            }
        }
        if done {
            break;
        }
    }
}

/// Reduces a square matrix to upper Hessenberg form in place using stabilised
/// elementary similarity transformations (EISPACK `elmhes`), then zeroes the junk below
/// the first subdiagonal.
pub fn to_hessenberg(a: &mut Matrix) {
    let n = a.rows();
    if n < 3 {
        return;
    }
    for m in 1..(n - 1) {
        // Pivot: largest entry in column m-1 at or below row m.
        let mut x = 0.0_f64;
        let mut pivot = m;
        for j in m..n {
            if a[(j, m - 1)].abs() > x.abs() {
                x = a[(j, m - 1)];
                pivot = j;
            }
        }
        if pivot != m {
            for j in (m - 1)..n {
                let tmp = a[(pivot, j)];
                a[(pivot, j)] = a[(m, j)];
                a[(m, j)] = tmp;
            }
            for j in 0..n {
                let tmp = a[(j, pivot)];
                a[(j, pivot)] = a[(j, m)];
                a[(j, m)] = tmp;
            }
        }
        if x != 0.0 {
            for i in (m + 1)..n {
                let mut y = a[(i, m - 1)];
                if y != 0.0 {
                    y /= x;
                    a[(i, m - 1)] = y;
                    for j in m..n {
                        let delta = y * a[(m, j)];
                        a[(i, j)] -= delta;
                    }
                    for j in 0..n {
                        let delta = y * a[(j, i)];
                        a[(j, m)] += delta;
                    }
                }
            }
        }
    }
    // Clear the entries below the first subdiagonal (they held elimination multipliers).
    for i in 2..n {
        for j in 0..(i - 1) {
            a[(i, j)] = 0.0;
        }
    }
}

/// Fortran-style `SIGN(a, b)`: `|a|` with the sign of `b`.
#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Francis implicit double-shift QR iteration on an upper Hessenberg matrix
/// (EISPACK `hqr`).  Consumes the Hessenberg matrix, returns all eigenvalues.
fn hqr(h: &mut Matrix, max_its: usize) -> Result<Vec<Complex>> {
    let n = h.rows();
    let ni = n as isize;
    let at = |h: &Matrix, i: isize, j: isize| h[(i as usize, j as usize)];
    macro_rules! set {
        ($h:expr, $i:expr, $j:expr, $v:expr) => {
            $h[($i as usize, $j as usize)] = $v
        };
    }

    let mut wr = vec![0.0_f64; n];
    let mut wi = vec![0.0_f64; n];

    let mut anorm = 0.0;
    for i in 0..ni {
        let jstart = if i > 0 { i - 1 } else { 0 };
        for j in jstart..ni {
            anorm += at(h, i, j).abs();
        }
    }
    if anorm == 0.0 {
        return Ok(vec![Complex::ZERO; n]);
    }

    let mut nn: isize = ni - 1;
    let mut t = 0.0_f64;
    while nn >= 0 {
        let mut its: usize = 0;
        loop {
            // Look for a single small subdiagonal element.
            let mut l = nn;
            while l >= 1 {
                let mut s = at(h, l - 1, l - 1).abs() + at(h, l, l).abs();
                if s == 0.0 {
                    s = anorm;
                }
                if at(h, l, l - 1).abs() <= f64::EPSILON * s {
                    set!(h, l, l - 1, 0.0);
                    break;
                }
                l -= 1;
            }
            let mut x = at(h, nn, nn);
            if l == nn {
                // One real root found.
                wr[nn as usize] = x + t;
                wi[nn as usize] = 0.0;
                nn -= 1;
                break;
            }
            let mut y = at(h, nn - 1, nn - 1);
            let mut w = at(h, nn, nn - 1) * at(h, nn - 1, nn);
            if l == nn - 1 {
                // A pair of roots found.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let mut z = q.abs().sqrt();
                x += t;
                if q >= 0.0 {
                    z = p + sign(z, p);
                    wr[(nn - 1) as usize] = x + z;
                    wr[nn as usize] = x + z;
                    if z != 0.0 {
                        wr[nn as usize] = x - w / z;
                    }
                    wi[(nn - 1) as usize] = 0.0;
                    wi[nn as usize] = 0.0;
                } else {
                    wr[(nn - 1) as usize] = x + p;
                    wr[nn as usize] = x + p;
                    wi[nn as usize] = z;
                    wi[(nn - 1) as usize] = -z;
                }
                nn -= 2;
                break;
            }
            // No convergence yet: perform a double QR sweep.
            if its >= max_its {
                return Err(LinalgError::NoConvergence {
                    algorithm: "francis double-shift QR",
                    iterations: its,
                });
            }
            if its > 0 && its.is_multiple_of(10) {
                // Exceptional shift to break (near-)cyclic behaviour.
                t += x;
                for i in 0..=nn {
                    let v = at(h, i, i) - x;
                    set!(h, i, i, v);
                }
                let s = at(h, nn, nn - 1).abs() + at(h, nn - 1, nn - 2).abs();
                y = 0.75 * s;
                x = y;
                w = -0.4375 * s * s;
            }
            its += 1;
            // Look for two consecutive small subdiagonal elements.
            let mut m = nn - 2;
            let mut p = 0.0_f64;
            let mut q = 0.0_f64;
            let mut r = 0.0_f64;
            while m >= l {
                let z = at(h, m, m);
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / at(h, m + 1, m) + at(h, m, m + 1);
                q = at(h, m + 1, m + 1) - z - rr - ss;
                r = at(h, m + 2, m + 1);
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = at(h, m, m - 1).abs() * (q.abs() + r.abs());
                let v = p.abs() * (at(h, m - 1, m - 1).abs() + z.abs() + at(h, m + 1, m + 1).abs());
                if u <= f64::EPSILON * v {
                    break;
                }
                m -= 1;
            }
            for i in (m + 2)..=nn {
                set!(h, i, i - 2, 0.0);
                if i != m + 2 {
                    set!(h, i, i - 3, 0.0);
                }
            }
            // Double QR step on rows l..nn and columns m..nn.
            let mut k = m;
            while k < nn {
                if k != m {
                    p = at(h, k, k - 1);
                    q = at(h, k + 1, k - 1);
                    r = if k != nn - 1 { at(h, k + 2, k - 1) } else { 0.0 };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = sign((p * p + q * q + r * r).sqrt(), p);
                if s != 0.0 {
                    if k == m {
                        if l != m {
                            let v = -at(h, k, k - 1);
                            set!(h, k, k - 1, v);
                        }
                    } else {
                        set!(h, k, k - 1, -s * x);
                    }
                    p += s;
                    x = p / s;
                    y = q / s;
                    let z = r / s;
                    q /= p;
                    r /= p;
                    // Row modification.
                    for j in k..=nn {
                        let mut pp = at(h, k, j) + q * at(h, k + 1, j);
                        if k != nn - 1 {
                            pp += r * at(h, k + 2, j);
                            let v = at(h, k + 2, j) - pp * z;
                            set!(h, k + 2, j, v);
                        }
                        let v1 = at(h, k + 1, j) - pp * y;
                        set!(h, k + 1, j, v1);
                        let v0 = at(h, k, j) - pp * x;
                        set!(h, k, j, v0);
                    }
                    // Column modification.
                    let mmin = if nn < k + 3 { nn } else { k + 3 };
                    for i in l..=mmin {
                        let mut pp = x * at(h, i, k) + y * at(h, i, k + 1);
                        if k != nn - 1 {
                            pp += z * at(h, i, k + 2);
                            let v = at(h, i, k + 2) - pp * r;
                            set!(h, i, k + 2, v);
                        }
                        let v1 = at(h, i, k + 1) - pp * q;
                        set!(h, i, k + 1, v1);
                        let v0 = at(h, i, k) - pp;
                        set!(h, i, k, v0);
                    }
                }
                k += 1;
            }
        }
    }
    Ok(wr.into_iter().zip(wi).map(|(re, im)| Complex::new(re, im)).collect())
}

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

/// Sorts eigenvalues by decreasing modulus (ties broken by real part, then imaginary
/// part) — a convenient canonical order for tests and reporting.
pub fn sort_by_modulus_desc(eigenvalues: &mut [Complex]) {
    eigenvalues.sort_by(|a, b| {
        b.abs().total_cmp(&a.abs()).then(b.re.total_cmp(&a.re)).then(b.im.total_cmp(&a.im))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that `computed` and `expected` agree as multisets, within `tol`.
    fn assert_spectrum(mut computed: Vec<Complex>, mut expected: Vec<Complex>, tol: f64) {
        assert_eq!(computed.len(), expected.len());
        sort_by_modulus_desc(&mut computed);
        sort_by_modulus_desc(&mut expected);
        for e in &expected {
            let (idx, best) = computed
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    ((**a) - *e).abs().partial_cmp(&((**b) - *e).abs()).unwrap()
                })
                .map(|(i, z)| (i, *z))
                .unwrap();
            assert!(
                (best - *e).abs() < tol,
                "eigenvalue {e} not found (closest was {best}); spectrum {computed:?}"
            );
            computed.remove(idx);
        }
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diagonal(&[3.0, -1.0, 0.5, 7.0]);
        let eig = eigenvalues(&a).unwrap();
        assert_spectrum(
            eig,
            vec![3.0, -1.0, 0.5, 7.0].into_iter().map(Complex::from_real).collect(),
            1e-10,
        );
    }

    #[test]
    fn one_by_one_and_two_by_two() {
        let a = Matrix::from_rows(&[&[5.0][..]]).unwrap();
        assert_eq!(eigenvalues(&a).unwrap(), vec![Complex::from_real(5.0)]);

        let b = Matrix::from_rows(&[&[0.0, 1.0][..], &[-1.0, 0.0][..]]).unwrap();
        assert_spectrum(eigenvalues(&b).unwrap(), vec![Complex::I, -Complex::I], 1e-12);
    }

    #[test]
    fn upper_triangular_eigenvalues_are_the_diagonal() {
        let a = Matrix::from_rows(&[
            &[1.0, 5.0, -3.0, 2.0][..],
            &[0.0, 2.0, 8.0, 1.0][..],
            &[0.0, 0.0, 3.0, -7.0][..],
            &[0.0, 0.0, 0.0, 4.0][..],
        ])
        .unwrap();
        assert_spectrum(
            eigenvalues(&a).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0].into_iter().map(Complex::from_real).collect(),
            1e-8,
        );
    }

    #[test]
    fn companion_matrix_of_known_polynomial() {
        // p(z) = (z-1)(z-2)(z-3)(z+4) = z^4 - 2z^3 - 13z^2 + 38z - 24
        // companion (last row holds -coefficients)
        let a = Matrix::from_rows(&[
            &[0.0, 1.0, 0.0, 0.0][..],
            &[0.0, 0.0, 1.0, 0.0][..],
            &[0.0, 0.0, 0.0, 1.0][..],
            &[24.0, -38.0, 13.0, 2.0][..],
        ])
        .unwrap();
        assert_spectrum(
            eigenvalues(&a).unwrap(),
            vec![1.0, 2.0, 3.0, -4.0].into_iter().map(Complex::from_real).collect(),
            1e-8,
        );
    }

    #[test]
    fn complex_conjugate_pairs() {
        // Block diagonal with blocks giving 2±3i and -1±0.5i
        let a = Matrix::from_rows(&[
            &[2.0, 3.0, 0.0, 0.0][..],
            &[-3.0, 2.0, 0.0, 0.0][..],
            &[0.0, 0.0, -1.0, 0.5][..],
            &[0.0, 0.0, -0.5, -1.0][..],
        ])
        .unwrap();
        assert_spectrum(
            eigenvalues(&a).unwrap(),
            vec![
                Complex::new(2.0, 3.0),
                Complex::new(2.0, -3.0),
                Complex::new(-1.0, 0.5),
                Complex::new(-1.0, -0.5),
            ],
            1e-8,
        );
    }

    #[test]
    fn eigenvalue_sum_equals_trace_and_product_equals_det() {
        // A moderately sized pseudo-random matrix with reproducible entries.
        let n = 12;
        let mut seed = 42_u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let a = Matrix::from_fn(n, n, |_, _| next());
        let eig = eigenvalues(&a).unwrap();
        let sum: Complex = eig.iter().copied().sum();
        let trace = a.trace().unwrap();
        assert!((sum.re - trace).abs() < 1e-8, "trace {trace} vs eig sum {sum}");
        assert!(sum.im.abs() < 1e-8);
        let prod = eig.iter().fold(Complex::ONE, |acc, z| acc * *z);
        let det = a.determinant().unwrap();
        assert!((prod.re - det).abs() < 1e-6 * det.abs().max(1.0), "det {det} vs prod {prod}");
        assert!(prod.im.abs() < 1e-6);
    }

    #[test]
    fn stochastic_matrix_has_unit_eigenvalue() {
        // Row-stochastic matrix: largest eigenvalue must be exactly 1.
        let a = Matrix::from_rows(&[
            &[0.5, 0.3, 0.2][..],
            &[0.1, 0.8, 0.1][..],
            &[0.25, 0.25, 0.5][..],
        ])
        .unwrap();
        let mut eig = eigenvalues(&a).unwrap();
        sort_by_modulus_desc(&mut eig);
        assert!((eig[0] - Complex::ONE).abs() < 1e-10);
        assert!(eig.iter().skip(1).all(|z| z.abs() < 1.0 + 1e-12));
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(5, 5);
        let eig = eigenvalues(&a).unwrap();
        assert!(eig.iter().all(|z| z.abs() < 1e-14));
    }

    #[test]
    fn defective_matrix_jordan_block() {
        // A 3x3 Jordan block with eigenvalue 2 (algebraic multiplicity 3).
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 0.0][..], &[0.0, 2.0, 1.0][..], &[0.0, 0.0, 2.0][..]])
                .unwrap();
        let eig = eigenvalues(&a).unwrap();
        for z in eig {
            // Multiple eigenvalues of defective matrices are only accurate to ~eps^(1/3).
            assert!((z - Complex::from_real(2.0)).abs() < 1e-4, "got {z}");
        }
    }

    #[test]
    fn badly_scaled_matrix_benefits_from_balancing() {
        let a = Matrix::from_rows(&[
            &[1.0, 1e6, 0.0][..],
            &[1e-6, 2.0, 1e6][..],
            &[0.0, 1e-6, 3.0][..],
        ])
        .unwrap();
        let eig = eigenvalues(&a).unwrap();
        let sum: f64 = eig.iter().map(|z| z.re).sum();
        assert!((sum - 6.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(matches!(eigenvalues(&Matrix::zeros(2, 3)), Err(LinalgError::NotSquare { .. })));
        let nan = Matrix::from_rows(&[&[f64::NAN, 0.0][..], &[0.0, 1.0][..]]).unwrap();
        assert!(eigenvalues(&nan).is_err());
    }

    #[test]
    fn hessenberg_preserves_eigenvalues() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0][..],
            &[1.0, 2.0, 0.0, 1.0][..],
            &[-2.0, 0.0, 3.0, -2.0][..],
            &[2.0, 1.0, -2.0, -1.0][..],
        ])
        .unwrap();
        let mut h = a.clone();
        to_hessenberg(&mut h);
        // Hessenberg form: zero below the first subdiagonal.
        for i in 2..4 {
            for j in 0..(i - 1) {
                assert_eq!(h[(i, j)], 0.0);
            }
        }
        let eig_a = eigenvalues(&a).unwrap();
        let eig_h = eigenvalues(&h).unwrap();
        assert_spectrum(eig_h, eig_a, 1e-7);
    }

    #[test]
    fn balance_preserves_eigenvalue_trace() {
        let a = Matrix::from_rows(&[&[1.0, 1000.0][..], &[0.001, 2.0][..]]).unwrap();
        let mut b = a.clone();
        balance(&mut b);
        assert!((b.trace().unwrap() - a.trace().unwrap()).abs() < 1e-12);
        assert_spectrum(eigenvalues(&b).unwrap(), eigenvalues(&a).unwrap(), 1e-9);
    }

    #[test]
    fn larger_companion_with_roots_inside_and_outside_unit_disk() {
        // Roots: 0.2, 0.5, 0.9, 1.25, 2.0, -0.7
        let roots = [0.2, 0.5, 0.9, 1.25, 2.0, -0.7];
        // Build polynomial coefficients (monic), then its companion matrix.
        let mut coeffs = vec![1.0];
        for &r in &roots {
            let mut next = vec![0.0; coeffs.len() + 1];
            for (i, &c) in coeffs.iter().enumerate() {
                next[i] += c;
                next[i + 1] -= c * r;
            }
            coeffs = next;
        }
        let n = roots.len();
        let mut comp = Matrix::zeros(n, n);
        for i in 0..(n - 1) {
            comp[(i, i + 1)] = 1.0;
        }
        for j in 0..n {
            comp[(n - 1, j)] = -coeffs[n - j];
        }
        assert_spectrum(
            eigenvalues(&comp).unwrap(),
            roots.iter().map(|&r| Complex::from_real(r)).collect(),
            1e-7,
        );
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
            // The same spectrum as the general QR solver.
            assert_spectrum(
                eigenvalues(&a).unwrap(),
                eig.values.iter().map(|&x| Complex::from_real(x)).collect(),
                1e-10,
            );
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
