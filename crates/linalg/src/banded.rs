//! Banded real matrices: packed storage, banded gemm/matvec, and banded LU.
//!
//! The QBD generator blocks of the Palmer–Mitrani model are narrow bands — the
//! local transition matrix couples mode `(n_op, n_up)` only to neighbours, so in
//! the lexicographic mode order every nonzero sits within `N + 1` diagonals of
//! the main one, and `B = λI` / the departure matrix `C` are diagonal.  Dense
//! kernels already *skip* those zeros element-wise; this module stops paying for
//! them at all by storing only the band and factoring only inside it.
//!
//! # Storage
//!
//! [`BandedMatrix`] packs an `n × n` matrix with `kl` subdiagonals and `ku`
//! superdiagonals row-major into `n` rows of width `kl + ku + 1`: element
//! `(i, j)` lives at `data[i·w + (j − i + kl)]`, so the main diagonal sits at
//! column offset `kl` of every packed row.  Out-of-band slots at the edges stay
//! exactly `+0.0` and are never read by the kernels.
//!
//! # Bit-identity with the dense kernels
//!
//! Every kernel here performs, per output element, the identical sequence of
//! floating-point operations the dense counterpart performs on the same
//! operand with its zeros materialised — ascending-`k` accumulation in
//! [`BandedMatrix::gemm_into`] (the dense tiling never reorders a single
//! element's terms), and the textbook right-looking elimination in
//! [`BandedLu`] (the dense blocked LU is bit-identical to the unblocked one by
//! construction).  The one structural difference is pivoting bookkeeping: the
//! dense factorisation swaps whole rows eagerly, while the banded one uses the
//! LAPACK `gbtrf` arrangement — only the `U`-parts of rows are exchanged and
//! multipliers stay in the slot where they were created, with the row
//! interchanges replayed *during* the solves.  Replaying the interchanges in
//! elimination order hands every logical row exactly the multiplier sequence
//! the dense solve applies to it, in the same ascending column order, so
//! factors, solves and determinants agree with the dense path to the last bit
//! (pinned by the in-module tests and the `properties` proptest suite).
//!
//! Caveat: the dense path also touches below-band entries whose multipliers are
//! exact zeros (`0.0 / pivot`), contributing `x − (±0·y)` no-ops.  Those no-ops
//! can flip the sign of an *exactly zero* intermediate (`-0.0 − (-0.0) = +0.0`);
//! bit-identity therefore assumes right-hand sides free of `-0.0`, which holds
//! for every probability-vector and generator-block RHS the solvers produce.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::workspace::Workspace;
use crate::Result;

/// Relative threshold below which a pivot is considered zero (same constant as
/// the dense [`LuDecomposition`](crate::LuDecomposition)).
const PIVOT_EPS: f64 = 1e-300;

/// A real `n × n` matrix with `kl` subdiagonals and `ku` superdiagonals in
/// packed row-major band storage.
///
/// Construction is cheap (`O(n·(kl + ku + 1))` storage) and the kernels —
/// [`matvec_into`](Self::matvec_into), [`gemm_into`](Self::gemm_into), and the
/// [`BandedLu`] factorisation — cost `O(n·w)` / `O(n·w·m)` / `O(n·w²)` instead
/// of their dense `O(n²)` / `O(n²·m)` / `O(n³)` counterparts, while producing
/// bit-identical results on the same nonzero pattern (see the module docs).
///
/// # Example
///
/// ```
/// use urs_linalg::{BandedMatrix, Matrix};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// // Tridiagonal 4×4: 2 on the diagonal, -1 on the off-diagonals.
/// let a = BandedMatrix::from_fn(4, 1, 1, |i, j| {
///     if i == j { 2.0 } else { -1.0 }
/// });
/// let mut y = [0.0; 4];
/// a.matvec_into(&[1.0, 1.0, 1.0, 1.0], &mut y)?;
/// assert_eq!(y, [1.0, 0.0, 0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    /// Packed rows of width `kl + ku + 1`; element `(i, j)` at
    /// `data[i * width + (j + kl - i)]`.
    data: Vec<f64>,
}

impl BandedMatrix {
    /// Creates an `n × n` banded matrix of zeros with the given bandwidths
    /// (clamped to `n.saturating_sub(1)`).
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let cap = n.saturating_sub(1);
        let (kl, ku) = (kl.min(cap), ku.min(cap));
        BandedMatrix { n, kl, ku, data: vec![0.0; n * (kl + ku + 1)] }
    }

    /// Creates a banded matrix by evaluating `f(i, j)` at every in-band
    /// position; out-of-band elements are zero.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(
        n: usize,
        kl: usize,
        ku: usize,
        mut f: F,
    ) -> Self {
        let mut m = Self::zeros(n, kl, ku);
        let (kl, ku, w) = (m.kl, m.ku, m.width());
        for i in 0..n {
            for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                m.data[i * w + (j + kl - i)] = f(i, j);
            }
        }
        m
    }

    /// Packs a dense matrix into band storage with the given bandwidths.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::InvalidInput`] if any element outside the stated band is
    /// nonzero — the caller's bandwidth claim must be exact so the packed and
    /// dense operands describe the same matrix.
    pub fn from_dense(a: &Matrix, kl: usize, ku: usize) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let cap = n.saturating_sub(1);
        let (kl, ku) = (kl.min(cap), ku.min(cap));
        for i in 0..n {
            for j in 0..n {
                // urs-analyze: allow(float_cmp, reason = "exact-zero structure test: packing must reject any nonzero outside the claimed band")
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                if (j + kl < i || j > i + ku) && a[(i, j)] != 0.0 {
                    return Err(LinalgError::InvalidInput(format!(
                        "element ({i},{j}) is outside the claimed band (kl={kl}, ku={ku}) but nonzero"
                    )));
                }
            }
        }
        // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
        Ok(Self::from_fn(n, kl, ku, |i, j| a[(i, j)]))
    }

    /// Measures the exact lower and upper bandwidths of a square dense matrix:
    /// the smallest `(kl, ku)` such that every nonzero of `a` satisfies
    /// `i − kl ≤ j ≤ i + ku`.  Returns `(0, 0)` for diagonal (and empty)
    /// matrices.
    pub fn bandwidths_of(a: &Matrix) -> (usize, usize) {
        let n = a.rows().min(a.cols());
        let (mut kl, mut ku) = (0usize, 0usize);
        for i in 0..n {
            for j in 0..n {
                // urs-analyze: allow(float_cmp, reason = "exact-zero structure probe; any nonzero, however small, widens the band")
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                if a[(i, j)] != 0.0 {
                    if j < i {
                        kl = kl.max(i - j);
                    } else {
                        ku = ku.max(j - i);
                    }
                }
            }
        }
        (kl, ku)
    }

    /// Dimension of the (square) matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of subdiagonals.
    #[inline]
    pub fn lower_bandwidth(&self) -> usize {
        self.kl
    }

    /// Number of superdiagonals.
    #[inline]
    pub fn upper_bandwidth(&self) -> usize {
        self.ku
    }

    /// Packed row width `kl + ku + 1`.
    #[inline]
    fn width(&self) -> usize {
        self.kl + self.ku + 1
    }

    /// Element access; out-of-band positions read as `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of bounds for dim {}", self.n);
        if j + self.kl < i || j > i + self.ku {
            0.0
        } else {
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            self.data[i * self.width() + (j + self.kl - i)]
        }
    }

    /// Writes an in-band element.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds or outside the band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of bounds for dim {}", self.n);
        assert!(
            j + self.kl >= i && j <= i + self.ku,
            "index ({i},{j}) outside band (kl={}, ku={})",
            self.kl,
            self.ku
        );
        let w = self.width();
        // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
        self.data[i * w + (j + self.kl - i)] = value;
    }

    /// Expands to a dense matrix (for tests, diagnostics and dense fallbacks).
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Maximum absolute value of any in-band element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Banded matrix–vector product `out = self · v`, allocation-free.
    ///
    /// Per output row the in-band terms accumulate in ascending column order —
    /// the same order the dense [`Matrix::matvec`] uses, with the out-of-band
    /// `0·vⱼ` no-ops elided (see the module docs for the `-0.0` caveat).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v` or `out` has the
    /// wrong length.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.n;
        if v.len() != n || out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "banded matrix-vector product",
                left: (n, n),
                right: (v.len().max(out.len()), 1),
            });
        }
        let w = self.width();
        // urs-analyze: begin(no_alloc)
        for (i, oi) in out.iter_mut().enumerate() {
            let j0 = i.saturating_sub(self.kl);
            let j1 = (i + self.ku + 1).min(n);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let row = &self.data[i * w + (j0 + self.kl - i)..i * w + (j1 - 1 + self.kl - i) + 1];
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            *oi = row.iter().zip(&v[j0..j1]).map(|(a, b)| a * b).sum();
        }
        // urs-analyze: end(no_alloc)
        Ok(())
    }

    /// Banded multiply-accumulate `c ← alpha·self·b + beta·c` with a dense
    /// right operand and output, allocation-free.
    ///
    /// Per output element the `k` terms accumulate in ascending order with the
    /// same `alpha·a == 0.0` skip as the dense [`Matrix::gemm`], so on the same
    /// nonzero pattern the results agree bit for bit; the band merely bounds
    /// which `k` are visited at all.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless
    /// `c.shape() == (self.dim(), b.cols())` and `b.rows() == self.dim()`.
    pub fn gemm_into(&self, alpha: f64, b: &Matrix, beta: f64, c: &mut Matrix) -> Result<()> {
        let n = self.n;
        if b.rows() != n || c.rows() != n || c.cols() != b.cols() {
            return Err(LinalgError::DimensionMismatch {
                operation: "banded multiply-accumulate (gemm)",
                left: (n, n),
                right: b.shape(),
            });
        }
        let m = b.cols();
        let w = self.width();
        let bd = b.as_slice();
        let cd = c.as_mut_slice();
        // urs-analyze: begin(no_alloc)
        // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip path; bitwise test is part of the bit-identity contract")
        if beta == 0.0 {
            cd.fill(0.0);
        // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip path; bitwise test is part of the bit-identity contract")
        } else if beta != 1.0 {
            for x in cd.iter_mut() {
                *x *= beta;
            }
        }
        // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip path; bitwise test is part of the bit-identity contract")
        if alpha == 0.0 || m == 0 {
            return Ok(());
        }
        for i in 0..n {
            let j0 = i.saturating_sub(self.kl);
            let j1 = (i + self.ku + 1).min(n);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let a_row = &self.data[i * w + (j0 + self.kl - i)..i * w + (j1 - 1 + self.kl - i) + 1];
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let c_row = &mut cd[i * m..(i + 1) * m];
            for (offset, &av) in a_row.iter().enumerate() {
                let aip = alpha * av;
                // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip path; bitwise test is part of the bit-identity contract")
                if aip == 0.0 {
                    continue;
                }
                let p = j0 + offset;
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                let b_row = &bd[p * m..(p + 1) * m];
                for (x, &bv) in c_row.iter_mut().zip(b_row) {
                    *x += aip * bv;
                }
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(())
    }

    /// Banded LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BandedLu::new`].
    pub fn lu(&self) -> Result<BandedLu> {
        BandedLu::new(self)
    }

    /// Writes `values` onto the main diagonal in order, leaving the off-diagonal
    /// band untouched — the per-step update of a matrix family whose off-diagonal
    /// part is constant.  Values beyond the dimension are ignored; a shorter
    /// sequence leaves the remaining diagonal entries as they were.
    pub fn set_diagonal(&mut self, values: impl IntoIterator<Item = f64>) {
        let (w, kl) = (self.width(), self.kl);
        for (row, value) in self.data.chunks_exact_mut(w).zip(values) {
            if let Some(x) = row.get_mut(kl) {
                *x = value;
            }
        }
    }

    /// The nonsingular M-matrix test for a Z-matrix (every off-diagonal entry
    /// `≤ 0`): an *unpivoted* LU, which succeeds with all pivots positive exactly
    /// when the matrix is a nonsingular M-matrix (Berman & Plemmons, *Nonnegative
    /// Matrices in the Mathematical Sciences*, 1979, ch. 6).  The same elimination
    /// also counts the negative pivots: for a matrix that a diagonal similarity makes
    /// symmetric, that count is the number of negative eigenvalues (Sylvester's law
    /// of inertia), which is what spectrum slicing reads.
    ///
    /// Without pivoting the factors stay inside the band — `L` has `kl`
    /// subdiagonals, `U` has `ku` superdiagonals — so the elimination costs
    /// `O(n·kl·ku)` and its working storage is one band-sized buffer from `ws`.
    /// The elimination runs through negative pivots and stops early only at a zero
    /// or non-finite pivot before the last, where the count is lost.  When some
    /// pivot is not positive the buffer goes back to `ws` and the first such pivot
    /// is reported with the [`Inertia`], if the elimination reached the end.
    /// Return the factors' storage with [`MMatrixLu::recycle`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for empty input, non-finite entries
    /// or a positive off-diagonal entry (not a Z-matrix, so the pivot signs would
    /// say nothing).
    pub fn m_matrix_lu(&self, ws: &mut Workspace) -> Result<ZMatrixLu> {
        let n = self.n;
        if n == 0 {
            return Err(LinalgError::InvalidInput("matrix must be non-empty".into()));
        }
        let (kl, ku, w) = (self.kl, self.ku, self.width());
        for row in self.data.chunks_exact(w) {
            for (offset, x) in row.iter().enumerate() {
                if !x.is_finite() {
                    return Err(LinalgError::InvalidInput(
                        "matrix contains non-finite values".into(),
                    ));
                }
                if offset != kl && *x > 0.0 {
                    return Err(LinalgError::InvalidInput(
                        "Z-matrix test needs every off-diagonal entry <= 0".into(),
                    ));
                }
            }
        }
        let mut data = ws.real_buffer(n * w);
        data.copy_from_slice(&self.data);
        let d = data.as_mut_slice();
        let mut first_non_positive = None;
        // Right-looking elimination without interchanges: row k + t meets
        // column k at packed offset kl − t, and the pivot row's U-part spans
        // offsets kl + 1 ..= kl + ku of row k.
        // urs-analyze: begin(no_alloc)
        for k in 0..n {
            let bl = kl.min(n - 1 - k);
            let u_extent = ku.min(n - 1 - k);
            // urs-analyze: allow(slice_index, reason = "split after row k, k < n, so both halves are in range")
            let (upper, lower) = d.split_at_mut((k + 1) * w);
            // urs-analyze: allow(slice_index, reason = "row k of the working rows, each kl + ku + 1 wide")
            let pivot_row = &upper[k * w..];
            let pivot = pivot_row.get(kl).copied().unwrap_or(f64::NAN);
            if pivot.is_nan() || pivot <= 0.0 {
                let (index, value) = *first_non_positive.get_or_insert((k, pivot));
                // A non-finite pivot, or a zero one with rows left to divide by it,
                // leaves nothing to count.
                if !pivot.is_finite() || (bl > 0 && pivot >= 0.0) {
                    ws.release_real_buffer(data);
                    return Ok(ZMatrixLu::NonPositivePivot { index, value, inertia: None });
                }
            }
            // urs-analyze: allow(slice_index, reason = "U-part of row k: offsets kl+1 ..= kl+u_extent with u_extent ≤ ku")
            let u_row = &pivot_row[kl + 1..kl + 1 + u_extent];
            for (t, row) in lower.chunks_exact_mut(w).take(bl).enumerate() {
                let off = kl - (t + 1);
                let Some(entry) = row.get_mut(off) else { continue };
                let factor = *entry / pivot;
                *entry = factor;
                // urs-analyze: allow(float_cmp, reason = "exact zero skips a no-op update")
                if factor != 0.0 {
                    // urs-analyze: allow(slice_index, reason = "window off+1 ..= off+u_extent ends at kl − t − 1 + u_extent ≤ kl + ku")
                    for (x, &u) in row[off + 1..off + 1 + u_extent].iter_mut().zip(u_row) {
                        *x -= factor * u;
                    }
                }
            }
        }
        // urs-analyze: end(no_alloc)
        let lu = MMatrixLu { n, kl, w, data };
        match first_non_positive {
            None => Ok(ZMatrixLu::MMatrix(lu)),
            Some((index, value)) => {
                let inertia = lu.inertia();
                lu.recycle(ws);
                Ok(ZMatrixLu::NonPositivePivot { index, value, inertia: Some(inertia) })
            }
        }
    }
}

/// Outcome of the unpivoted elimination [`BandedMatrix::m_matrix_lu`].
#[derive(Debug)]
pub enum ZMatrixLu {
    /// Every pivot was positive: the matrix is a nonsingular M-matrix.
    MMatrix(MMatrixLu),
    /// Pivot `index` was the first that was not positive (`value ≤ 0` or NaN); the
    /// leading `index × index` block is a nonsingular M-matrix, the matrix is not.
    NonPositivePivot {
        /// Zero-based index of the first non-positive pivot.
        index: usize,
        /// Its value.
        value: f64,
        /// The signs of all the pivots, or `None` when a zero or non-finite pivot
        /// before the last stopped the elimination.
        inertia: Option<Inertia>,
    },
}

/// The pivots of an unpivoted elimination that ran to its end, summarised for
/// spectrum slicing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inertia {
    /// How many pivots were negative.
    pub negative: usize,
    /// `ln |det|`, the sum of `ln |pivot|` over all pivots (`−∞` when the last
    /// pivot is zero), kept as a logarithm because the determinant of a large
    /// matrix over- or underflows.
    pub log_abs_determinant: f64,
    /// The largest sum `Σₖ |L[i, k]·U[k, i]|` of the updates a diagonal entry
    /// received, relative to the largest diagonal entry of the matrix.  A tiny pivot
    /// makes it huge, and the cancellation that follows can flip the sign of a later
    /// pivot, so the count is only as good as `ε` times this growth allows.
    pub growth: f64,
}

/// `ln Π|xᵢ|` without over- or underflow: the running product is folded into the
/// logarithm whenever it leaves `[1e-150, 1e150]`.
fn log_abs_product(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log, mut product) = (0.0, 1.0_f64);
    for x in values {
        product *= x.abs();
        if !(1e-150..=1e150).contains(&product) {
            log += product.ln();
            product = 1.0;
        }
    }
    log + product.ln()
}

/// The unpivoted factors `A = L·U` of a banded nonsingular M-matrix, `L` unit
/// lower triangular with `L ≤ 0` off its diagonal, stored packed in the band of
/// `A` (multipliers below the diagonal, `U` on and above it).
#[derive(Debug, Clone)]
pub struct MMatrixLu {
    n: usize,
    kl: usize,
    /// Packed row width `kl + ku + 1`; the diagonal sits at offset `kl`.
    w: usize,
    data: Vec<f64>,
}

impl MMatrixLu {
    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The last pivot `U[n−1, n−1]`, the one that reaches zero first as an
    /// M-matrix family approaches singularity.
    pub fn last_pivot(&self) -> f64 {
        self.data.get((self.n - 1) * self.w + self.kl).copied().unwrap_or(f64::NAN)
    }

    /// The [`Inertia`] of the pivots (none is negative for a nonsingular M-matrix).
    pub(crate) fn inertia(&self) -> Inertia {
        let (w, kl) = (self.w, self.kl);
        let pivots = self.data.chunks_exact(w).filter_map(|row| row.get(kl));
        // Row i's diagonal received the updates L[i, k]·U[k, i], k = i − t; U[k, i]
        // sits at offset kl + t of row k.  Both sums and products are unchanged by
        // a diagonal similarity.
        let (mut updates, mut diagonal) = (0.0_f64, 0.0_f64);
        for (i, row) in self.data.chunks_exact(w).enumerate() {
            let (mut sum, mut signed) = (0.0, 0.0);
            for t in 1..=kl.min(i) {
                let l = row.get(kl - t).copied().unwrap_or(0.0);
                let u = self.data.get((i - t) * w + kl + t).copied().unwrap_or(0.0);
                sum += (l * u).abs();
                signed += l * u;
            }
            updates = updates.max(sum);
            diagonal = diagonal.max((row.get(kl).copied().unwrap_or(0.0) + signed).abs());
        }
        Inertia {
            negative: pivots.clone().filter(|p| **p < 0.0).count(),
            log_abs_determinant: log_abs_product(pivots.copied()),
            growth: updates / diagonal,
        }
    }

    /// Writes the row vector `u = e_{n−1}ᵀ·L⁻¹` into `out`, allocation-free.
    ///
    /// `u·A = e_{n−1}ᵀ·U = (0, …, 0, U[n−1, n−1])`, so `u` is a left null vector
    /// of `A − U[n−1, n−1]·e_{n−1}·e_{n−1}ᵀ` and approaches one of `A` as the last
    /// pivot vanishes.  Its last entry is 1 and, because `L⁻¹ ≥ 0` for an M-matrix
    /// factor, every entry is non-negative by construction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless `out.len() == dim()`.
    pub fn last_row_of_l_inverse_into(&self, out: &mut [f64]) -> Result<()> {
        let n = self.n;
        if out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "last row of the inverse unit-lower factor",
                left: (n, n),
                right: (1, out.len()),
            });
        }
        out.fill(0.0);
        if let Some(last) = out.last_mut() {
            *last = 1.0;
        }
        // Solve u·L = e_{n−1}ᵀ row by row from the bottom: once u_k is final,
        // row k of L scatters −L[k, i]·u_k into every u_i with k − kl ≤ i < k.
        // urs-analyze: begin(no_alloc)
        for k in (1..n).rev() {
            let (head, tail) = out.split_at_mut(k);
            let Some(&uk) = tail.first() else { continue };
            // urs-analyze: allow(float_cmp, reason = "exact zero skips a no-op scatter")
            if uk == 0.0 {
                continue;
            }
            let bl = self.kl.min(k);
            let row_start = k * self.w + self.kl - bl;
            let Some(multipliers) = self.data.get(row_start..row_start + bl) else { continue };
            // urs-analyze: allow(slice_index, reason = "k − bl ≥ 0 and the slice ends at k = head.len()")
            for (ui, &l) in head[k - bl..].iter_mut().zip(multipliers) {
                *ui -= l * uk;
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(())
    }

    /// Returns the working storage to `ws` for reuse.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.release_real_buffer(self.data);
    }
}

/// A banded LU factorisation `P·A = L·U` with partial pivoting, stored packed.
///
/// Pivoting widens `U` by up to `kl` extra superdiagonals (the classic fill of
/// `gbtrf`), so the working rows have width `kl + min(kl + ku, n − 1) + 1`; the
/// factor never touches — and never allocates — anything outside that window.
/// Multipliers are stored in the packed slot where they were created (rows are
/// *not* L-swapped) and the recorded interchanges are replayed inside the
/// solves, which makes every solve bit-identical to the dense
/// [`LuDecomposition`](crate::LuDecomposition) on the same matrix (module docs
/// give the argument and the `-0.0` caveat).
///
/// # Example
///
/// ```
/// use urs_linalg::BandedMatrix;
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = BandedMatrix::from_fn(3, 1, 1, |i, j| if i == j { 2.0 } else { 1.0 });
/// let lu = a.lu()?;
/// let mut x = [0.0; 3];
/// lu.solve_into(&[3.0, 4.0, 3.0], &mut x)?;
/// assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BandedLu {
    n: usize,
    /// Subdiagonals of `A` (multiplier window height).
    kl: usize,
    /// Superdiagonals of `U` including pivoting fill: `min(kl + ku, n − 1)`.
    bw: usize,
    /// Packed working rows of width `kl + bw + 1`, diagonal at offset `kl`.
    data: Vec<f64>,
    /// `piv[k]` is the row exchanged with row `k` at elimination step `k`.
    piv: Vec<usize>,
    perm_sign: f64,
    singular_at: Option<usize>,
}

impl BandedLu {
    /// Factorises a banded matrix, rejecting singular input.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for empty or non-finite input and
    /// [`LinalgError::Singular`] when a pivot underflows — with the same pivot
    /// index the dense factorisation reports.
    pub fn new(a: &BandedMatrix) -> Result<Self> {
        let lu = Self::factor_allow_singular(a, None)?;
        if let Some(pivot) = lu.singular_at {
            return Err(LinalgError::Singular { pivot });
        }
        Ok(lu)
    }

    /// [`new`](Self::new) with the working storage borrowed from `ws`; return
    /// it with [`recycle`](Self::recycle) so a refactorising hot loop performs
    /// no steady-state allocation (the pivot vector is retained inside the
    /// returned value and recycled with the storage).
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn new_pooled(a: &BandedMatrix, ws: &mut Workspace) -> Result<Self> {
        let lu = Self::factor_allow_singular(a, Some(ws))?;
        if let Some(pivot) = lu.singular_at {
            let pivot_err = pivot;
            lu.recycle(ws);
            return Err(LinalgError::Singular { pivot: pivot_err });
        }
        Ok(lu)
    }

    /// Factorises a banded matrix, tolerating exactly singular input (the
    /// decomposition still yields [`determinant`](Self::determinant) `= 0`;
    /// solves return [`LinalgError::Singular`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for empty or non-finite input.
    pub fn new_allow_singular(a: &BandedMatrix) -> Result<Self> {
        Self::factor_allow_singular(a, None)
    }

    /// Returns the working storage to `ws` for reuse.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.release_real_buffer(self.data);
    }

    fn factor_allow_singular(a: &BandedMatrix, ws: Option<&mut Workspace>) -> Result<Self> {
        let n = a.n;
        if n == 0 {
            return Err(LinalgError::InvalidInput("matrix must be non-empty".into()));
        }
        if !a.data.iter().all(|x| x.is_finite()) {
            return Err(LinalgError::InvalidInput("matrix contains non-finite values".into()));
        }
        let kl = a.kl;
        let bw = (a.kl + a.ku).min(n - 1);
        let w = kl + bw + 1;
        let aw = a.width();
        let mut data = match ws {
            Some(ws) => ws.real_buffer(n * w),
            None => vec![0.0; n * w],
        };
        // Copy the band into the widened working rows; the extra `bw − ku`
        // fill columns start as exact zeros, as they are in the dense factor.
        for i in 0..n {
            let j0 = i.saturating_sub(a.kl);
            let j1 = (i + a.ku + 1).min(n);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            data[i * w + (j0 + kl - i)..i * w + (j1 - 1 + kl - i) + 1].copy_from_slice(
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                &a.data[i * aw + (j0 + a.kl - i)..i * aw + (j1 - 1 + a.kl - i) + 1],
            );
        }
        let mut piv = Vec::with_capacity(n);
        let mut perm_sign = 1.0;
        let mut singular_at = None;
        let d = data.as_mut_slice();

        // Unblocked right-looking elimination (the dense blocked kernel is
        // bit-identical to this order by construction); only rows k..k+kl can
        // hold nonzeros in column k, so the pivot search and the update stop
        // at the band edge.
        // urs-analyze: begin(no_alloc)
        for k in 0..n {
            let bl = kl.min(n - 1 - k);
            let u_extent = bw.min(n - 1 - k);
            // Pivot search down column k: the candidate in row k+t sits at
            // packed offset kl − t.  Strict `>` matches the dense search, and
            // the dense candidates below the band are exact zeros which a
            // strict `>` against a non-negative running max never selects.
            let mut pivot_t = 0usize;
            // urs-analyze: allow(slice_index, reason = "row k, diagonal slot kl: in range because every working row has width kl + bw + 1")
            let mut pivot_val = d[k * w + kl].abs();
            for t in 1..=bl {
                // urs-analyze: allow(slice_index, reason = "row k+t ≤ n−1 and column offset kl − t ≥ 0 by the loop bound bl = min(kl, n−1−k)")
                let v = d[(k + t) * w + kl - t].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_t = t;
                }
            }
            piv.push(k + pivot_t);
            if pivot_t != 0 {
                // Exchange only the U-parts (columns k..=k+u_extent); the
                // multipliers already stored to the left stay in place and the
                // solves replay the interchange instead.
                let t = pivot_t;
                // urs-analyze: allow(slice_index, reason = "rows k and k+t are distinct and in range; split at the later row start")
                let (head, tail) = d.split_at_mut((k + t) * w);
                // urs-analyze: allow(slice_index, reason = "U-part of row k: offsets kl..=kl+u_extent fit the working width kl + bw + 1")
                let row_k = &mut head[k * w + kl..k * w + kl + u_extent + 1];
                // urs-analyze: allow(slice_index, reason = "U-part of row k+t: offsets kl−t..=kl−t+u_extent; kl ≥ t and u_extent ≤ bw keep both ends in the row")
                let row_t = &mut tail[kl - t..kl - t + u_extent + 1];
                row_k.swap_with_slice(row_t);
                perm_sign = -perm_sign;
            }
            // urs-analyze: allow(slice_index, reason = "diagonal slot of row k, in range as above")
            let pivot = d[k * w + kl];
            if pivot.abs() < PIVOT_EPS {
                if singular_at.is_none() {
                    singular_at = Some(k);
                }
                continue;
            }
            if bl == 0 {
                continue;
            }
            // Multipliers and the rank-1 update of the rows below, each
            // against the pivot row's U-part — identical per-row arithmetic to
            // the dense elimination, restricted to the band.
            // urs-analyze: allow(slice_index, reason = "split between row k and row k+1; both sides non-empty because bl ≥ 1")
            let (upper, lower) = d.split_at_mut((k + 1) * w);
            // urs-analyze: allow(slice_index, reason = "pivot row U-part beyond the diagonal: offsets kl+1..=kl+u_extent within the working width")
            let u_row = &upper[k * w + kl + 1..k * w + kl + u_extent + 1];
            for (t, row) in lower.chunks_exact_mut(w).take(bl).enumerate() {
                let off = kl - (t + 1);
                // urs-analyze: allow(slice_index, reason = "column-k slot of row k+t+1 at offset kl−(t+1) ≥ 0 since t+1 ≤ bl ≤ kl")
                let factor = row[off] / pivot;
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                row[off] = factor;
                // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip path; bitwise test is part of the bit-identity contract")
                if factor != 0.0 {
                    // urs-analyze: allow(slice_index, reason = "update window off+1..=off+u_extent stays within the row: off + u_extent ≤ kl + bw")
                    for (x, &u) in row[off + 1..off + u_extent + 1].iter_mut().zip(u_row) {
                        *x -= factor * u;
                    }
                }
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(BandedLu { n, kl, bw, data, piv, perm_sign, singular_at })
    }

    /// Dimension of the factorised matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matrix was found to be singular.
    pub fn is_singular(&self) -> bool {
        self.singular_at.is_some()
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        if self.singular_at.is_some() {
            return 0.0;
        }
        let w = self.kl + self.bw + 1;
        let mut det = self.perm_sign;
        for i in 0..self.n {
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            det *= self.data[i * w + self.kl];
        }
        det
    }

    /// The determinant as `(sign, ln |det|)`, which neither over- nor underflows;
    /// `(0, −∞)` for a singular matrix.
    pub(crate) fn signed_log_determinant(&self) -> (f64, f64) {
        if self.singular_at.is_some() {
            return (0.0, f64::NEG_INFINITY);
        }
        let w = self.kl + self.bw + 1;
        let pivots = || self.data.chunks_exact(w).filter_map(|row| row.get(self.kl)).copied();
        let negative = pivots().filter(|p| *p < 0.0).count();
        let sign = if negative % 2 == 0 { self.perm_sign } else { -self.perm_sign };
        (sign, log_abs_product(pivots()))
    }

    fn ensure_regular(&self) -> Result<()> {
        if let Some(pivot) = self.singular_at {
            return Err(LinalgError::Singular { pivot });
        }
        Ok(())
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve_into`](Self::solve_into).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided buffer (no allocation).
    ///
    /// The recorded interchanges are replayed in elimination order, so each
    /// logical row receives exactly the multiplier subtractions — in the same
    /// ascending column order — that the dense solve applies after its
    /// up-front permutation; the back-substitution then runs row-oriented like
    /// the dense one, restricted to the `U` band.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix was singular, or
    /// [`LinalgError::DimensionMismatch`] on wrong lengths.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        self.ensure_regular()?;
        self.check_lengths(b.len(), x.len())?;
        self.substitute(b, x, None);
        Ok(())
    }

    /// Smallest pivot modulus of the factorisation; a small value indicates
    /// (near) singularity.
    pub fn smallest_pivot(&self) -> f64 {
        let w = self.kl + self.bw + 1;
        self.data
            .chunks_exact(w)
            .filter_map(|row| row.get(self.kl))
            .fold(f64::INFINITY, |m, d| m.min(d.abs()))
    }

    /// Solves `(A with tiny pivots floored) x = b` — the inverse-iteration
    /// kernel: `U` diagonals below `floor` in modulus are replaced by `floor`,
    /// so the solve amplifies the null-space direction instead of overflowing.
    /// Deterministic: the floor is applied per element by value.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on wrong lengths or
    /// [`LinalgError::InvalidInput`] for a non-positive floor.
    pub fn solve_regularized_into(&self, b: &[f64], x: &mut [f64], floor: f64) -> Result<()> {
        if floor.is_nan() || floor <= 0.0 {
            return Err(LinalgError::InvalidInput("regularization floor must be positive".into()));
        }
        self.check_lengths(b.len(), x.len())?;
        self.substitute(b, x, Some(floor));
        Ok(())
    }

    fn check_lengths(&self, b: usize, x: usize) -> Result<()> {
        if b != self.n || x != self.n {
            return Err(LinalgError::DimensionMismatch {
                operation: "banded LU solve",
                left: (self.n, self.n),
                right: (b.max(x), 1),
            });
        }
        Ok(())
    }

    /// Forward/backward substitution shared by the exact and regularized
    /// solves; `floor` is `None` for the exact path.
    fn substitute(&self, b: &[f64], x: &mut [f64], floor: Option<f64>) {
        let n = self.n;
        let w = self.kl + self.bw + 1;
        let d = &self.data;
        x.copy_from_slice(b);
        // urs-analyze: begin(no_alloc)
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                x.swap(k, p);
            }
            let bl = self.kl.min(n - 1 - k);
            // urs-analyze: allow(slice_index, reason = "x[k] read after the interchange; k < n by the loop bound")
            let xk = x[k];
            for t in 1..=bl {
                // urs-analyze: allow(slice_index, reason = "multiplier of row k+t for column k at packed offset kl − t, in range as in the factorisation")
                let l = d[(k + t) * w + self.kl - t];
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                x[k + t] -= l * xk;
            }
        }
        for i in (0..n).rev() {
            let u_extent = self.bw.min(n - 1 - i);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let row = &d[i * w + self.kl..i * w + self.kl + u_extent + 1];
            // urs-analyze: allow(slice_index, reason = "x[i] with i < n; the zip below bounds the U traversal to u_extent terms")
            let mut sum = x[i];
            // urs-analyze: allow(slice_index, reason = "x[i+1..i+1+u_extent] is in range because i + u_extent ≤ n − 1")
            for (u, &xj) in row[1..].iter().zip(x[i + 1..].iter()) {
                sum -= u * xj;
            }
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let mut diag = row[0];
            if let Some(f) = floor {
                if diag.abs() < f {
                    diag = f;
                }
            }
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            x[i] = sum / diag;
        }
        // urs-analyze: end(no_alloc)
    }

    /// Solves `A X = B` into a caller-provided matrix (no allocation) with
    /// whole-row operations — the banded twin of the dense
    /// [`solve_matrix_into`](crate::LuDecomposition::solve_matrix_into),
    /// including its `≠ 0` skips, with interchanges replayed in elimination
    /// order.
    ///
    /// # Errors
    ///
    /// Same as [`solve_into`](Self::solve_into), plus shape checks on `B` and
    /// `out`.
    pub fn solve_matrix_into(&self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        self.ensure_regular()?;
        let n = self.n;
        if b.rows() != n || out.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "banded LU matrix solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        let m = b.cols();
        out.copy_from(b)?;
        let w = self.kl + self.bw + 1;
        let d = &self.data;
        let x = out.as_mut_slice();
        // urs-analyze: begin(no_alloc)
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                // urs-analyze: allow(slice_index, reason = "rows k < p < n of the RHS; disjoint slices via split at p·m")
                let (head, tail) = x.split_at_mut(p * m);
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                head[k * m..(k + 1) * m].swap_with_slice(&mut tail[..m]);
            }
            let bl = self.kl.min(n - 1 - k);
            if bl == 0 {
                continue;
            }
            // urs-analyze: allow(slice_index, reason = "split between RHS rows k and k+1, both in range since bl ≥ 1")
            let (upper, lower) = x.split_at_mut((k + 1) * m);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let xk = &upper[k * m..];
            for (t, xrow) in lower.chunks_exact_mut(m).take(bl).enumerate() {
                // urs-analyze: allow(slice_index, reason = "multiplier slot of row k+t+1 at offset kl − (t+1), in range as in the factorisation")
                let l = d[(k + t + 1) * w + self.kl - (t + 1)];
                // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip path; bitwise test is part of the bit-identity contract")
                if l != 0.0 {
                    for (xt, &v) in xrow.iter_mut().zip(xk) {
                        *xt -= l * v;
                    }
                }
            }
        }
        for i in (0..n).rev() {
            let u_extent = self.bw.min(n - 1 - i);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let row = &d[i * w + self.kl..i * w + self.kl + u_extent + 1];
            // urs-analyze: allow(slice_index, reason = "split between RHS rows i and i+1; i < n by the loop bound")
            let (head, tail) = x.split_at_mut((i + 1) * m);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let xi = &mut head[i * m..];
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            for (j, u) in row[1..].iter().enumerate() {
                // urs-analyze: allow(float_cmp, reason = "exact zero gates the zero-skip path; bitwise test is part of the bit-identity contract")
                if *u != 0.0 {
                    // urs-analyze: allow(slice_index, reason = "RHS row i+1+j with j < u_extent, hence i+1+j ≤ n−1")
                    let xj = &tail[j * m..(j + 1) * m];
                    for (t, &v) in xi.iter_mut().zip(xj) {
                        *t -= u * v;
                    }
                }
            }
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let inv = row[0];
            for t in xi.iter_mut() {
                *t /= inv;
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuDecomposition;

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }
    }

    fn random_banded(n: usize, kl: usize, ku: usize, seed: u64) -> BandedMatrix {
        let mut next = rng(seed);
        BandedMatrix::from_fn(n, kl, ku, |i, j| {
            let v = next();
            if i == j {
                v + 4.0
            } else {
                v
            }
        })
    }

    #[test]
    fn packing_round_trips_and_rejects_out_of_band() {
        let a = random_banded(7, 2, 3, 1);
        let dense = a.to_dense();
        let packed = BandedMatrix::from_dense(&dense, 2, 3).unwrap();
        assert_eq!(packed, a);
        assert_eq!(BandedMatrix::bandwidths_of(&dense), (2, 3));
        let mut bad = dense.clone();
        bad[(6, 0)] = 1.0;
        assert!(matches!(BandedMatrix::from_dense(&bad, 2, 3), Err(LinalgError::InvalidInput(_))));
    }

    #[test]
    fn matvec_and_gemm_match_dense_bitwise() {
        for &(n, kl, ku) in &[(1usize, 0usize, 0usize), (5, 0, 2), (6, 3, 0), (9, 2, 2), (8, 7, 7)]
        {
            let a = random_banded(n, kl, ku, 7 + n as u64);
            let dense = a.to_dense();
            let mut next = rng(99);
            let v: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut y = vec![0.0; n];
            a.matvec_into(&v, &mut y).unwrap();
            let yd = dense.matvec(&v).unwrap();
            for (b, d) in y.iter().zip(&yd) {
                assert_eq!(b.to_bits(), d.to_bits());
            }
            let b = Matrix::from_fn(n, 4, |_, _| next());
            let mut c = Matrix::from_fn(n, 4, |_, _| next());
            let mut cd = c.clone();
            a.gemm_into(1.5, &b, 0.5, &mut c).unwrap();
            cd.gemm(1.5, &dense, &b, 0.5).unwrap();
            for (x, y) in c.as_slice().iter().zip(cd.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn factor_and_solves_match_dense_bitwise() {
        for &(n, kl, ku) in
            &[(1usize, 0usize, 0usize), (4, 1, 1), (7, 0, 3), (7, 3, 0), (12, 2, 4), (10, 9, 9)]
        {
            let a = random_banded(n, kl, ku, 31 + 3 * n as u64 + ku as u64);
            let dense = a.to_dense();
            let blu = a.lu().unwrap();
            let dlu = LuDecomposition::new(&dense).unwrap();
            assert_eq!(blu.determinant().to_bits(), dlu.determinant().to_bits());
            let mut next = rng(5);
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut xb = vec![0.0; n];
            let mut xd = vec![0.0; n];
            blu.solve_into(&b, &mut xb).unwrap();
            dlu.solve_into(&b, &mut xd).unwrap();
            for (p, q) in xb.iter().zip(&xd) {
                assert_eq!(p.to_bits(), q.to_bits(), "n={n} kl={kl} ku={ku}");
            }
            let bm = Matrix::from_fn(n, 3, |_, _| next());
            let mut ob = Matrix::zeros(n, 3);
            let mut od = Matrix::zeros(n, 3);
            blu.solve_matrix_into(&bm, &mut ob).unwrap();
            dlu.solve_matrix_into(&bm, &mut od).unwrap();
            for (p, q) in ob.as_slice().iter().zip(od.as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits(), "n={n} kl={kl} ku={ku}");
            }
        }
    }

    #[test]
    fn pivoting_is_exercised_and_still_matches_dense() {
        // Leading entry much smaller than the subdiagonal forces interchanges.
        let n = 8;
        let a = BandedMatrix::from_fn(n, 2, 1, |i, j| {
            if i == j {
                1e-3
            } else {
                1.0 + (i * 7 + j) as f64 * 0.1
            }
        });
        let dense = a.to_dense();
        let blu = a.lu().unwrap();
        let dlu = LuDecomposition::new(&dense).unwrap();
        assert_eq!(blu.determinant().to_bits(), dlu.determinant().to_bits());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.3).collect();
        let xb = blu.solve(&b).unwrap();
        let xd = dlu.solve(&b).unwrap();
        for (p, q) in xb.iter().zip(&xd) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn singular_semantics_match_dense() {
        // Two proportional rows inside the band → singular at the same pivot.
        let mut a = BandedMatrix::zeros(3, 1, 1);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        a.set(2, 2, 1.0);
        let dense = a.to_dense();
        let db = BandedLu::new(&a).unwrap_err();
        let dd = LuDecomposition::new(&dense).unwrap_err();
        match (db, dd) {
            (LinalgError::Singular { pivot: p }, LinalgError::Singular { pivot: q }) => {
                assert_eq!(p, q)
            }
            other => panic!("expected Singular twins, got {other:?}"),
        }
        let lu = BandedLu::new_allow_singular(&a).unwrap();
        assert!(lu.is_singular());
        assert_eq!(lu.determinant(), 0.0);
        assert!(lu.solve(&[1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn pooled_factorisation_recycles_storage() {
        let mut ws = Workspace::new();
        let a = random_banded(6, 1, 2, 11);
        let lu = BandedLu::new_pooled(&a, &mut ws).unwrap();
        let x = lu.solve(&[1.0; 6]).unwrap();
        let direct = a.lu().unwrap().solve(&[1.0; 6]).unwrap();
        for (p, q) in x.iter().zip(&direct) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        lu.recycle(&mut ws);
        assert_eq!(ws.pooled(), 1);
    }

    /// `−K(z) = −(λI/z + Q1 + z·C)` of a small quasi-birth-death process: a
    /// tridiagonal mode-change generator `A` and per-mode service rates `C`.
    /// Returns the band (off-diagonals `−A`, diagonal filled per `z`), `Dᴬ`, `C`
    /// and the in-disk roots of `det(λI + Q1·z + C·z²)` from spectrum slicing,
    /// ascending, each certified independently: the dense pivoted determinant of
    /// `Q(z)` changes sign across it and its dense null vector has a small
    /// residual.  The environment's mean service capacity is about 1.43, so
    /// `λ < 1.43` keeps the queue stable and the roots inside `(0, 1)`.
    fn qbd_family(lambda: f64) -> (BandedMatrix, Vec<f64>, Vec<f64>, Vec<f64>) {
        use crate::quadratic::QuadraticEigenProblem;
        let n = 5;
        let a = BandedMatrix::from_fn(n, 1, 1, |i, j| {
            if i == j {
                0.0
            } else if j > i {
                0.3 + 0.1 * i as f64
            } else {
                0.5 + 0.05 * j as f64
            }
        });
        let da: Vec<f64> = (0..n).map(|i| (0..n).map(|j| a.get(i, j)).sum()).collect();
        let c: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let q1 = Matrix::from_fn(
            n,
            n,
            |i, j| {
                if i == j {
                    -(da[i] + lambda + c[i])
                } else {
                    a.get(i, j)
                }
            },
        );
        let q = |z: f64| {
            Matrix::from_fn(n, n, |i, j| {
                q1[(i, j)] * z + if i == j { lambda + c[i] * z * z } else { 0.0 }
            })
        };
        let problem = QuadraticEigenProblem::new(
            Matrix::identity(n).scale(lambda),
            q1.clone(),
            Matrix::from_diagonal(&c),
        )
        .unwrap();
        let roots: Vec<f64> =
            problem.eigenvalues_inside_unit_disk(1e-9).unwrap().iter().map(|e| e.z.re).collect();
        assert_eq!(roots.len(), n);
        for &z in &roots {
            let det = |z: f64| LuDecomposition::new_allow_singular(&q(z)).unwrap().determinant();
            let (below, above) = (det(z * (1.0 - 1e-9)), det(z * (1.0 + 1e-9)));
            assert!(below * above < 0.0, "no sign change across {z}: {below}, {above}");
            let u = LuDecomposition::new_allow_singular(&q(z).transpose())
                .unwrap()
                .null_vector()
                .unwrap();
            let residual = q(z).transpose().matvec(&u).unwrap();
            assert!(residual.iter().all(|r| r.abs() < 1e-9), "{z}: {residual:?}");
        }
        let mut minus_k = BandedMatrix::zeros(n, 1, 1);
        for i in 0..n {
            for j in i.saturating_sub(1)..(i + 2).min(n) {
                if i != j {
                    minus_k.set(i, j, -a.get(i, j));
                }
            }
        }
        (minus_k, da, c, roots)
    }

    #[test]
    fn positive_pivots_bracket_the_dominant_root() {
        let lambda = 1.0;
        let (mut minus_k, da, c, roots) = qbd_family(lambda);
        let eta = roots.last().copied().unwrap();
        assert!(eta > 0.05 && eta < 0.999, "η = {eta}");
        let mut ws = Workspace::new();
        for step in 1..200 {
            let z = step as f64 / 200.0;
            if roots.iter().any(|r| (z - r).abs() < 1e-9) {
                continue;
            }
            minus_k
                .set_diagonal(da.iter().zip(&c).map(|(da, c)| da + (1.0 - z) * (c - lambda / z)));
            // Sylvester: the negative pivots count the roots above z.
            let above = roots.iter().filter(|r| **r > z).count();
            let positive = match minus_k.m_matrix_lu(&mut ws).unwrap() {
                ZMatrixLu::MMatrix(lu) => {
                    assert!(lu.last_pivot() > 0.0);
                    assert_eq!(lu.inertia().negative, 0);
                    lu.recycle(&mut ws);
                    true
                }
                ZMatrixLu::NonPositivePivot { value, inertia, .. } => {
                    assert!(value <= 0.0);
                    assert_eq!(inertia.map(|i| i.negative), Some(above), "z = {z}");
                    false
                }
            };
            assert_eq!(positive, z > eta, "z = {z}, η = {eta}");
        }
        // The buffer of the last factorisation was recycled, not leaked.
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn last_row_of_l_inverse_is_a_non_negative_left_null_vector() {
        let lambda = 1.0;
        let (mut minus_k, da, c, roots) = qbd_family(lambda);
        let z = roots.last().copied().unwrap() * (1.0 + 1e-12);
        minus_k.set_diagonal(da.iter().zip(&c).map(|(da, c)| da + (1.0 - z) * (c - lambda / z)));
        let ZMatrixLu::MMatrix(lu) = minus_k.m_matrix_lu(&mut Workspace::new()).unwrap() else {
            panic!("−K(z) must be an M-matrix just above η");
        };
        let mut u = vec![0.0; lu.dim()];
        lu.last_row_of_l_inverse_into(&mut u).unwrap();
        assert_eq!(u.last().copied(), Some(1.0));
        assert!(u.iter().all(|x| *x >= 0.0), "{u:?}");
        // u·(−K) = (0, …, 0, last pivot): check against the unfactored matrix.
        let dense = minus_k.to_dense();
        let n = u.len();
        for j in 0..n {
            let uk: f64 = (0..n).map(|i| u[i] * dense[(i, j)]).sum();
            let want = if j + 1 == n { lu.last_pivot() } else { 0.0 };
            assert!((uk - want).abs() < 1e-12, "column {j}: {uk} vs {want}");
        }
        assert!(lu.last_pivot().abs() < 1e-9);
        assert!(lu.last_row_of_l_inverse_into(&mut [0.0; 2]).is_err());
    }

    #[test]
    fn m_matrix_test_rejects_non_z_matrices() {
        let mut ws = Workspace::new();
        let positive_off_diagonal =
            BandedMatrix::from_fn(3, 1, 1, |i, j| if i == j { 2.0 } else { 0.5 });
        assert!(positive_off_diagonal.m_matrix_lu(&mut ws).is_err());
        let mut non_finite = BandedMatrix::from_fn(3, 1, 1, |i, j| if i == j { 2.0 } else { -0.5 });
        non_finite.set(1, 1, f64::NAN);
        assert!(non_finite.m_matrix_lu(&mut ws).is_err());
        assert!(BandedMatrix::zeros(0, 0, 0).m_matrix_lu(&mut ws).is_err());
        // A singular M-matrix (zero row sums) stops at its last pivot.
        let singular = BandedMatrix::from_fn(3, 1, 1, |i, j| match (i, j) {
            (0, 0) | (2, 2) => 1.0,
            (1, 1) => 2.0,
            _ => -1.0,
        });
        match singular.m_matrix_lu(&mut ws).unwrap() {
            ZMatrixLu::NonPositivePivot { index, value, inertia } => {
                assert_eq!(index, 2);
                assert!(value.abs() < 1e-15);
                // The last pivot may be zero: the elimination still ran to its end.
                assert_eq!(inertia.map(|i| i.negative), Some(0));
            }
            ZMatrixLu::MMatrix(_) => panic!("a singular matrix is not a nonsingular M-matrix"),
        }
    }

    #[test]
    fn negative_pivots_are_counted_and_a_zero_pivot_stops_the_count() {
        let mut ws = Workspace::new();
        // diag(−1, 2, −3) plus a weak coupling: two negative pivots, |det| ≈ 6.
        let a = BandedMatrix::from_fn(3, 1, 1, |i, j| match (i, j) {
            (0, 0) => -1.0,
            (1, 1) => 2.0,
            (2, 2) => -3.0,
            _ => -0.01,
        });
        let ZMatrixLu::NonPositivePivot { index, inertia: Some(inertia), .. } =
            a.m_matrix_lu(&mut ws).unwrap()
        else {
            panic!("the elimination must run through negative pivots");
        };
        assert_eq!((index, inertia.negative), (0, 2));
        let det = LuDecomposition::new(&a.to_dense()).unwrap().determinant();
        assert!((inertia.log_abs_determinant - det.abs().ln()).abs() < 1e-14);
        assert!(inertia.growth < 1e-3, "a weak coupling barely updates the diagonal");
        // An exact zero pivot with rows still to eliminate leaves no count.
        let mut zero = a.clone();
        zero.set(0, 0, 0.0);
        let ZMatrixLu::NonPositivePivot { index, value, inertia } =
            zero.m_matrix_lu(&mut ws).unwrap()
        else {
            panic!("a zero pivot is not positive");
        };
        assert_eq!((index, value, inertia), (0, 0.0, None));
        // Every buffer went back to the workspace.
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn dimension_checks_reject_mismatches() {
        let a = random_banded(4, 1, 1, 3);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&[1.0; 3]).is_err());
        let mut y = [0.0; 3];
        assert!(a.matvec_into(&[1.0; 4], &mut y).is_err());
        assert!(BandedLu::new(&BandedMatrix::zeros(0, 0, 0)).is_err());
    }

    #[test]
    fn regularized_solve_recovers_null_direction() {
        // A genuinely near-singular tridiagonal: row 2 and column 2 are isolated
        // and their shared diagonal entry is ~1e-14, so e_2 is nearly a null vector.
        let n = 5;
        let mut a = random_banded(n, 1, 1, 77);
        a.set(2, 2, 1e-14);
        for (i, j) in [(2, 1), (2, 3), (1, 2), (3, 2)] {
            a.set(i, j, 0.0);
        }
        let lu = BandedLu::new_allow_singular(&a).unwrap();
        assert!(lu.smallest_pivot() < 1e-10);
        let ones = vec![1.0; n];
        let mut x = vec![0.0; n];
        lu.solve_regularized_into(&ones, &mut x, 1e-12).unwrap();
        let max = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        // The solution is dominated by the near-null direction.
        assert!(max > 1e6, "max = {max}");
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(lu.solve_regularized_into(&ones, &mut x, 0.0).is_err());
    }
}
