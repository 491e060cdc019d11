//! Real dense and banded linear algebra for the `unreliable-servers` workspace.
//!
//! The crates in this workspace reproduce the queueing analysis of Palmer & Mitrani,
//! *Empirical and Analytical Evaluation of Systems with Multiple Unreliable Servers*
//! (DSN 2006).  The spectral-expansion solution of a Markov-modulated queue needs a
//! small but complete set of dense numerical kernels:
//!
//! * real matrices with LU factorisation, determinants, inverses, linear solves and
//!   null-vector extraction ([`Matrix`], [`LuDecomposition`]),
//! * the Cholesky factorisation of symmetric positive-definite matrices with its
//!   lower solve ([`Cholesky`]) and the one-triangle Gram product
//!   ([`Matrix::gram_with`]), the kernels of the symmetric cyclic reduction,
//! * eigenpairs of real symmetric matrices by cyclic Jacobi ([`symmetric_eigen`]),
//! * the roots of the characteristic quadratic `Q0 + Q1 z + Q2 z^2` of a
//!   quasi-birth–death process in `(0, 1)` by spectrum slicing — one unpivoted banded
//!   elimination counts the roots above a point, and each isolated root is refined
//!   by a safeguarded secant ([`CaudalFamily`], [`QuadraticEigenProblem`]),
//! * a real block-tridiagonal solver with diagonal couplings for the boundary
//!   equations of quasi-birth-death processes ([`RealBlockTridiagonal`]),
//! * packed band storage with banded matvec/gemm and banded LU
//!   ([`BandedMatrix`]/[`BandedLu`]), bit-identical to the dense kernels on the same
//!   nonzero pattern, with the [`banded_profitable`] crossover rule deciding when
//!   solvers route through them,
//! * allocation-free in-place kernels — `gemm`-style multiply-accumulate
//!   ([`Matrix::gemm`]), blocked LU with the `solve_*_into` family — backed by a
//!   reusable [`Workspace`] scratch-buffer pool so the solvers' hot loops allocate
//!   nothing,
//! * an intra-solve worker pool ([`ThreadPool`], module [`parallel`]): the `*_with`
//!   kernel variants ([`Matrix::gemm_with`], [`LuDecomposition::from_matrix_with`],
//!   [`LuDecomposition::solve_right_matrix_into_with`], …) partition independent
//!   output rows across workers while keeping every per-element accumulation order
//!   fixed, so results are **bit-identical at any thread count**.
//!
//! Every kernel works in real arithmetic.  The queueing model's mode process is
//! reversible, so its resolvents symmetrise and its characteristic roots are real;
//! [`Complex`] survives only as the scalar type of Laplace-transform values and of
//! the roots [`QuadraticEigenProblem::eigenvalues_inside_unit_disk`] reports (with
//! zero imaginary part).
//!
//! Everything is implemented from scratch on top of `std`; no external BLAS/LAPACK
//! bindings are used, which keeps the workspace buildable in fully offline
//! environments.
//!
//! # Paper map
//!
//! This crate is the numerical engine behind the paper's Section 3: the quadratic
//! eigenproblem of the characteristic polynomial `Q(z)` (§3.1, spectral expansion)
//! lives in [`QuadraticEigenProblem`], and the boundary balance equations are solved
//! through [`RealBlockTridiagonal`].  Everything here is immutable once constructed and
//! safe to share across the worker threads of `urs_core`'s parallel sweeps.
//!
//! | API | Role in the reproduction |
//! |---|---|
//! | [`Matrix::gemm`] | tiled multiply-accumulate behind every solver product (§3.1 matrices are sparse bands — zero rows are skipped), including the response-time level recursion |
//! | [`LuDecomposition`] | blocked LU with partial pivoting, the textbook elimination bit for bit: 16-column panels (32 on a pool) eliminated in a column-major copy, the panel rows' `U12` and the trailing `A22 − L21·U12` through the fused four-row kernel, the textbook loop itself up to 40 rows (measured crossover); `solve_into` / `solve_matrix_into` / `solve_right_matrix_into` replace every explicit inverse; `null_vector` is the dense eigenvector fallback |
//! | [`symmetric_eigen`] | deterministic cyclic-Jacobi eigenpairs of the symmetrised response-time resolvents, so each transform evaluation is a diagonal scaling between real products |
//! | [`Cholesky`] + [`Matrix::gram_with`] | blocked Cholesky `−A₀ = L·Lᵀ` (16-row panels: only the diagonal block unblocked, the panel's right part and the trailing rows through the fused kernel), the column-banded lower solve `L⁻¹·B` and the Gram product `Zᵀ·Z` computed as one triangle (bitwise equal to the full `gemm`): one symmetric cyclic-reduction step of the `R` matrix at ≈ 6⅓·s³ flops |
//! | [`Workspace`] | scratch-buffer pool so the `R`-matrix cyclic reduction and the boundary elimination allocate nothing per iteration |
//! | [`ThreadPool`] + the `*_with` kernels | row-banded parallel gemm, trailing-update LU and right-solves; panels and pivoting stay serial, bands are disjoint, accumulation order is fixed — the pool changes wall time, never bits (pinned by the `parallel_equivalence` and `properties` suites) |
//! | [`BandedMatrix`]/[`BandedLu`] | packed storage for the QBD generator bands (§3's `Q(z)` blocks have bandwidth `N + 1` inside `s = (N+1)(N+2)/2` modes); banded matvec/gemm/LU/solves bit-identical to dense on the same pattern, gated by [`banded_profitable`] |
//! | [`CaudalFamily`] | spectrum slicing of `−K(z) = −Q(z)/z`: [`BandedMatrix::m_matrix_lu`] counts its negative pivots, which are the roots above `z`; the dominant root `η` of the §3.2 approximation by the M-matrix test, and all `s` roots of §3.1 by bisection on the count (rounds spread across the pool) and a per-root secant on `det(−K(z))` |
//! | [`QuadraticEigenProblem::real_left_eigenvector`] | eigenvector extraction at a real root by shifted inverse iteration on one real banded LU of `Q(z)ᵀ` (dense null-vector fallback), replacing the `O(s⁴)` per-eigenvalue Gaussian null-space sweep |
//! | [`RealBlockTridiagonal`] | the boundary elimination shared by both exact solvers once the repeating levels are summarised by a real rate matrix `R`; the couplings `B = λI` and `C_j` are packed diagonals, so each Schur update is an `O(s²)` column scaling; `solve` consumes the system and factorises each diagonal block in place, one LU per block row, so a solve holds one set of `K` blocks |
//!
//! # Example
//!
//! ```
//! use urs_linalg::{Matrix, QuadraticEigenProblem};
//!
//! # fn main() -> Result<(), urs_linalg::LinalgError> {
//! // One mode with λ = 2, µ = 3 and no breakdowns: 2 − 5z + 3z² = (1 − z)(2 − 3z),
//! // so the one root inside the unit disk is λ/µ.
//! let scalar = |v: f64| Matrix::from_rows(&[&[v][..]]);
//! let problem = QuadraticEigenProblem::new(scalar(2.0)?, scalar(-5.0)?, scalar(3.0)?)?;
//! let inside = problem.eigenvalues_inside_unit_disk(1e-9)?;
//! assert_eq!(inside.len(), 1);
//! assert!((inside[0].z.re - 2.0 / 3.0).abs() < 1e-15 && inside[0].z.im == 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod banded;
mod blocktri;
mod cholesky;
mod complex;
mod error;
mod lu;
mod matrix;
mod quadratic;
mod slicing;
mod workspace;

pub mod eigen;
pub mod parallel;

pub use banded::{BandedLu, BandedMatrix, Inertia, MMatrixLu, ZMatrixLu};
pub use blocktri::RealBlockTridiagonal;
pub use cholesky::Cholesky;
pub use complex::Complex;
pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use parallel::{ThreadPool, WorkerPanic};
pub use quadratic::{QuadraticEigenProblem, QuadraticEigenvalue};
pub use slicing::{CaudalFamily, DominantRoot};
pub use workspace::Workspace;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Crossover rule for the structured kernels: `true` when an `n × n` system
/// with `kl` subdiagonals and `ku` superdiagonals is worth routing through the
/// banded [`BandedLu`] path instead of the dense one.  The spectral solver's
/// eigenvector extraction and the QBD skeleton's banded recommendation consult it.
///
/// The banded factorisation does `O(n·(kl + ku + kl·min(kl+ku, n−1)))` work
/// against the dense `O(n³/3)`, but the dense kernels are blocked and skip
/// zeros, so the break-even is not at equal flop counts.  Measured with the
/// `kernels-banded` criterion group on QBD-shaped operands (`kl = ku`): at the
/// solver shapes 153×(17,17) and 561×(33,33) the banded path wins every kernel
/// (LU 3.6–7.7×, solves 1.7–2.7×, gemm ~1.2×), while at the boundary shape
/// 153×(38,38) — total bandwidth ≈ `n / 2` — banded gemm is already ~1.8×
/// *slower* even though banded LU still wins.  The gate is therefore set at
/// `kl + ku + 1 ≤ n / 2`, the tightest rule that keeps every routed kernel a
/// win — comfortably satisfied by every generator block the solvers produce
/// (`kl = ku = N + 1` against `n = (N+1)(N+2)/2`).
#[must_use]
pub fn banded_profitable(n: usize, kl: usize, ku: usize) -> bool {
    let bandwidth = kl + ku + 1;
    n >= 8 && bandwidth <= n / 2
}
