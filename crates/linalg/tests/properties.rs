//! Property-based tests for the linear-algebra kernels.
//!
//! Besides the structural properties (round trips, determinant identities), this suite
//! pins the *blocked* production kernels — tiled [`Matrix::gemm`] and the panel-blocked
//! LU — against naive reference implementations written out in this file, to a relative
//! tolerance of `1e-12`.

use proptest::prelude::*;
use urs_linalg::{
    symmetric_eigen, BandedLu, BandedMatrix, Cholesky, Complex, LinalgError, LuDecomposition,
    Matrix, QuadraticEigenProblem, ThreadPool, Workspace,
};

/// Naive O(n³) triple-loop reference product, independent of the tiled kernel.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut sum = 0.0;
            for k in 0..a.cols() {
                sum += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = sum;
        }
    }
    out
}

/// Deterministic LCG in [-0.5, 0.5); the single source of pseudo-randomness for the
/// kernel-equivalence tests below.
fn lcg(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }
}

/// Max relative elementwise deviation between two equally-shaped matrices.
fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    let scale = a.max_abs().max(b.max_abs()).max(1.0);
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / scale)
        .fold(0.0_f64, f64::max)
}

/// Strategy: a well-conditioned-ish square matrix (diagonally boosted random entries).
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0_f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).expect("dimensions match by construction");
        for i in 0..n {
            m[(i, i)] += 3.0 * (n as f64).sqrt();
        }
        m
    })
}

/// Strategy: an arbitrary (possibly ill-conditioned) square matrix.
fn arbitrary_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0_f64..10.0, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("dimensions match"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solving A x = b and multiplying back must reproduce b.
    #[test]
    fn lu_solve_round_trips(a in square_matrix(5), b in prop::collection::vec(-5.0_f64..5.0, 5)) {
        let x = a.solve(&b).expect("diagonally dominated matrix is invertible");
        let back = a.matvec(&x).unwrap();
        for (orig, rec) in b.iter().zip(back) {
            prop_assert!((orig - rec).abs() < 1e-8);
        }
    }

    /// det(A·B) = det(A)·det(B).
    #[test]
    fn determinant_is_multiplicative(a in square_matrix(4), b in square_matrix(4)) {
        let prod = a.matmul(&b).unwrap();
        let lhs = prod.determinant().unwrap();
        let rhs = a.determinant().unwrap() * b.determinant().unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.abs().max(1.0));
    }

    /// A · A⁻¹ = I for diagonally dominant matrices.
    #[test]
    fn inverse_round_trips(a in square_matrix(4)) {
        let inv = a.inverse().unwrap();
        prop_assert!(a.matmul(&inv).unwrap().approx_eq(&Matrix::identity(4), 1e-8));
    }

    /// The eigenvalues of a symmetric matrix must have sum = trace and product =
    /// determinant.
    #[test]
    fn eigenvalues_match_trace_and_determinant(a in arbitrary_matrix(6)) {
        let sym = &a + &a.transpose();
        let eig = symmetric_eigen(&sym).unwrap();
        let sum: f64 = eig.values.iter().sum();
        let tr = sym.trace().unwrap();
        let scale = sym.max_abs().max(1.0);
        prop_assert!((sum - tr).abs() < 1e-12 * scale * 6.0, "sum {sum} vs trace {tr}");
        let prod: f64 = eig.values.iter().product();
        let det = sym.determinant().unwrap();
        let det_scale = det.abs().max(scale.powi(6) * 1e-6).max(1.0);
        prop_assert!((prod - det).abs() < 1e-9 * det_scale, "prod {prod} vs det {det}");
    }

    /// LU permutation/decomposition determinant is consistent with eigenvalue product.
    #[test]
    fn lu_determinant_finite(a in arbitrary_matrix(5)) {
        let lu = LuDecomposition::new_allow_singular(&a).unwrap();
        prop_assert!(lu.determinant().is_finite());
    }

    /// On a three-mode birth–death QBD every root slicing reports in `(0, 1)` is
    /// certified without it: the dense pivoted determinant of `Q(z)` changes sign
    /// across the root, and its left eigenvector has a small residual `‖u Q(z)‖`.
    #[test]
    fn quadratic_eigenpairs_have_small_residuals(
        lambda in 0.5_f64..4.0,
        spare in prop::collection::vec(0.1_f64..2.0, 3),
        up in prop::collection::vec(0.2_f64..1.2, 2),
        down in prop::collection::vec(0.2_f64..1.2, 2),
    ) {
        // Every mode serves faster than λ, so the queue is stable.
        let c: Vec<f64> = spare.iter().map(|x| lambda + x).collect();
        let q1 = Matrix::from_fn(3, 3, |i, j| {
            if j == i + 1 {
                up[i]
            } else if j + 1 == i {
                down[j]
            } else if i == j {
                let out = if i < 2 { up[i] } else { 0.0 } + if i > 0 { down[i - 1] } else { 0.0 };
                -(out + lambda + c[i])
            } else {
                0.0
            }
        });
        let q0 = Matrix::from_diagonal(&[lambda; 3]);
        let q2 = Matrix::from_diagonal(&c);
        let problem = QuadraticEigenProblem::new(q0.clone(), q1.clone(), q2.clone()).unwrap();
        let roots = problem.eigenvalues_inside_unit_disk(1e-9).unwrap();
        prop_assert_eq!(roots.len(), 3);
        let q = |z: f64| {
            let mut q = &q0 + &q1.scale(z);
            q.add_scaled(z * z, &q2).unwrap();
            q
        };
        for e in roots {
            prop_assert_eq!(e.z.im, 0.0);
            let z = e.z.re;
            prop_assert!(z > 0.0 && z < 1.0);
            let det = |z: f64| LuDecomposition::new_allow_singular(&q(z)).unwrap().determinant();
            prop_assert!(det(z * (1.0 - 1e-9)) * det(z * (1.0 + 1e-9)) < 0.0, "no sign change at {}", z);
            let u = problem.real_left_eigenvector(z).unwrap();
            let residual = problem.real_residual(z, &u).unwrap();
            prop_assert!(residual < 1e-9, "‖u Q({})‖ = {}", z, residual);
        }
    }

    /// Complex arithmetic: (a*b)/b == a.
    #[test]
    fn complex_field_axioms(ar in -10.0_f64..10.0, ai in -10.0_f64..10.0,
                            br in -10.0_f64..10.0, bi in -10.0_f64..10.0) {
        prop_assume!(br.abs() + bi.abs() > 1e-6);
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        prop_assert!(((a * b) / b - a).abs() < 1e-9 * a.abs().max(1.0));
        prop_assert!(((a + b) - b - a).abs() < 1e-12);
    }

    /// sqrt(z)² == z on a wide range of inputs.
    #[test]
    fn complex_sqrt_roundtrip(re in -100.0_f64..100.0, im in -100.0_f64..100.0) {
        let z = Complex::new(re, im);
        let s = z.sqrt();
        prop_assert!((s * s - z).abs() < 1e-10 * z.abs().max(1.0));
    }

    /// The tiled gemm kernel agrees with the naive triple loop on rectangular shapes
    /// (≤ 1e-12 relative), including shapes that cross the tile boundaries.
    #[test]
    fn blocked_gemm_matches_naive_product(
        m in 1usize..12, k in 1usize..70, n in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut next = lcg(seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493));
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let fast = a.matmul(&b).unwrap();
        let slow = naive_matmul(&a, &b);
        prop_assert!(max_rel_diff(&fast, &slow) <= 1e-12);
    }

    /// gemm's accumulate form: C ← α·A·B + β·C equals the same expression assembled
    /// from allocating operations.
    #[test]
    fn gemm_accumulate_matches_composed_expression(
        n in 1usize..10, alpha in -2.0_f64..2.0, beta in -2.0_f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let mut next = lcg(seed | 1);
        let a = Matrix::from_fn(n, n, |_, _| next());
        let b = Matrix::from_fn(n, n, |_, _| next());
        let c0 = Matrix::from_fn(n, n, |_, _| next());
        let mut c = c0.clone();
        c.gemm(alpha, &a, &b, beta).unwrap();
        let reference = &naive_matmul(&a, &b).scale(alpha) + &c0.scale(beta);
        prop_assert!(max_rel_diff(&c, &reference) <= 1e-12);
    }

    /// The blocked LU reproduces P·A = L·U across the panel boundary and its solves
    /// agree with the solution reconstructed through the explicit inverse.
    #[test]
    fn blocked_lu_matches_naive_reference(size in 1usize..70, seed in 0u64..1_000_000) {
        let mut next = lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
        let mut a = Matrix::from_fn(size, size, |_, _| next());
        for i in 0..size {
            a[(i, i)] += 4.0; // keep it comfortably invertible
        }
        let lu = LuDecomposition::new(&a).unwrap();
        let b: Vec<f64> = (0..size).map(|_| next()).collect();
        let x = lu.solve(&b).unwrap();
        // Naive check: A·x must reproduce b.
        let back = a.matvec(&x).unwrap();
        let scale = b.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (orig, rec) in b.iter().zip(back) {
            prop_assert!((orig - rec).abs() / scale <= 1e-10);
        }
        // Multi-RHS and right-division solves agree with the vector solve.
        let rhs = Matrix::from_fn(size, 3, |_, _| next());
        let xs = lu.solve_matrix(&rhs).unwrap();
        for col in 0..3 {
            let xcol = lu.solve(&rhs.column(col)).unwrap();
            for (i, v) in xcol.iter().enumerate() {
                prop_assert!((xs[(i, col)] - v).abs() <= 1e-12 * v.abs().max(1.0));
            }
        }
        let brow = Matrix::from_fn(2, size, |_, _| next());
        let mut ws = Workspace::new();
        let mut xr = Matrix::zeros(2, size);
        lu.solve_right_matrix_into(&brow, &mut xr, &mut ws).unwrap();
        let recovered = xr.matmul(&a).unwrap();
        prop_assert!(max_rel_diff(&recovered, &brow) <= 1e-9);
    }

    /// Same as above but on matrices engineered so that partial pivoting MUST
    /// interchange rows at (almost) every elimination step, across panel boundaries:
    /// element magnitudes grow down each column, so the pivot is never already in
    /// place.  Exercises the full-row swaps of the blocked panels and the final
    /// permutation scatter of `solve_right_matrix_into`.
    #[test]
    fn blocked_lu_with_forced_pivoting(size in 2usize..70, seed in 0u64..1_000_000) {
        let mut next = lcg(seed.wrapping_mul(0xA24BAED4963EE407).wrapping_add(5));
        // Base magnitude 2^(row) keeps lower rows strictly dominant in every column,
        // forcing a swap at each step; the random factor keeps the matrix generic.
        let a = Matrix::from_fn(size, size, |i, _| {
            (1.0 + next().abs()) * (1.5_f64).powi(i as i32)
                * if next() > 0.0 { 1.0 } else { -1.0 }
        });
        let lu = match LuDecomposition::new(&a) {
            Ok(lu) => lu,
            Err(_) => return Ok(()), // a random sign pattern may be (near) singular
        };
        let b: Vec<f64> = (0..size).map(|_| next()).collect();
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        let scale = a.max_abs().max(1.0);
        for (orig, rec) in b.iter().zip(back) {
            prop_assert!((orig - rec).abs() <= 1e-8 * scale);
        }
        let brow = Matrix::from_fn(2, size, |_, _| next());
        let mut ws = Workspace::new();
        let mut xr = Matrix::zeros(2, size);
        lu.solve_right_matrix_into(&brow, &mut xr, &mut ws).unwrap();
        let recovered = xr.matmul(&a).unwrap();
        prop_assert!(max_rel_diff(&recovered, &brow) <= 1e-8);
    }
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial bit-identity under random shapes.  The pooled kernels
// promise `f64::to_bits` equality with the serial path for *every* shape —
// degenerate 1×k and k×1 strips, empty matrices, and dimensions that are not
// multiples of the gemm tiles or LU panels — at every thread count.
// ---------------------------------------------------------------------------

fn matrix_bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pooled gemm is bitwise-equal to serial gemm on arbitrary shapes, including
    /// empty and single-row/column operands and β/α special cases.
    #[test]
    fn parallel_gemm_is_bitwise_equal_to_serial(
        m in 0usize..40, k in 0usize..90, n in 0usize..40,
        threads in 2usize..9,
        alpha_case in 0usize..4,
        beta_case in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        // Cover the β = 0 fill, β = 1 accumulate, and α = 0 early-return branches.
        let alpha = [0.0, 1.0, 0.75, -1.3][alpha_case];
        let beta = [0.0, 1.0, -0.5, 2.0][beta_case];
        let mut next = lcg(seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7));
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let c0 = Matrix::from_fn(m, n, |_, _| next());
        let mut serial = c0.clone();
        serial.gemm(alpha, &a, &b, beta).unwrap();
        let mut pooled = c0.clone();
        pooled.gemm_with(alpha, &a, &b, beta, &ThreadPool::new(threads)).unwrap();
        prop_assert_eq!(matrix_bits(&serial), matrix_bits(&pooled));
    }

    /// Pooled blocked LU produces the bitwise-identical packed factor, permutation
    /// effects (via solves), and right-solves as the serial path, for sizes on and
    /// off the 48-column panel boundary.
    #[test]
    fn parallel_lu_is_bitwise_equal_to_serial(
        size in 1usize..90,
        rhs_rows in 1usize..4,
        threads in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let mut next = lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11));
        let mut a = Matrix::from_fn(size, size, |_, _| next());
        for i in 0..size {
            a[(i, i)] += 4.0;
        }
        let pool = ThreadPool::new(threads);
        let serial = LuDecomposition::from_matrix(a.clone()).unwrap();
        let pooled = LuDecomposition::from_matrix_with(a.clone(), &pool).unwrap();
        prop_assert_eq!(serial.determinant().to_bits(), pooled.determinant().to_bits());
        let brow = Matrix::from_fn(rhs_rows, size, |_, _| next());
        let mut ws = Workspace::new();
        let mut serial_x = Matrix::zeros(rhs_rows, size);
        serial.solve_right_matrix_into(&brow, &mut serial_x, &mut ws).unwrap();
        let mut pooled_x = Matrix::zeros(rhs_rows, size);
        pooled.solve_right_matrix_into_with(&brow, &mut pooled_x, &mut ws, &pool).unwrap();
        prop_assert_eq!(matrix_bits(&serial_x), matrix_bits(&pooled_x));
        let serial_packed = serial.into_matrix();
        let pooled_packed = pooled.into_matrix();
        prop_assert_eq!(matrix_bits(&serial_packed), matrix_bits(&pooled_packed));
    }

    /// A singular matrix must fail identically through the serial and pooled paths:
    /// same `LinalgError::Singular { pivot }`, independent of the thread count.
    #[test]
    fn parallel_lu_reports_identical_singular_pivots(
        size in 2usize..70,
        dup in 0usize..69,
        threads in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let dead = dup % size;
        let mut next = lcg(seed.wrapping_mul(0x5DEECE66D).wrapping_add(0xB));
        // Zero out one column: row operations subtract exact zeros from it, so its
        // pivot is exactly 0.0 regardless of banding, and the elimination (being
        // bit-identical) detects singularity at the same step at any thread count.
        let mut a = Matrix::from_fn(size, size, |_, _| next());
        for i in 0..size {
            a[(i, i)] += 4.0;
            a[(i, dead)] = 0.0;
        }
        let serial = LuDecomposition::from_matrix(a.clone());
        let pooled = LuDecomposition::from_matrix_with(a.clone(), &ThreadPool::new(threads));
        match (serial, pooled) {
            (Err(se), Err(pe)) => {
                prop_assert_eq!(&se, &LinalgError::Singular { pivot: dead });
                prop_assert_eq!(se, pe);
            }
            (s, p) => prop_assert!(false, "expected Singular from both, got {s:?} / {p:?}"),
        }
        // The tolerant constructors agree on the singularity flag and the factor.
        let serial = LuDecomposition::new_allow_singular(&a).unwrap();
        let pooled =
            LuDecomposition::new_allow_singular_with(&a, &ThreadPool::new(threads)).unwrap();
        prop_assert_eq!(serial.is_singular(), pooled.is_singular());
        prop_assert_eq!(
            matrix_bits(&serial.into_matrix()),
            matrix_bits(&pooled.into_matrix())
        );
    }
}

// ---------------------------------------------------------------------------
// Cholesky factor, lower solve and Gram product — the kernels of the symmetric
// cyclic reduction.  Sizes cross the 48-row panel boundary; `band` thins the
// operands so the zero-skipping paths run beside the fused dense ones.
// ---------------------------------------------------------------------------

/// A symmetric positive-definite `B·Bᵀ + n·I` with `B` zero outside `|i − j| ≤ band`.
fn spd_matrix(n: usize, band: usize, seed: u64) -> Matrix {
    let mut next = lcg(seed.wrapping_mul(0xD1342543DE82EF95).wrapping_add(3));
    let b = Matrix::from_fn(n, n, |i, j| if i.abs_diff(j) <= band { next() } else { 0.0 });
    let mut a = b.matmul(&b.transpose()).unwrap();
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `L·Lᵀ` rebuilds `A`, `L` is lower triangular with a positive diagonal, and
    /// an indefinite matrix is an error at the first bad pivot, not a panic.
    #[test]
    fn cholesky_reconstructs_and_rejects_indefinite_input(
        n in 1usize..110,
        band in 0usize..120,
        flip in 0usize..110,
        seed in 0u64..1_000_000,
    ) {
        let a = spd_matrix(n, band, seed);
        let l = Cholesky::new(&a).unwrap().lower();
        for i in 0..n {
            prop_assert!(l[(i, i)] > 0.0);
            for j in i + 1..n {
                prop_assert_eq!(l[(i, j)], 0.0);
            }
        }
        let rebuilt = l.matmul(&l.transpose()).unwrap();
        prop_assert!(max_rel_diff(&rebuilt, &a) < 1e-13, "{}", max_rel_diff(&rebuilt, &a));
        // A negative diagonal entry makes the matrix indefinite; the pivots before
        // it depend only on the leading block, so the factor fails exactly there.
        let k = flip % n;
        let mut indefinite = a.clone();
        indefinite[(k, k)] = -1.0;
        let outcome = Cholesky::new(&indefinite);
        prop_assert!(
            matches!(outcome, Err(LinalgError::NotPositiveDefinite { pivot }) if pivot == k),
            "{outcome:?}"
        );
    }

    /// `Z = L⁻¹·B` satisfies `L·Z = B` to a small residual.
    #[test]
    fn lower_solve_has_a_small_residual(
        n in 1usize..110,
        m in 1usize..70,
        band in 0usize..120,
        seed in 0u64..1_000_000,
    ) {
        let a = spd_matrix(n, band, seed);
        let cholesky = Cholesky::new(&a).unwrap();
        let mut next = lcg(seed ^ 0xABCDEF);
        let b = Matrix::from_fn(n, m, |_, _| next());
        let mut z = Matrix::zeros(n, m);
        cholesky.solve_lower_into(&b, &mut z, &mut Workspace::new()).unwrap();
        let residual = &cholesky.lower().matmul(&z).unwrap() - &b;
        prop_assert!(residual.max_abs() < 1e-13, "residual {}", residual.max_abs());
    }

    /// The one-triangle Gram product equals `gemm(Zᵀ, Z)` bit for bit and is
    /// exactly symmetric.
    #[test]
    fn gram_product_is_the_gemm_bit_for_bit(
        k in 0usize..90,
        n in 0usize..110,
        sparse in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut next = lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(5));
        let z = Matrix::from_fn(k, n, |i, j| {
            let v = next();
            if sparse > 0 && (i + j) % (sparse + 2) == 0 { 0.0 } else { v }
        });
        let mut gemm = Matrix::zeros(n, n);
        gemm.gemm(1.0, &z.transpose(), &z, 0.0).unwrap();
        let mut gram = Matrix::filled(n, n, f64::NAN);
        gram.gram(&z.transpose(), &z).unwrap();
        prop_assert_eq!(matrix_bits(&gram), matrix_bits(&gemm));
        prop_assert_eq!(matrix_bits(&gram), matrix_bits(&gram.transpose()));
    }

    /// The pooled factor, lower solve and Gram product are bitwise equal to the
    /// serial ones at 1, 2 and 4 threads.
    #[test]
    fn pooled_cholesky_kernels_are_bitwise_equal_to_serial(
        n in 1usize..130,
        m in 1usize..90,
        band in 0usize..140,
        seed in 0u64..1_000_000,
    ) {
        let a = spd_matrix(n, band, seed);
        let mut next = lcg(seed ^ 0x5151);
        let b = Matrix::from_fn(n, m, |_, _| next());
        let mut ws = Workspace::new();
        let serial = Cholesky::new(&a).unwrap();
        let mut serial_z = Matrix::zeros(n, m);
        serial.solve_lower_into(&b, &mut serial_z, &mut ws).unwrap();
        let mut serial_gram = Matrix::zeros(m, m);
        serial_gram.gram(&serial_z.transpose(), &serial_z).unwrap();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let pooled = Cholesky::from_matrix_with(a.clone(), &pool).unwrap();
            prop_assert_eq!(matrix_bits(&pooled.lower()), matrix_bits(&serial.lower()));
            let mut z = Matrix::zeros(n, m);
            pooled.solve_lower_into_with(&b, &mut z, &mut ws, &pool).unwrap();
            prop_assert_eq!(matrix_bits(&z), matrix_bits(&serial_z));
            let mut gram = Matrix::zeros(m, m);
            gram.gram_with(&z.transpose(), &z, &pool).unwrap();
            prop_assert_eq!(matrix_bits(&gram), matrix_bits(&serial_gram));
        }
    }
}

// ---------------------------------------------------------------------------
// Banded-vs-dense bit-identity under random bandwidths.  The packed banded
// kernels promise `to_bits` equality with the dense path on the same nonzero
// pattern — for every bandwidth from diagonal (kl = ku = 0) through full
// (kl = ku = n − 1), on sizes off the dense tile/panel boundaries, real and
// complex, for gemm, matvec, LU factor/solve, and singularity reporting.
// (Caveat pinned by the kernels' docs: inputs here avoid −0.0 and subnormals,
// where "skip exact zeros" short-cuts could legally differ in sign-of-zero.)
// ---------------------------------------------------------------------------

/// Map a raw proptest draw to a bandwidth, biased so the degenerate diagonal
/// and full-bandwidth cases come up often.
fn pick_bandwidth(case: usize, raw: usize, n: usize) -> usize {
    match case {
        0 => 0,
        1 => n.saturating_sub(1),
        _ => raw % n,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Banded matvec and gemm are bitwise-equal to the dense kernels applied to
    /// the unpacked matrix, at any bandwidth.
    #[test]
    fn banded_matvec_and_gemm_bitwise_equal_dense(
        n in 1usize..40,
        kl_case in 0usize..4, kl_raw in 0usize..64,
        ku_case in 0usize..4, ku_raw in 0usize..64,
        cols in 1usize..6,
        alpha_case in 0usize..3, beta_case in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let kl = pick_bandwidth(kl_case, kl_raw, n);
        let ku = pick_bandwidth(ku_case, ku_raw, n);
        // β = 0 is excluded: the dense accumulate form overwrites C there while
        // the banded kernel scales it, which may legally differ on sign-of-zero.
        let alpha = [1.5, 0.75, -1.3][alpha_case];
        let beta = [1.0, 0.5, -0.5][beta_case];
        let mut next = lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17));
        let a = BandedMatrix::from_fn(n, kl, ku, |i, j| {
            let v = next();
            if i == j { v + 4.0 } else { v }
        });
        let dense = a.to_dense();
        let v: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut y = vec![0.0; n];
        a.matvec_into(&v, &mut y).unwrap();
        let yd = dense.matvec(&v).unwrap();
        for (b, d) in y.iter().zip(&yd) {
            prop_assert_eq!(b.to_bits(), d.to_bits());
        }
        let b = Matrix::from_fn(n, cols, |_, _| next());
        let mut c = Matrix::from_fn(n, cols, |_, _| next());
        let mut cd = c.clone();
        a.gemm_into(alpha, &b, beta, &mut c).unwrap();
        cd.gemm(alpha, &dense, &b, beta).unwrap();
        prop_assert_eq!(matrix_bits(&c), matrix_bits(&cd));
    }

    /// Banded LU factorisation and its solves are bitwise-equal to the dense
    /// blocked LU on the unpacked matrix, including sizes past the dense
    /// 48-column panel so the comparison crosses panel boundaries.
    #[test]
    fn banded_lu_bitwise_equal_dense(
        n in 1usize..70,
        kl_case in 0usize..4, kl_raw in 0usize..64,
        ku_case in 0usize..4, ku_raw in 0usize..64,
        cols in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let kl = pick_bandwidth(kl_case, kl_raw, n);
        let ku = pick_bandwidth(ku_case, ku_raw, n);
        let mut next = lcg(seed.wrapping_mul(0xA24BAED4963EE407).wrapping_add(19));
        let a = BandedMatrix::from_fn(n, kl, ku, |i, j| {
            let v = next();
            if i == j { v + 4.0 } else { v }
        });
        let dense = a.to_dense();
        let blu = a.lu().unwrap();
        let dlu = LuDecomposition::new(&dense).unwrap();
        prop_assert_eq!(blu.determinant().to_bits(), dlu.determinant().to_bits());
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut xb = vec![0.0; n];
        let mut xd = vec![0.0; n];
        blu.solve_into(&b, &mut xb).unwrap();
        dlu.solve_into(&b, &mut xd).unwrap();
        for (p, q) in xb.iter().zip(&xd) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
        let bm = Matrix::from_fn(n, cols, |_, _| next());
        let mut ob = Matrix::zeros(n, cols);
        let mut od = Matrix::zeros(n, cols);
        blu.solve_matrix_into(&bm, &mut ob).unwrap();
        dlu.solve_matrix_into(&bm, &mut od).unwrap();
        prop_assert_eq!(matrix_bits(&ob), matrix_bits(&od));
    }

    /// An exactly-zero column inside the band must fail identically through the
    /// banded and dense factorisations: the same `Singular { pivot }` step, and
    /// the same singularity flag from the tolerant constructors.
    #[test]
    fn banded_lu_singular_pivot_parity(
        n in 2usize..40,
        kl_raw in 0usize..64, ku_raw in 0usize..64,
        dead_raw in 0usize..64,
        seed in 0u64..1_000_000,
    ) {
        let kl = kl_raw % n;
        let ku = ku_raw % n;
        let dead = dead_raw % n;
        let mut next = lcg(seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(23));
        // Column `dead` is exactly zero: eliminations subtract exact zeros from
        // it, so both paths hit a 0.0 pivot at the same deterministic step.
        let a = BandedMatrix::from_fn(n, kl, ku, |i, j| {
            if j == dead {
                0.0
            } else {
                let v = next();
                if i == j { v + 4.0 } else { v }
            }
        });
        let dense = a.to_dense();
        let be = BandedLu::new(&a).unwrap_err();
        let de = LuDecomposition::new(&dense).unwrap_err();
        prop_assert!(matches!(be, LinalgError::Singular { .. }), "banded: {be:?}");
        prop_assert_eq!(&be, &de);
        let blu = BandedLu::new_allow_singular(&a).unwrap();
        let dlu = LuDecomposition::new_allow_singular(&dense).unwrap();
        prop_assert_eq!(blu.is_singular(), dlu.is_singular());
        prop_assert!(blu.is_singular());
        prop_assert_eq!(blu.determinant().to_bits(), dlu.determinant().to_bits());
    }
}

proptest! {
    // Each case slices every root of a quadratic eigenproblem; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On paper-shaped (QBD-like tridiagonal) pencils the shifted inverse
    /// iteration behind `real_left_eigenvector` must agree with the dense null-space
    /// extraction: same direction up to a scalar, small residual.  A birth–death
    /// coupling is reversible, so every eigenvalue is real.
    #[test]
    fn inverse_iteration_matches_dense_null_space(
        s in 8usize..13,
        lambda in 0.5_f64..3.0,
        seed in 0u64..1_000_000,
    ) {
        let mut next = lcg(seed.wrapping_mul(0x5DEECE66D).wrapping_add(31));
        // Q(z) = Q0 + Q1 z + Q2 z² with diagonal Q0/Q2 and tridiagonal Q1 whose
        // rows sum to zero at z = 1 — the shape every QBD in the paper takes.
        let q0 = Matrix::from_diagonal(&vec![lambda; s]);
        // Every mode serves faster than λ, so the queue is stable and its `s` roots
        // lie in (0, 1).
        let q2 = Matrix::from_diagonal(
            &(0..s).map(|_| lambda + 0.1 + next().abs() * 2.0).collect::<Vec<_>>(),
        );
        let up: Vec<f64> = (0..s).map(|_| 0.2 + next().abs()).collect();
        let down: Vec<f64> = (0..s).map(|_| 0.2 + next().abs()).collect();
        let q1 = Matrix::from_fn(s, s, |i, j| {
            if j == i + 1 {
                up[i]
            } else if i > 0 && j == i - 1 {
                down[i]
            } else if i == j {
                let mut d = -(lambda + q2[(i, i)]);
                if i + 1 < s {
                    d -= up[i];
                }
                if i > 0 {
                    d -= down[i];
                }
                d
            } else {
                0.0
            }
        });
        let problem = QuadraticEigenProblem::new(q0.clone(), q1.clone(), q2.clone()).unwrap();
        prop_assert!(problem.uses_banded_extraction());
        let eig = problem.eigenvalues_inside_unit_disk(1e-9).unwrap();
        prop_assert_eq!(eig.len(), s);
        let max_mod = eig.iter().map(|e| e.z.abs()).fold(1.0_f64, f64::max);
        for e in &eig {
            // Skip clustered eigenvalues: near-degenerate null spaces make the
            // extracted direction legitimately method-dependent.
            let separation = eig
                .iter()
                .filter(|o| (o.z - e.z).abs() > 0.0)
                .map(|o| (o.z - e.z).abs())
                .fold(f64::INFINITY, f64::min);
            if separation < 1e-3 * max_mod {
                continue;
            }
            prop_assert_eq!(e.z.im, 0.0);
            let z = e.z.re;
            let v = problem.real_left_eigenvector(z).unwrap();
            let mut q = &q0 + &q1.scale(z);
            q.add_scaled(z * z, &q2).unwrap();
            let scale = q.max_abs();
            prop_assert!(
                problem.real_residual(z, &v).unwrap() <= 1e-7 * scale,
                "residual too large at z = {}", z
            );
            let w = LuDecomposition::new_allow_singular(&q.transpose())
                .unwrap()
                .null_vector()
                .unwrap();
            // Both vectors have unit max modulus; align signs at v's peak.
            let peak = (0..s).max_by(|&a, &b| v[a].abs().total_cmp(&v[b].abs())).unwrap();
            let ratio = w[peak] / v[peak];
            for (a, b) in v.iter().zip(&w) {
                prop_assert!(
                    (b - ratio * a).abs() <= 1e-6,
                    "direction mismatch at z = {}", z
                );
            }
        }
    }
}

/// Deterministic pivot-forcing case: an anti-diagonally dominant matrix whose LU
/// permutation is the full row reversal, bigger than one panel so the swaps cross
/// panel boundaries; checks the factorisation, both left solves and the right solve.
#[test]
fn row_reversing_permutation_across_panels() {
    let n = 61; // the permutation spans several panels
    let a = Matrix::from_fn(n, n, |i, j| {
        if i + j == n - 1 {
            10.0 + i as f64
        } else {
            1.0 / (1.0 + (i + 2 * j) as f64)
        }
    });
    let lu = LuDecomposition::new(&a).unwrap();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
    let x = lu.solve(&b).unwrap();
    let back = a.matvec(&x).unwrap();
    for (orig, rec) in b.iter().zip(back) {
        assert!((orig - rec).abs() < 1e-9, "{orig} vs {rec}");
    }
    let rhs = Matrix::from_fn(n, 2, |i, j| ((i * 3 + j) as f64 * 0.11).sin());
    let xs = lu.solve_matrix(&rhs).unwrap();
    let rec = a.matmul(&xs).unwrap();
    assert!(max_rel_diff(&rec, &rhs) < 1e-9);
    let brow = Matrix::from_fn(2, n, |i, j| ((i + 5 * j) as f64 * 0.07).cos());
    let mut ws = Workspace::new();
    let mut xr = Matrix::zeros(2, n);
    lu.solve_right_matrix_into(&brow, &mut xr, &mut ws).unwrap();
    let recovered = xr.matmul(&a).unwrap();
    assert!(max_rel_diff(&recovered, &brow) < 1e-9);
}

// ---------------------------------------------------------------------------
// Right division `X A = B`, bit for bit.  The production kernel advances four
// output rows by four factor rows per pass; the reference below divides one row
// at a time, one factor row per step, with the same exact-zero skips.  Both read
// the same packed factors, recomputed here by the textbook unblocked elimination
// (which the blocked LU reproduces bitwise), so any reordering of a single
// multiply or subtraction in the tiled kernel shows up as a bit difference.
// ---------------------------------------------------------------------------

/// The packed factors, row permutation (`perm[i]` = original row of factor row
/// `i`), permutation sign and first underflowed pivot of the textbook elimination.
struct TextbookLu {
    d: Vec<f64>,
    perm: Vec<usize>,
    sign: f64,
    singular_at: Option<usize>,
}

/// Textbook right-looking LU with partial pivoting: the first strict maximum wins,
/// a pivot below `PIVOT_EPS` (1e-300) leaves its column inactive (no multipliers,
/// no update), and zero multipliers skip their row update.
fn unblocked_lu(a: &Matrix) -> TextbookLu {
    let n = a.rows();
    let mut d = a.as_slice().to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    let mut singular_at = None;
    for k in 0..n {
        let mut pivot_row = k;
        let mut best = d[k * n + k].abs();
        for i in k + 1..n {
            if d[i * n + k].abs() > best {
                best = d[i * n + k].abs();
                pivot_row = i;
            }
        }
        if pivot_row != k {
            for j in 0..n {
                d.swap(k * n + j, pivot_row * n + j);
            }
            perm.swap(k, pivot_row);
            sign = -sign;
        }
        let pivot = d[k * n + k];
        if pivot.abs() < 1e-300 {
            singular_at.get_or_insert(k);
            continue;
        }
        for i in k + 1..n {
            let factor = d[i * n + k] / pivot;
            d[i * n + k] = factor;
            if factor != 0.0 {
                for j in k + 1..n {
                    d[i * n + j] -= factor * d[k * n + j];
                }
            }
        }
    }
    TextbookLu { d, perm, sign, singular_at }
}

/// One row of `X A = B` by the scalar recurrence: `w U = b` forward one column at
/// a time, `w L = w'` backward, then the column permutation.
fn reference_right_divide(d: &[f64], perm: &[usize], row: &mut [f64]) {
    let n = perm.len();
    for j in 0..n {
        let w = row[j] / d[j * n + j];
        row[j] = w;
        if w != 0.0 {
            for c in j + 1..n {
                row[c] -= w * d[j * n + c];
            }
        }
    }
    for j in (0..n).rev() {
        let w = row[j];
        if w != 0.0 {
            for c in 0..j {
                row[c] -= w * d[j * n + c];
            }
        }
    }
    let solved = row.to_vec();
    for (k, &p) in perm.iter().enumerate() {
        row[p] = solved[k];
    }
}

/// A column-dominant `n × n` matrix with exact zeros off the diagonal (so the
/// factors hold exact zeros too), its rows dealt out of order so partial pivoting
/// must undo the shuffle at almost every step.
fn pivoting_matrix_with_zeros(n: usize, seed: u64) -> Matrix {
    let mut next = lcg(seed);
    let m = Matrix::from_fn(n, n, |i, j| {
        let v = next();
        if i == j {
            n as f64 + 1.0 + v
        } else if (i * 5 + j * 3) % 7 == 0 {
            0.0
        } else {
            v
        }
    });
    // Row `i` of the result is row `(i·stride + 1) mod n` of `m`, with the stride
    // coprime to `n`, so every row appears once.
    let stride = (2..n.max(2)).find(|s| gcd(*s, n) == 1).unwrap_or(1);
    Matrix::from_fn(n, n, |i, j| m[((i * stride + 1) % n, j)])
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Right-hand sides with zeros in every pattern the tiled kernel distinguishes:
/// whole zero rows, zero leading columns (the diagonal shape), isolated zeros
/// and dense rows.  The row count is `n + 3`, so bands end in a ragged remainder.
fn rhs_with_zeros(n: usize, seed: u64) -> Matrix {
    let mut next = lcg(seed);
    Matrix::from_fn(n + 3, n, |i, j| {
        let v = next();
        match i % 5 {
            0 => v,
            1 if i % 10 == 1 => 0.0,
            2 if j < i.min(n) => 0.0,
            3 if (i + j) % 3 == 0 => 0.0,
            _ => v,
        }
    })
}

#[test]
fn tiled_right_division_matches_the_row_reference_bitwise() {
    // Sizes straddle the four-column corners and the 64-column blocks of the
    // substitutions.
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 11, 48, 49, 63, 64, 65, 97, 128, 131] {
        let a = pivoting_matrix_with_zeros(n, 31 + n as u64);
        let lu = LuDecomposition::new(&a).unwrap();
        let TextbookLu { d, perm, .. } = unblocked_lu(&a);
        assert_eq!(
            matrix_bits(&lu.clone().into_matrix()),
            d.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "n = {n}: the blocked LU left the textbook elimination"
        );
        if n > 1 {
            assert!(perm.iter().enumerate().any(|(i, &p)| i != p), "n = {n}: no pivoting");
        }
        assert!(n < 8 || d.contains(&0.0), "n = {n}: factors hold no exact zero");
        let mut ws = Workspace::new();

        // Dense right-hand side.
        let b = rhs_with_zeros(n, 77 + n as u64);
        let mut x = Matrix::zeros(b.rows(), n);
        lu.solve_right_matrix_into(&b, &mut x, &mut ws).unwrap();
        let mut expected = b.clone();
        for row in expected.as_mut_slice().chunks_exact_mut(n) {
            reference_right_divide(&d, &perm, row);
        }
        assert_eq!(matrix_bits(&x), matrix_bits(&expected), "n = {n}: dense right-hand side");

        // Diagonal right-hand side, one entry an exact zero.
        let mut next = lcg(5 + n as u64);
        let diag: Vec<f64> = (0..n).map(|i| if i % 6 == 4 { 0.0 } else { next() }).collect();
        let mut xd = Matrix::zeros(n, n);
        lu.solve_right_diagonal_into_with(&diag, &mut xd, &mut ws, &ThreadPool::serial()).unwrap();
        let mut expected = Matrix::from_diagonal(&diag);
        for row in expected.as_mut_slice().chunks_exact_mut(n) {
            reference_right_divide(&d, &perm, row);
        }
        assert_eq!(matrix_bits(&xd), matrix_bits(&expected), "n = {n}: diagonal right-hand side");

        // Pooled bands run the same kernel per band: bitwise equal at every width.
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut pooled = Matrix::zeros(b.rows(), n);
            lu.solve_right_matrix_into_with(&b, &mut pooled, &mut ws, &pool).unwrap();
            assert_eq!(matrix_bits(&pooled), matrix_bits(&x), "n = {n}, {threads} threads");
            let mut pooled = Matrix::zeros(n, n);
            lu.solve_right_diagonal_into_with(&diag, &mut pooled, &mut ws, &pool).unwrap();
            assert_eq!(matrix_bits(&pooled), matrix_bits(&xd), "n = {n}, {threads} threads");
        }
    }
}

// ---------------------------------------------------------------------------
// The factorisations against their textbook unblocked eliminations, bit for bit.
// The blocked kernels reorder only *which* element is updated when; every element
// must still receive the textbook's divisions and ascending-k subtractions with
// the same exact-zero skips, so the factors, the permutation, the determinant
// and the singular pivot match the references above and below exactly, at every
// thread count.
// ---------------------------------------------------------------------------

/// Square matrices for the textbook-LU comparison, by `case`:
/// 0. dense with a boosted diagonal (few swaps, every multiplier non-zero);
/// 1. exact zeros under forced pivoting ([`pivoting_matrix_with_zeros`]);
/// 2. magnitudes growing 1.5× down each column, so every step swaps;
/// 3. banded, so most multipliers are exact zeros and skip their updates; half
///    the entries off the band are `−0.0`, which an update by a zero multiplier
///    would turn into `+0.0`;
/// 4. dense, with column 0 and one more column below `PIVOT_EPS`, so both stay
///    inactive: column 0's pivot row is ~1e295 everywhere else, so one of its
///    unscaled entries (~1e-302) acting as a multiplier would move other rows;
/// 5. column 0 exactly zero (inactive), and rows 1–3 built so that the
///    elimination overflows: from `n = 4` the pivot of column 3 is `−∞ + ∞`, a
///    NaN, which stays active and spreads through the rows below.
fn textbook_lu_case(case: usize, n: usize, seed: u64) -> Matrix {
    let mut next = lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(case as u64));
    match case {
        0 => Matrix::from_fn(n, n, |i, j| next() + if i == j { 4.0 } else { 0.0 }),
        1 => pivoting_matrix_with_zeros(n, seed),
        2 => Matrix::from_fn(n, n, |i, _| {
            let sign = if next() > 0.0 { 1.0 } else { -1.0 };
            (1.0 + next().abs()) * 1.5_f64.powi(i as i32) * sign
        }),
        3 => {
            let band = 1 + (seed % 5) as usize;
            Matrix::from_fn(n, n, |i, j| {
                let v = next();
                if i.abs_diff(j) > band {
                    if (i + j) % 2 == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                } else if i == j {
                    v + 0.25
                } else {
                    v
                }
            })
        }
        5 => {
            // Steps 1 and 2 pivot on rows 1 and 2 (first of tied maxima) with
            // multipliers ±1: step 1 takes a₂₃ to +∞ and a₃₃ to −∞, so step 2
            // leaves a₃₃ = −∞ − (−1)·∞, a NaN.
            let mut a = Matrix::from_fn(n, n, |_, j| if j == 0 { 0.0 } else { next() });
            let rows: [[f64; 3]; 3] = [[1.0, 0.25, 1e308], [-1.0, 1.0, 1e308], [1.0, -1.0, -1e308]];
            for (i, row) in rows.iter().enumerate().take(n.saturating_sub(1)) {
                for (j, &v) in row.iter().enumerate().take(n - 1) {
                    a[(i + 1, j + 1)] = v;
                }
            }
            a
        }
        _ => {
            let dead = (seed % n as u64) as usize;
            let big = ((seed / 7) % n as u64) as usize;
            Matrix::from_fn(n, n, |i, j| {
                let v = next() + if i == j { 4.0 } else { 0.0 };
                if j == 0 {
                    if i == big {
                        0.9e-300
                    } else {
                        v * 1e-302
                    }
                } else if j == dead {
                    v * 1e-305
                } else if i == big {
                    v * 1e295
                } else {
                    v
                }
            })
        }
    }
}

/// The bits of `x`, with every NaN read as the one canonical NaN: the kernels
/// and the textbook may order a sum's operands differently, which decides only
/// which of two NaNs' payloads survives.
fn value_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Asserts that `lu` is the textbook elimination `expected` bit for bit.
fn assert_textbook_lu(lu: &LuDecomposition, expected: &TextbookLu, what: &str) {
    assert_eq!(lu.permutation(), &expected.perm[..], "{what}: permutation");
    assert_eq!(lu.is_singular(), expected.singular_at.is_some(), "{what}: singularity");
    let det = match expected.singular_at {
        Some(_) => 0.0,
        None => {
            let n = expected.perm.len();
            (0..n).fold(expected.sign, |det, i| det * expected.d[i * n + i])
        }
    };
    assert_eq!(value_bits(lu.determinant()), value_bits(det), "{what}: determinant");
    let bits = |d: &[f64]| d.iter().copied().map(value_bits).collect::<Vec<_>>();
    assert_eq!(bits(lu.clone().into_matrix().as_slice()), bits(&expected.d), "{what}: factors");
}

/// Textbook right-looking Cholesky on the upper triangle: row `k` becomes row `k`
/// of `Lᵀ` (pivot `√a_kk`, the rest divided by it), each later row `i` stores its
/// factor `Lᵀ_ki` below the diagonal and, unless it is zero, subtracts
/// `Lᵀ_ki·Lᵀ_kj` from its columns `j ≥ i`.  `Err(k)` at the first pivot that is
/// not positive.
fn unblocked_cholesky(a: &Matrix) -> Result<Vec<f64>, usize> {
    let n = a.rows();
    let mut d = a.as_slice().to_vec();
    for k in 0..n {
        let pivot = d[k * n + k];
        if pivot.is_nan() || pivot <= 0.0 {
            return Err(k);
        }
        let root = pivot.sqrt();
        d[k * n + k] = root;
        for j in k + 1..n {
            d[k * n + j] /= root;
        }
        for i in k + 1..n {
            let factor = d[k * n + i];
            d[i * n + k] = factor;
            if factor != 0.0 {
                for j in i..n {
                    d[i * n + j] -= factor * d[k * n + j];
                }
            }
        }
    }
    Ok(d)
}

/// Sizes 1..=100 for the textbook comparisons: a quarter of the draws uniform,
/// the rest beside a multiple of 8 (`8k − 1`, `8k`, `8k + 1`), where every panel
/// edge and the switch from the unblocked loop to the panels lie.
fn sizes_beside_panel_edges() -> impl Strategy<Value = usize> {
    (1usize..=100, 1usize..=12, 0usize..4)
        .prop_map(|(any, k, side)| if side == 3 { any } else { 8 * k + side - 1 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The LU — factors, permutation, determinant sign and first singular pivot —
    /// is the textbook elimination bit for bit, at sizes crossing every panel
    /// boundary, on pools of 1, 2 and 4 threads.
    #[test]
    fn lu_is_the_textbook_elimination_bitwise(
        size in sizes_beside_panel_edges(),
        case in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let a = textbook_lu_case(case, size, seed);
        let expected = unblocked_lu(&a);
        if case >= 4 {
            prop_assert!(expected.singular_at.is_some(), "n = {size}: no pivot underflowed");
        }
        if case == 5 && size >= 4 {
            prop_assert!(expected.d.iter().any(|x| x.is_nan()), "n = {size}: no NaN pivot");
        }
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let what = format!("n = {size}, case {case}, {threads} threads");
            let lu = LuDecomposition::new_allow_singular_with(&a, &pool).unwrap();
            assert_textbook_lu(&lu, &expected, &what);
            match (LuDecomposition::from_matrix_with(a.clone(), &pool), expected.singular_at) {
                (Err(LinalgError::Singular { pivot }), Some(at)) => prop_assert_eq!(pivot, at),
                (Ok(_), None) => {}
                (outcome, at) => prop_assert!(false, "{what}: {outcome:?} vs singular at {at:?}"),
            }
        }
    }

    /// The Cholesky factor is the textbook elimination bit for bit, and an
    /// indefinite input fails at the textbook's pivot, on pools of 1, 2 and 4
    /// threads; `band` thins the input so the zero skips run beside dense rows.
    #[test]
    fn cholesky_is_the_textbook_elimination_bitwise(
        n in 1usize..=100,
        band in 0usize..110,
        flip in 0usize..200,
        seed in 0u64..1_000_000,
    ) {
        let mut a = spd_matrix(n, band, seed);
        // Half the cases break definiteness somewhere.
        if flip < 100 {
            let k = flip % n;
            a[(k, k)] = -a[(k, k)];
        }
        let expected = unblocked_cholesky(&a);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            match (Cholesky::from_matrix_with(a.clone(), &pool), &expected) {
                (Ok(factor), Ok(d)) => prop_assert_eq!(
                    matrix_bits(&factor.into_matrix()),
                    d.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                ),
                (Err(LinalgError::NotPositiveDefinite { pivot }), Err(k)) => {
                    prop_assert_eq!(pivot, *k)
                }
                (outcome, expected) => {
                    prop_assert!(false, "n = {n}: {:?} vs {expected:?}", outcome.map(|_| ()))
                }
            }
        }
    }
}
